"""Characteristic-function games over agent subsets, partitions, and the
coalition-value bounds used for pruning.

A game maps every agent-set mask to a value; the empty set is worth 0.
A game may additionally carry a split into a reward part that never loses
from merging disjoint sets and a cost part that never gains from it. That
split is what makes the pruning bounds in this module admissible.

Per-agent sums (supersub weights, the tsp bound's singleton costs) are two
lookups in the half-width tables of `masks.half_sums`.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .graph import MAX_N
from .masks import agents_of, half_sums

Value = int | float

# Tabulated games keep one value per mask: 2^20 entries at most.
TABLE_MAX_N = 20

BOUND_KINDS = ("none", "supersub")

# Exact split factors scan each unordered disjoint pair, about 3^n / 2;
# above this size a cheap safe overestimate is used instead.
_EXACT_SPLIT_MAX_N = 7


class Game:
    """A value function over agent-set masks, with an optional split into
    merge-rewarding and merge-penalizing parts.

    `value(mask)` must return 0 for the empty mask. When `sup_value` and
    `sub_value` are given they must sum to `value` pointwise, and giving
    them is the caller's promise that `sup_value` never loses and
    `sub_value` never gains from merging disjoint sets: the bounds trust
    any split they find (`decomposed`) and do not check it.

    A new incumbent must beat the old one by more than `tolerance`, so a run
    may end up to the tolerance below the optimum per connected component.
    """

    __slots__ = ("n", "value", "sup_value", "sub_value", "tolerance")

    def __init__(self, n: int, value: Callable[[int], Value], *,
                 sup_value: Callable[[int], Value] | None = None,
                 sub_value: Callable[[int], Value] | None = None,
                 tolerance: Value = 0):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"agent count must be in 1..{MAX_N}, got {n}")
        if value(0) != 0:
            raise ValueError("the empty coalition must have value 0")
        if (sup_value is None) != (sub_value is None):
            raise ValueError("give both parts of the split or neither")
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        self.n = n
        self.value = value
        self.sup_value = sup_value
        self.sub_value = sub_value
        self.tolerance = tolerance

    @property
    def decomposed(self) -> bool:
        return self.sup_value is not None

    @classmethod
    def from_table(cls, values: Sequence[Value]) -> "Game":
        """Build a game from explicit values in mask order. The safe
        quadratic split of `_split_factor` is always attached.

        Accepts either 2^n entries (index = mask, entry 0 must be 0) or
        2^n - 1 entries for the nonempty masks 1..2^n-1. Either way the
        2^n-entry list the game reads is the only copy made.
        """
        m = len(values)
        if m > 1 and (m & (m - 1)) == 0 and values[0] == 0:
            full = list(values)
        elif (m + 1) & m == 0 and m >= 1:
            full = [0]
            full += values
        else:
            raise ValueError(
                f"table must list values for all nonempty masks; got {m} entries")
        n = len(full).bit_length() - 1
        if n > TABLE_MAX_N:
            raise ValueError(
                f"tabulated games support n <= {TABLE_MAX_N}, got n={n}")
        k = _split_factor(full, n)

        def sup(c, _t=full, _k=k):
            p = c.bit_count()
            return _t[c] + _k * p * p

        def sub(c, _k=k):
            p = c.bit_count()
            return -_k * p * p

        return cls(n, full.__getitem__, sup_value=sup, sub_value=sub)


def _split_factor(values: Sequence[Value], n: int) -> int:
    """Smallest safe quadratic coefficient k such that
    values[c] + k*|c|^2 never loses from merging disjoint sets.

    Exact for small n (each unordered disjoint pair once: s takes only
    agents above c's lowest); a coarse but safe overestimate otherwise.
    """
    full = (1 << n) - 1
    if n <= _EXACT_SPLIT_MAX_N:
        worst = 0
        for c in range(1, full + 1):
            pc = c.bit_count()
            vc = values[c]
            rest = full & ~c & -c
            s = rest
            while s:
                gap = vc + values[s] - values[c | s]
                if gap > 0:
                    k = -(-gap // (2 * pc * s.bit_count()))
                    if k > worst:
                        worst = k
                s = (s - 1) & rest
        return worst
    hi = max(itertools.islice(values, 1, None))
    lo = min(itertools.islice(values, 1, None))
    gap = 2 * hi - lo
    return max(0, -(-gap // 2)) if gap > 0 else 0


def make_supersub_game(n: int, weights: Sequence[int] | None = None,
                       kappa: int | None = None, *,
                       seed: int | random.Random | None = None) -> Game:
    """Synthetic decomposed game: the reward of a coalition is the sum of
    its members' weights times its size, the cost is a quadratic penalty
    kappa*|C|^2. Both parts have the merge properties the bounds need as
    long as weights and kappa are nonnegative. Weights left out are drawn
    from 0-10, and kappa from 0-5.

    `value` and `sup` read the weight sum from the two `half_sums` tables.

    This family is a stand-in generator, not a canonical benchmark; swap in
    a different decomposed game wherever a Game is accepted.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if weights is None:
        weights = [rng.randint(0, 10) for _ in range(n)]
    wt = tuple(int(w) for w in weights)
    if len(wt) != n:
        raise ValueError(f"need {n} weights, got {len(wt)}")
    if any(w < 0 for w in wt):
        raise ValueError("weights must be nonnegative")
    if kappa is None:
        kappa = rng.randint(0, 5)
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")

    lo, hi, m, h = half_sums(wt)

    def sup(c):
        return (lo[c & m] + hi[c >> h]) * c.bit_count()

    def sub(c, _k=kappa):
        p = c.bit_count()
        return -_k * p * p

    def value(c):
        k = c.bit_count()
        return k * (lo[c & m] + hi[c >> h] - kappa * k)

    return Game(n, value, sup_value=sup, sub_value=sub)


def random_table_game(n: int, seed: int | random.Random | None = None) -> Game:
    """Uniform random integer table over the nonempty masks, values 0-100,
    with the split `Game.from_table` attaches."""
    if not 1 <= n <= TABLE_MAX_N:
        raise ValueError(
            f"tabulated games support n in 1..{TABLE_MAX_N}, got {n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return Game.from_table(tuple(randints(rng, 0, 100, (1 << n) - 1)))


def randints(rng: random.Random, lo: int, hi: int,
             count: int) -> Iterator[int]:
    """Yield `count` values of `rng.randint(lo, hi)` and leave `rng` where
    it would: CPython's rejection loop over `getrandbits`, inlined. Once
    iterated, raises ValueError when hi < lo, as `randint` does."""
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k = width.bit_length()
    bits = rng.getrandbits
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        yield lo + r


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty agent-set blocks, stored sorted by lowest agent."""

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        bl = tuple(sorted(blocks, key=lambda b: b & -b))
        total = 0
        size = 0
        for b in bl:
            if b == 0:
                raise ValueError("partition blocks must be nonempty")
            total |= b
            size += b.bit_count()
        if size != total.bit_count():
            raise ValueError("partition blocks must be disjoint")
        object.__setattr__(self, "blocks", bl)

    @property
    def covered(self) -> int:
        return sum(self.blocks)  # the blocks are disjoint

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def agent_lists(self) -> list[list[int]]:
        return [agents_of(b) for b in self.blocks]

    def __repr__(self) -> str:
        return f"Partition({self.agent_lists()})"


def partition_value(game: Game, p: Partition | Iterable[int]) -> Value:
    """Sum of block values; the empty partition is worth 0."""
    v = game.value
    return sum(v(b) for b in p)


def _prunes(game: Game, kind: str | None) -> bool:
    """Whether a bound kind prunes on this game. None and "none" never
    prune; "supersub" prunes when the game carries a split, and otherwise
    falls back to no pruning rather than failing. Any other kind, outside
    BOUND_KINDS, raises ValueError."""
    if kind is not None and kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    return kind == "supersub" and game.decomposed


def make_tsp_bound(game: Game, kind: str | None):
    """Bound hook for the tree-search solvers, or None for no pruning
    (`_prunes`). The closure takes (partial_value, remainder_mask) and
    adds the remainder's `sup_value` and its singletons' `sub_value`s,
    the latter read from two `half_sums` tables."""
    if not _prunes(game, kind):
        return None
    sup = game.sup_value
    lo, hi, m, h = half_sums([game.sub_value(1 << a) for a in range(game.n)])

    def bound(partial_value, rest):
        return partial_value + sup(rest) + lo[rest & m] + hi[rest >> h]

    return bound


def make_cfss_bound(game: Game, kind: str | None):
    """Bound hook for the contraction solver, or None for no pruning
    (`_prunes`). The closure takes (blocks, merged_blocks)."""
    if not _prunes(game, kind):
        return None
    sup, sub = game.sup_value, game.sub_value

    def bound(blocks, merged):
        return sum(map(sub, blocks)) + sum(map(sup, merged))

    return bound
