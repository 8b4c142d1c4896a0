"""Characteristic-function games over agent subsets, partitions, and the
coalition-value bounds used for pruning.

A game maps every agent-set mask to a value; the empty set is worth 0.
A game may additionally carry a split into a reward part that never loses
from merging disjoint sets and a cost part that never gains from it. That
split is what makes the pruning bounds in this module admissible.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .masks import agents_of, iter_agents

Value = int | float

# Exact split factors are found by scanning all disjoint pairs, which costs
# 3^n; above this size a cheap safe overestimate is used instead.
_EXACT_SPLIT_MAX_N = 7


class Game:
    """A value function over agent-set masks, with an optional split into
    merge-rewarding and merge-penalizing parts.

    `value(mask)` must return 0 for the empty mask. When `sup_value` and
    `sub_value` are given they must sum to `value` pointwise; the
    `is_super_subadditive` flag asserts the split has the merge properties
    required by the bounds.
    """

    __slots__ = ("n", "value", "sup_value", "sub_value",
                 "is_super_subadditive", "tolerance")

    def __init__(self, n: int, value: Callable[[int], Value], *,
                 sup_value: Callable[[int], Value] | None = None,
                 sub_value: Callable[[int], Value] | None = None,
                 is_super_subadditive: bool = False,
                 tolerance: Value = 0):
        if not 1 <= n <= 63:
            raise ValueError(f"agent count must be in 1..63, got {n}")
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
        self.is_super_subadditive = is_super_subadditive
        self.tolerance = tolerance

    @property
    def decomposed(self) -> bool:
        return self.sup_value is not None

    def improves(self, new: Value, old: Value) -> bool:
        """Incumbent update test: strictly better beyond the tolerance."""
        return new > old + self.tolerance

    @classmethod
    def from_table(cls, values: Sequence[Value], *, decompose: bool = False,
                   tolerance: Value = 0) -> "Game":
        """Build a game from explicit values in mask order.

        Accepts either 2^n entries (index = mask, entry 0 must be 0) or
        2^n - 1 entries for the nonempty masks 1..2^n-1.
        """
        vals = list(values)
        m = len(vals)
        if m > 1 and (m & (m - 1)) == 0 and vals[0] == 0:
            full = vals
        elif (m + 1) & m == 0 and m >= 1:
            full = [0] + vals
        else:
            raise ValueError(
                f"table must list values for all nonempty masks; got {m} entries")
        n = len(full).bit_length() - 1
        if n > 20:
            raise ValueError(f"tabulated games support n <= 20, got n={n}")
        sup = sub = None
        flag = False
        if decompose:
            k = _split_factor(full, n)
            table = full

            def sup(c, _t=table, _k=k):
                p = c.bit_count()
                return _t[c] + _k * p * p

            def sub(c, _k=k):
                p = c.bit_count()
                return -_k * p * p

            flag = True
        return cls(n, full.__getitem__, sup_value=sup, sub_value=sub,
                   is_super_subadditive=flag, tolerance=tolerance)


def _split_factor(values: Sequence[Value], n: int) -> int:
    """Smallest safe quadratic coefficient k such that
    values[c] + k*|c|^2 never loses from merging disjoint sets.

    Exact for small n (scan of all disjoint pairs); a coarse but safe
    overestimate from the value range otherwise.
    """
    full = (1 << n) - 1
    if n == 0 or full == 0:
        return 0
    if n <= _EXACT_SPLIT_MAX_N:
        worst = 0
        for c in range(1, full + 1):
            pc = c.bit_count()
            vc = values[c]
            rest = full & ~c
            s = rest
            while s:
                gap = vc + values[s] - values[c | s]
                if gap > 0:
                    k = -(-gap // (2 * pc * s.bit_count()))
                    if k > worst:
                        worst = k
                s = (s - 1) & rest
        return worst
    hi = max(values[1:])
    lo = min(values[1:])
    gap = 2 * hi - lo
    return max(0, -(-gap // 2)) if gap > 0 else 0


def make_supersub_game(n: int, weights: Sequence[int] | None = None,
                       kappa: int | None = None, *, weight_max: int = 10,
                       kappa_max: int = 5,
                       seed: int | random.Random | None = None,
                       tolerance: Value = 0) -> Game:
    """Synthetic decomposed game: the reward of a coalition is the sum of
    its members' weights times its size, the cost is a quadratic penalty
    kappa*|C|^2. Both parts have the merge properties the bounds need as
    long as weights and kappa are nonnegative.

    This family is a stand-in generator, not a canonical benchmark; swap in
    a different decomposed game wherever a Game is accepted.
    """
    if not 1 <= n <= 63:
        raise ValueError(f"agent count must be in 1..63, got {n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if weights is None:
        weights = [rng.randint(0, weight_max) for _ in range(n)]
    wt = tuple(int(w) for w in weights)
    if len(wt) != n:
        raise ValueError(f"need {n} weights, got {len(wt)}")
    if any(w < 0 for w in wt):
        raise ValueError("weights must be nonnegative")
    if kappa is None:
        kappa = rng.randint(0, kappa_max)
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")

    def sup(c):
        s = 0
        k = 0
        m = c
        while m:
            b = m & -m
            m ^= b
            s += wt[b.bit_length() - 1]
            k += 1
        return s * k

    def sub(c, _k=kappa):
        p = c.bit_count()
        return -_k * p * p

    def value(c):
        return sup(c) + sub(c)

    return Game(n, value, sup_value=sup, sub_value=sub,
                is_super_subadditive=True, tolerance=tolerance)


def random_table_game(n: int, seed: int | random.Random | None = None, *,
                      lo: int = 0, hi: int = 100,
                      decompose: bool = True) -> Game:
    """Uniform random integer table over the nonempty masks. With
    `decompose` a safe quadratic split is attached so the pruning bounds
    apply to arbitrary tables."""
    if not 1 <= n <= 20:
        raise ValueError(f"tabulated games support n in 1..20, got {n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    vals = [0] + [rng.randint(lo, hi) for _ in range(1, 1 << n)]
    return Game.from_table(vals, decompose=decompose)


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
        m = 0
        for b in self.blocks:
            m |= b
        return m

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def agent_lists(self) -> list[list[int]]:
        return [agents_of(b) for b in self.blocks]

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(1 << a for a in range(n))

    def __repr__(self) -> str:
        return f"Partition({self.agent_lists()})"


def coalition_value(game: Game, c: int) -> Value:
    """Value of a single coalition mask."""
    return game.value(c)


def partition_value(game: Game, p: Partition | Iterable[int]) -> Value:
    """Sum of block values; the empty partition is worth 0."""
    v = game.value
    return sum(v(b) for b in p)


def upper_bound_tsp(game: Game, p: Partition | Iterable[int],
                    remainder: int) -> Value:
    """Bound on the value of any completion of partial partition p over the
    uncovered remainder: reward of keeping the whole remainder together
    plus the cost of splitting it into singletons. Admissible for any game
    carrying a valid split; raises when the game has none."""
    if not game.decomposed:
        raise ValueError("upper_bound_tsp needs a game with a reward/cost split")
    total = partition_value(game, p) + game.sup_value(remainder)
    sub = game.sub_value
    for a in iter_agents(remainder):
        total += sub(1 << a)
    return total


def upper_bound_cfss(game: Game, p: Partition | Iterable[int],
                     p_merge: Partition | Iterable[int]) -> Value:
    """Bound on the value of any coarsening reachable from contraction
    state p whose maximal allowed merge is p_merge: cost part evaluated on
    the current blocks, reward part on the fully merged ones."""
    if not game.decomposed:
        raise ValueError("upper_bound_cfss needs a game with a reward/cost split")
    sub = game.sub_value
    sup = game.sup_value
    return sum(sub(b) for b in p) + sum(sup(b) for b in p_merge)


def make_tsp_bound(game: Game, kind: str | None):
    """Bound hook for the tree-search solvers.

    Returns None for the prune-nothing policy. For "supersub" the returned
    closure takes (partial_value, remainder_mask); when the game carries no
    split it falls back to None, which disables pruning rather than failing.
    """
    if kind in (None, "none"):
        return None
    if kind == "supersub":
        if not game.decomposed:
            return None
        sup = game.sup_value
        singles = [game.sub_value(1 << a) for a in range(game.n)]

        def bound(partial_value, remainder):
            t = partial_value + sup(remainder)
            r = remainder
            while r:
                b = r & -r
                r ^= b
                t += singles[b.bit_length() - 1]
            return t

        return bound
    raise ValueError(f"unknown bound kind {kind!r}")


def make_cfss_bound(game: Game, kind: str | None):
    """Bound hook for the contraction solver: closure over
    (blocks, merged_blocks). Same fallback policy as make_tsp_bound."""
    if kind in (None, "none"):
        return None
    if kind == "supersub":
        if not game.decomposed:
            return None
        sup = game.sup_value
        sub = game.sub_value

        def bound(blocks, merged):
            return sum(sub(b) for b in blocks) + sum(sup(b) for b in merged)

        return bound
    raise ValueError(f"unknown bound kind {kind!r}")
