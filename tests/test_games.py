import hashlib
import itertools
import random
import threading

import pytest

from graphcsg import (Game, Partition, make_cfss_bound, make_supersub_game,
                      make_tsp_bound, partition_value, random_table_game)
from graphcsg.games import _split_factor


def popcount(m):
    return bin(m).count("1")


def test_from_table_accepts_both_lengths():
    a = Game.from_table([0, 1, 2, 3])
    b = Game.from_table([1, 2, 3])
    for m in range(4):
        assert a.value(m) == b.value(m) == m


def test_from_table_reads_one_entry_as_one_agent():
    # [v] lists the single nonempty mask of a one-agent game, zero included
    for v in (0, 5):
        gm = Game.from_table([v])
        assert gm.n == 1
        assert gm.value(0) == 0 and gm.value(1) == v


def test_from_table_rejects_bad_input():
    with pytest.raises(ValueError):
        Game.from_table([5, 1, 2, 3])  # 2^n entries but nonzero at index 0
    with pytest.raises(ValueError):
        Game.from_table([1, 2])
    with pytest.raises(ValueError):
        Game.from_table([0] + [1] * ((1 << 21) - 1))


def test_game_validates_construction():
    with pytest.raises(ValueError):
        Game(0, lambda m: 0)
    with pytest.raises(ValueError):
        Game(2, lambda m: 1)  # empty coalition must be worth 0
    with pytest.raises(ValueError):
        Game(2, lambda m: 0, sup_value=lambda m: 0)
    with pytest.raises(ValueError):
        Game(2, lambda m: 0, tolerance=-1)


def test_partition_normalization_and_views():
    p = Partition([0b100, 0b011])
    assert p.blocks == (0b011, 0b100)  # sorted by lowest agent
    assert p.covered == 0b111
    assert p.agent_lists() == [[0, 1], [2]]


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        Partition([0b011, 0b010])
    with pytest.raises(ValueError):
        Partition([0b01, 0])


def test_partition_value_sums_blocks():
    gm = Game.from_table([0, 1, 2, 10])
    assert gm.value(0b11) == 10
    assert partition_value(gm, Partition([0b11])) == 10
    assert partition_value(gm, [0b01, 0b10]) == 3


def test_supersub_game_pinned_values():
    gm = make_supersub_game(2, weights=(1, 1), kappa=0)
    assert gm.value(0b01) == 1
    assert gm.value(0b10) == 1
    assert gm.value(0b11) == 4
    assert gm.decomposed
    gm2 = make_supersub_game(3, weights=(2, 0, 1), kappa=1)
    # (sum of weights) * |C| - kappa * |C|^2
    assert gm2.value(0b101) == 3 * 2 - 1 * 4
    assert gm2.value(0b111) == 3 * 3 - 1 * 9


def test_supersub_game_split_properties():
    rng = random.Random(50)
    for _ in range(20):
        n = rng.randint(1, 6)
        gm = make_supersub_game(n, seed=rng.randrange(10 ** 6))
        for m in range(1 << n):
            assert gm.value(m) == gm.sup_value(m) + gm.sub_value(m)
        for a, b in disjoint_pairs(n):
            assert gm.sup_value(a | b) >= gm.sup_value(a) + gm.sup_value(b)
            assert gm.sub_value(a | b) <= gm.sub_value(a) + gm.sub_value(b)


def disjoint_pairs(n):
    for a in range(1, 1 << n):
        rest = (1 << n) - 1 & ~a
        b = rest
        while b:
            yield a, b
            b = (b - 1) & rest


def test_byte_table_pricing_matches_the_bit_loop():
    """sup, value and the tsp bound read weight sums from two half-width
    tables (`half_sums`; past 24 agents the high one walks per-byte
    tables); they must equal the sums taken agent by agent. The sizes
    cross both cuts: odd and even halves, 24 and 25 agents."""
    rng = random.Random(31)
    for n in (1, 2, 7, 8, 9, 12, 13, 16, 17, 23, 24, 25, 40, 63):
        weights = [rng.randint(0, 50) for _ in range(n)]
        kappa = rng.randint(0, 5)
        gm = make_supersub_game(n, weights, kappa)
        bound = make_tsp_bound(gm, "supersub")
        full = (1 << n) - 1
        if n <= 10:
            masks = range(full + 1)
        else:
            masks = [0, full] + [rng.getrandbits(n) for _ in range(2000)]
        for m in masks:
            size = 0
            total = 0
            for a in range(n):
                if m >> a & 1:
                    size += 1
                    total += weights[a]
            assert gm.sup_value(m) == total * size, (n, m)
            assert gm.value(m) == total * size - kappa * size * size, (n, m)
            partial = rng.randint(-100, 100)
            assert bound(partial, m) == \
                partial + total * size - kappa * size, (n, m)


def test_supersub_game_seed_reproducible():
    a = make_supersub_game(4, seed=11)
    b = make_supersub_game(4, seed=11)
    c = make_supersub_game(4, seed=12)
    vals_a = [a.value(m) for m in range(16)]
    assert vals_a == [b.value(m) for m in range(16)]
    assert vals_a != [c.value(m) for m in range(16)]


def test_random_table_game_synthetic_split():
    """Arbitrary tables get a quadratic shift split; for small n the two
    parts must actually have the merge monotonicity the bounds rely on."""
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(1, 6)
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        assert gm.decomposed
        for m in range(1 << n):
            assert gm.value(m) == gm.sup_value(m) + gm.sub_value(m)
        for a, b in disjoint_pairs(n):
            assert gm.sup_value(a | b) >= gm.sup_value(a) + gm.sup_value(b), \
                (n, a, b)
            assert gm.sub_value(a | b) <= gm.sub_value(a) + gm.sub_value(b)


def test_random_table_game_reproducible_and_integer():
    a = random_table_game(5, seed=3)
    b = random_table_game(5, seed=3)
    for m in range(32):
        assert a.value(m) == b.value(m)
        assert isinstance(a.value(m), int)
        assert 0 <= a.value(m) <= 100 or m == 0


@pytest.mark.parametrize("lo,hi", [(0, 100), (0, 127), (0, 128), (-50, 50),
                                   (3, 3), (0, 2 ** 40)])
def test_randints_draws_what_randint_draws(lo, hi):
    # Pins CPython's `randint` algorithm: if it changes, this fails and the
    # inlined draw must follow it, or generated instances would change.
    from graphcsg.games import randints
    for seed in (0, 1, 7, 2024):
        for count in (0, 1, 300):
            ours, ref = random.Random(seed), random.Random(seed)
            assert list(randints(ours, lo, hi, count)) == \
                [ref.randint(lo, hi) for _ in range(count)]
            assert ours.getstate() == ref.getstate()


def test_randints_refuses_an_empty_range():
    from graphcsg.games import randints
    raised = []

    def draw():
        try:
            list(randints(random.Random(0), 5, 4, 3))
        except ValueError:
            raised.append(True)

    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "randints(lo > hi) never returned"
    assert raised


@pytest.mark.parametrize("kwargs,message", [
    (dict(weights=[1, 2]), "need 3 weights, got 2"),
    (dict(weights=[1, -2, 3]), "weights must be nonnegative"),
    (dict(weights=[1, 2, 3], kappa=-1), "kappa must be nonnegative"),
])
def test_supersub_game_refuses_bad_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_supersub_game(3, **kwargs)


@pytest.mark.parametrize("n", [0, 21])
def test_random_table_game_refuses_n_outside_the_table_cap(n):
    with pytest.raises(ValueError, match=f"n in 1..20, got {n}$"):
        random_table_game(n)


def test_random_table_game_values_are_pinned():
    # Recorded before the table draw was inlined; the rng is left where
    # `randint` would leave it, which callers that keep drawing rely on.
    rng = random.Random(9)
    game = random_table_game(10, rng)
    vals = [game.value(m) for m in range(1, 1 << 10)]
    assert vals[:8] == [59, 78, 47, 34, 17, 23, 86, 0]
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == \
        "a535f42336f29477fe615d02e96e4d89362709bb5cbe89f860a3164ee39e1ef4"
    assert rng.random() == 0.7949808851373455


def test_split_factor_is_the_smallest_safe_k():
    # one scan per unordered pair gives the factor the ordered scan gives
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 7)
        vals = [0] + [rng.randint(-50, 100) for _ in range((1 << n) - 1)]
        worst = 0
        for a, b in disjoint_pairs(n):
            gap = vals[a] + vals[b] - vals[a | b]
            if gap > 0:
                worst = max(worst, -(-gap // (2 * popcount(a) * popcount(b))))
        assert _split_factor(vals, n) == worst, (n, vals)


def test_upper_bound_tsp_dominates_extensions_spot_check():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(2, 6)
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        full = (1 << n) - 1
        # fix one random block, bound the rest
        fixed = rng.randrange(1, full)
        rem = full & ~fixed
        if not rem:
            continue
        ub = make_tsp_bound(gm, "supersub")(gm.value(fixed), rem)
        best = max(gm.value(fixed) + sum_over_partition(gm, part)
                   for part in partitions_of_mask(rem))
        assert ub >= best


def partitions_of_mask(mask):
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]

    def rec(i, blocks):
        if i == len(bits):
            yield list(blocks)
            return
        for j in range(len(blocks)):
            blocks[j] |= bits[i]
            yield from rec(i + 1, blocks)
            blocks[j] &= ~bits[i]
        blocks.append(bits[i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def sum_over_partition(gm, blocks):
    return sum(gm.value(b) for b in blocks)


def test_upper_bound_cfss_dominates_merges_spot_check():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 5)
        gm = make_supersub_game(n, seed=rng.randrange(10 ** 6))
        full = (1 << n) - 1
        singles = [1 << a for a in range(n)]
        ub = make_cfss_bound(gm, "supersub")(singles, [full])
        # every partition is a coarsening of singletons within one merge set
        for part in partitions_of_mask(full):
            assert ub >= sum_over_partition(gm, part)


def test_bound_factories():
    dec = make_supersub_game(3, seed=1)
    plain = Game(3, lambda m: popcount(m) if m else 0)
    assert make_tsp_bound(dec, "none") is None
    assert make_tsp_bound(dec, None) is None
    assert make_cfss_bound(dec, "none") is None
    assert make_cfss_bound(dec, None) is None
    assert make_tsp_bound(plain, "supersub") is None  # nothing to bound with
    assert make_cfss_bound(plain, "supersub") is None
    f = make_tsp_bound(dec, "supersub")
    best = max(sum_over_partition(dec, part)
               for part in partitions_of_mask(0b111))
    assert f(0, 0b111) >= best
    assert f(5, 0b111) == f(0, 0b111) + 5
    h = make_cfss_bound(dec, "supersub")
    singles = [1, 2, 4]
    # cost part on the current blocks, reward part on the merged ones
    assert h(singles, [0b111]) == \
        sum(dec.sub_value(b) for b in singles) + dec.sup_value(0b111)
    assert h([0b011, 0b100], [0b011, 0b100]) == \
        dec.sub_value(0b011) + dec.sub_value(0b100) \
        + dec.sup_value(0b011) + dec.sup_value(0b100)
    with pytest.raises(ValueError):
        make_tsp_bound(dec, "tighter")
    with pytest.raises(ValueError):
        make_cfss_bound(dec, "tighter")
    # an unknown kind is an error even where no split could prune
    with pytest.raises(ValueError):
        make_tsp_bound(plain, "tighter")
    with pytest.raises(ValueError):
        make_cfss_bound(plain, "tighter")
