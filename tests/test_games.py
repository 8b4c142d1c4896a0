import itertools
import random

import pytest

from graphcsg import (Game, Partition, coalition_value, make_cfss_bound,
                      make_supersub_game, make_tsp_bound, partition_value,
                      random_table_game, upper_bound_cfss, upper_bound_tsp)


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


def test_improves_uses_tolerance():
    g = Game(2, lambda m: 0, tolerance=2)
    assert not g.improves(5, 4)
    assert not g.improves(6, 4)
    assert g.improves(7, 4)
    strict = Game(2, lambda m: 0)
    assert strict.improves(5, 4)
    assert not strict.improves(4, 4)


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
    assert coalition_value(gm, 0b11) == 10
    assert partition_value(gm, Partition([0b11])) == 10
    assert partition_value(gm, [0b01, 0b10]) == 3


def test_supersub_game_pinned_values():
    gm = make_supersub_game(2, weights=(1, 1), kappa=0)
    assert gm.value(0b01) == 1
    assert gm.value(0b10) == 1
    assert gm.value(0b11) == 4
    assert gm.decomposed and gm.is_super_subadditive
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
        assert gm.decomposed and gm.is_super_subadditive
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
        ub = upper_bound_tsp(gm, [fixed], rem)
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
        ub = upper_bound_cfss(gm, singles, [full])
        # every partition is a coarsening of singletons within one merge set
        for part in partitions_of_mask(full):
            assert ub >= sum_over_partition(gm, part)


def test_bound_factories():
    dec = make_supersub_game(3, seed=1)
    plain = Game(3, lambda m: popcount(m) if m else 0)
    assert make_tsp_bound(dec, "none") is None
    assert make_tsp_bound(dec, None) is None
    assert make_tsp_bound(plain, "supersub") is None  # nothing to bound with
    assert make_cfss_bound(plain, "supersub") is None
    f = make_tsp_bound(dec, "supersub")
    best = max(sum_over_partition(dec, part)
               for part in partitions_of_mask(0b111))
    assert f(0, 0b111) >= best
    assert f(5, 0b111) == f(0, 0b111) + 5
    h = make_cfss_bound(dec, "supersub")
    singles = [1, 2, 4]
    assert h(singles, [0b111]) == upper_bound_cfss(dec, singles, [0b111])
    with pytest.raises(ValueError):
        make_tsp_bound(dec, "tighter")
    with pytest.raises(ValueError):
        make_cfss_bound(dec, "tighter")
