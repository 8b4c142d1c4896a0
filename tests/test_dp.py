import random
import time

import pytest

from graphcsg import (BudgetExceededError, Game, InternalInvariantError,
                      Partition, brute_force_best, build_pseudotree, dype,
                      dype_star, make_graph, partition_value,
                      random_table_game)
from graphcsg.solvers import dp
from graphcsg.solvers.dp import audit_dp_table
from graphcsg.solvers.dptable import DpTable, reconstruct_blocks

from conftest import FOUR_CYCLE_EDGES, random_connected_edges


def random_instance(rng, n_max=8):
    n = rng.randint(1, n_max)
    edges = random_connected_edges(rng, n)
    g = make_graph(n, edges)
    gm = random_table_game(n, seed=rng.randrange(10 ** 6))
    return gm, g


def test_dype_matches_oracle():
    rng = random.Random(70)
    for _ in range(30):
        gm, g = random_instance(rng)
        pt = build_pseudotree(g, rng.randrange(g.n))
        res = dype(gm, g, pt)
        want = brute_force_best(gm, g).best_value
        assert res.best_value == want, (g.edges, pt.root)
        assert partition_value(gm, res.best) == want
        assert res.best.covered == g.full_mask
        assert all(g.is_connected(b) for b in res.best)


def test_dype_root_choice_does_not_change_value():
    rng = random.Random(71)
    gm, g = random_instance(rng, n_max=7)
    vals = {dype(gm, g, build_pseudotree(g, r)).best_value
            for r in range(g.n)}
    assert len(vals) == 1


def test_audit_accepts_fresh_tables():
    rng = random.Random(72)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        res = dype(gm, g, pt)
        audit_dp_table(res.table, gm, g, pt)
        res2 = dype_star(gm, g, pt)
        audit_dp_table(res2.table, gm, g, pt)


def test_audit_rejects_corrupted_value():
    gm = random_table_game(5, seed=5)
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pt = build_pseudotree(g, 0)
    res = dype(gm, g, pt)
    table = res.table
    c = max(table.values, key=lambda m: bin(m).count("1"))
    table.values[c] += 1
    with pytest.raises(InternalInvariantError):
        audit_dp_table(table, gm, g, pt)


def test_audit_rejects_corrupted_witness():
    gm = random_table_game(4, seed=6)
    g = make_graph(4, FOUR_CYCLE_EDGES)
    pt = build_pseudotree(g, 0)
    table = dype(gm, g, pt).table
    # point some entry's witness at a block that cannot be its best choice
    for c, sub in table.subsets.items():
        other = c & ~sub
        if other and table.values.get(c) is not None:
            wrong = other & -other
            if wrong != sub:
                table.subsets[c] = wrong
                break
    with pytest.raises(InternalInvariantError):
        audit_dp_table(table, gm, g, pt)


def test_table_entries_are_write_once():
    t = DpTable(3)
    t.put(0b011, 7, 0b001)
    assert t.values[0b011] == 7
    assert t.subsets[0b011] == 0b001
    with pytest.raises(InternalInvariantError):
        t.put(0b011, 8, 0b001)
    assert (t.values[0b011], t.subsets[0b011]) == (7, 0b001)
    # a missing entry is reported as a fault, not read as a KeyError
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InternalInvariantError):
        reconstruct_blocks(t, [0b111], g)


def test_published_level_reaches_bottom():
    gm = random_table_game(5, seed=9)
    g = make_graph(5, [(i, i + 1) for i in range(4)])
    pt = build_pseudotree(g, 0)
    table = dype(gm, g, pt).table
    assert table.published_level == 2


def test_reconstruction_returns_optimal_feasible_blocks():
    rng = random.Random(73)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        table = dype(gm, g, pt).table
        for c, val in table.values.items():
            blocks = reconstruct_blocks(table, [c], g)
            assert all(g.is_connected(b) for b in blocks)
            # Partition rejects overlapping blocks
            assert Partition(blocks).covered == c
            assert partition_value(gm, blocks) == val


def test_dype_tables_pass_the_audit_under_a_tolerance():
    # a tolerance lets the incumbent stop short of the optimum, but every
    # table entry still holds the recurrence's exact value
    rng = random.Random(76)
    for _ in range(200):
        n = rng.randint(3, 8)
        g = make_graph(n, random_connected_edges(rng, n))
        base = random_table_game(n, seed=rng.randrange(10 ** 6))
        gm = Game(n, base.value, tolerance=3)
        pt = build_pseudotree(g, rng.randrange(n))
        res = dype(gm, g, pt)
        audit_dp_table(res.table, gm, g, pt)
        want = brute_force_best(base, g).best_value
        assert want - 3 <= res.best_value <= want
        assert partition_value(gm, res.best) == res.best_value


def test_dype_star_trace_contract():
    rng = random.Random(74)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        seen = []
        res = dype_star(gm, g, pt, on_incumbent=lambda t, v, b: seen.append(v))
        assert res.completed
        assert res.trace[0] == (0, gm.value(g.full_mask))
        for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
            assert t1 >= t0 and v1 > v0
        assert res.trace[-1][1] == res.best_value
        assert res.best_value == brute_force_best(gm, g).best_value
        # the hook fires exactly on the improving steps after the first
        assert seen == [v for _, v in res.trace[1:]]


def test_deadline_behaviour():
    # a deadline already gone stops both solvers in their first level fill
    gm = random_table_game(12, seed=10)
    g = make_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    pt = build_pseudotree(g, 0)
    past = time.monotonic() - 1
    with pytest.raises(BudgetExceededError):
        dype(gm, g, pt, deadline=past)
    res = dype_star(gm, g, pt, deadline=past)
    assert not res.completed
    assert res.trace[0] == (0, gm.value(g.full_mask))
    for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
        assert t1 >= t0 and v1 > v0
    assert res.trace[-1][1] == res.best_value
    assert res.best.covered == g.full_mask
    assert all(g.is_connected(b) for b in res.best)


def test_dype_star_stops_soon_after_the_deadline():
    # A deadline already gone stops the first level fill at its first
    # subset. One that passes mid-level (here: at the K-th value call,
    # deep inside the inner split enumerations) stops within a stride of
    # subsets plus the one split under way, inner subsets included.
    n, K = 10, 1000
    g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=3)
    pt = build_pseudotree(g, 0)
    res = dype_star(base, g, pt, deadline=time.monotonic())
    assert not res.completed
    assert res.stats.subsets_enumerated <= 16

    calls = 0
    deadline = None

    def value(m):
        nonlocal calls
        calls += 1
        if calls == K:
            while time.monotonic() < deadline:
                pass
        return base.value(m)

    gm = Game(n, value)
    deadline = time.monotonic() + 0.05
    res = dype_star(gm, g, pt, deadline=deadline)
    assert not res.completed
    assert res.stats.subsets_enumerated <= K + 1024


def test_dype_stops_soon_after_the_deadline_in_the_last_scan():
    # On a star the level fills are tiny, and the sweep's last call is the
    # scan of stage 2: it prices the 2^(n-2) first blocks around the centre
    # that leave out the agent at position 2, each from the table. A
    # deadline that passes at that scan's first value call stops it within
    # one stride of 1,024 ticks; each block also costs a tick per component
    # it leaves, so on this star that is under 256 blocks, well short of
    # the stage's 1,024.
    n = 12
    g = make_graph(n, [(0, a) for a in range(1, n)])
    base = random_table_game(n, seed=5)
    pt = build_pseudotree(g, 0)
    calls = 0
    K = -1  # no stall while the run's value calls are counted
    deadline = None

    def value(m):
        nonlocal calls
        calls += 1
        if calls == K:
            while time.monotonic() < deadline:
                pass
        return base.value(m)

    gm = Game(n, value)
    calls = 0
    dype(gm, g, pt)
    seeds = sum(1 for _ in g.connected_subsets(
        g.full_mask ^ (1 << pt.order[1]), required=1 << pt.order[0]))
    assert seeds == 1 << (n - 2)
    K = calls - seeds + 1
    calls = 0
    deadline = time.monotonic() + 0.05
    with pytest.raises(BudgetExceededError):
        dype(gm, g, pt, deadline=deadline)
    assert K <= calls <= K + 256 + n


def test_dype_star_stops_soon_after_the_deadline_inside_a_split():
    # On K12 the last level's largest entry splits over 2^10 blocks. A
    # deadline that passes at that split's first value call is noticed
    # inside the split, within one stride of 256 subsets.
    n = 12
    g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=6)
    pt = build_pseudotree(g, 0)
    calls = 0
    K = -1
    deadline = None

    def value(m):
        nonlocal calls
        calls += 1
        if calls == K:
            while time.monotonic() < deadline:
                pass
        return base.value(m)

    split = dp._best_anchored_split
    largest = (0, 0)  # (agents, first value call) of the largest split

    def spy(v, g, tv, c, anchor_bit, *args):
        nonlocal largest
        if c.bit_count() > largest[0]:
            largest = (c.bit_count(), calls + 1)
        return split(v, g, tv, c, anchor_bit, *args)

    gm = Game(n, value)
    t0 = time.monotonic()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "_best_anchored_split", spy)
        dype_star(gm, g, pt)
    assert largest[0] == n - 1
    K = largest[1]
    calls = 0
    # late enough that the run reaches the K-th value call before it
    deadline = time.monotonic() + 2 * (time.monotonic() - t0) + 0.5
    res = dype_star(gm, g, pt, deadline=deadline)
    assert not res.completed
    assert K <= calls <= K + 256 + n


def test_dype_and_dype_star_do_the_same_work():
    # dype is dype-star's sweep run to the end: same answer, same work,
    # same table
    rng = random.Random(75)
    for _ in range(15):
        gm, g = random_instance(rng)
        pt = build_pseudotree(g, rng.randrange(g.n))
        exact = dype(gm, g, pt)
        anytime = dype_star(gm, g, pt)
        assert exact.best_value == anytime.best_value
        assert exact.best == anytime.best
        assert exact.stats == anytime.stats
        assert exact.table.values == anytime.table.values
        assert exact.table.subsets == anytime.table.subsets
        assert exact.trace == []
