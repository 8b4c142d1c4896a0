import random
import time

import pytest

from graphcsg import (Game, SearchStats, brute_force_best, build_pseudotree,
                      d_tsp, make_graph, make_supersub_game, make_tsp_bound,
                      partition_value, random_table_game, tsp)
from graphcsg.solvers.dptable import DpTable
from graphcsg.solvers.hybrid import _Control, _Incumbent, _Search

from conftest import random_connected_edges


def check_complete_run(gm, g, res):
    want = brute_force_best(gm, g).best_value
    assert res.best_value == want
    assert partition_value(gm, res.best) == want
    assert res.best.covered == g.full_mask
    assert all(g.is_connected(b) for b in res.best)
    assert res.completed
    assert res.stats.frontier_crossed
    assert res.stats.tsp_star_fallbacks == 0
    assert res.trace[0] == (0, gm.value(g.full_mask))
    for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
        assert t1 >= t0 and v1 > v0
    assert res.trace[-1][1] == want


def test_interleaved_matches_oracle():
    rng = random.Random(100)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        check_complete_run(gm, g, d_tsp(gm, g, pt))


def test_parallel_matches_oracle():
    rng = random.Random(101)
    for _ in range(15):
        n = rng.randint(1, 8)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        check_complete_run(gm, g, d_tsp(gm, g, pt, mode="parallel"))


def test_parallel_value_is_stable_across_runs():
    # thread scheduling may vary the work counters but never the answer
    rng = random.Random(102)
    g = make_graph(8, random_connected_edges(rng, 8))
    gm = random_table_game(8, seed=55)
    pt = build_pseudotree(g, 0)
    vals = {d_tsp(gm, g, pt, mode="parallel").best_value for _ in range(5)}
    assert len(vals) == 1


def test_degenerate_sizes():
    g1 = make_graph(1)
    gm1 = random_table_game(1, seed=0)
    res = d_tsp(gm1, g1, build_pseudotree(g1, 0))
    assert res.best_value == gm1.value(1)
    assert res.best.blocks == (1,)
    assert res.stats.frontier_crossed

    g2 = make_graph(2, [(0, 1)])
    gm2 = random_table_game(2, seed=1)
    res2 = d_tsp(gm2, g2, build_pseudotree(g2, 0))
    assert res2.best_value == max(gm2.value(3), gm2.value(1) + gm2.value(2))


def test_sweep_alone_still_terminates():
    # with the search worker off, the sweep must cross the frontier by
    # exhausting its own levels
    rng = random.Random(103)
    for _ in range(10):
        n = rng.randint(1, 7)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt, tsp_worker_enabled=False)
        check_complete_run(gm, g, res)
        assert res.stats.tsp_star_shortcuts == 0


def test_shortcuts_fire_on_a_batch():
    rng = random.Random(104)
    total = 0
    for _ in range(20):
        n = rng.randint(4, 9)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt)
        total += res.stats.tsp_star_shortcuts
        assert res.stats.tsp_star_fallbacks == 0
    assert total > 0


def test_bound_keeps_hybrid_exact():
    rng = random.Random(105)
    for _ in range(15):
        n = rng.randint(2, 8)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = make_supersub_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt, bound=make_tsp_bound(gm, "supersub"))
        check_complete_run(gm, g, res)


def test_deadline_keeps_incumbent_without_raising():
    for mode in ("interleaved", "parallel"):
        g = make_graph(12, [(i, j) for i in range(12)
                            for j in range(i + 1, 12)])
        gm = random_table_game(12, seed=9)
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt, mode=mode, deadline=time.monotonic())
        assert not res.completed
        assert res.trace[0] == (0, gm.value(g.full_mask))
        assert res.best.covered == g.full_mask
        assert all(g.is_connected(b) for b in res.best)
        assert res.best_value == res.trace[-1][1]


def test_unknown_mode_rejected():
    g = make_graph(2, [(0, 1)])
    gm = random_table_game(2, seed=0)
    pt = build_pseudotree(g, 0)
    with pytest.raises(ValueError):
        d_tsp(gm, g, pt, mode="sequential")


def test_search_steps_walk_the_tsp_tree_at_any_budget():
    # bound=None and an empty table: no prune and no shortcut, so stepping
    # the resumable search must enumerate exactly the subsets tsp does, in
    # the same order, whatever the budget per step
    rng = random.Random(106)
    for _ in range(12):
        n = rng.randint(2, 8)
        g = make_graph(n, random_connected_edges(rng, n))
        base = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        seen = []

        def value(m):
            seen.append(m)
            return base.value(m)

        gm = Game(n, value)
        del seen[:]
        want = tsp(gm, g, pt)
        # tsp prices the singletons and the grand coalition first
        want_seen = seen[n + 1:]
        for budget in (1, 7, float("inf")):
            inc = _Incumbent([g.full_mask], gm.value(g.full_mask), 0, 0)
            del seen[:]
            stats = SearchStats()
            search = _Search(gm, g, pt, DpTable(n), inc, stats, None, None,
                             _Control(), lambda: False)
            steps = 0
            while search.step(budget):
                steps += 1
            assert seen == want_seen, budget
            assert stats.nodes_expanded == want.stats.nodes_expanded
            assert stats.structures_visited == want.stats.structures_visited
            assert stats.subsets_enumerated == want.stats.subsets_enumerated
            assert stats.tsp_star_shortcuts == 0
            assert search.next_stage == n + 1
            assert inc.value == want.best_value
            # every step but the last one spent its whole budget
            assert steps == stats.subsets_enumerated // budget


def test_interleaved_work_stays_within_twice_the_sweep():
    # equal turns: the search never enumerates more than the sweep did, so
    # the hybrid's work is at most twice the sweep's alone
    rng = random.Random(107)
    for _ in range(8):
        n = rng.randint(8, 12)
        g = make_graph(n, random_connected_edges(rng, n, extra=n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        alone = d_tsp(gm, g, pt, tsp_worker_enabled=False)
        for kind in ("none", "supersub"):
            res = d_tsp(gm, g, pt, make_tsp_bound(gm, kind))
            assert res.best_value == alone.best_value
            assert res.stats.subsets_enumerated \
                <= 2 * alone.stats.subsets_enumerated, (n, kind)


def test_interleaved_runs_are_deterministic():
    rng = random.Random(108)
    for _ in range(5):
        n = rng.randint(6, 10)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        for kind in ("none", "supersub"):
            a = d_tsp(gm, g, pt, make_tsp_bound(gm, kind))
            b = d_tsp(gm, g, pt, make_tsp_bound(gm, kind))
            assert a.stats == b.stats
            assert [v for _, v in a.trace] == [v for _, v in b.trace]
            assert a.best == b.best
