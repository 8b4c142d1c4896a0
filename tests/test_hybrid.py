import gc
import math
import random
import sys
import threading
import time

import pytest

from graphcsg import (Game, SearchStats, brute_force_best, build_pseudotree,
                      d_tsp, dype, dype_star, make_graph, make_supersub_game,
                      make_tsp_bound, partition_value, random_table_game,
                      structure_masks, tsp)
from graphcsg.solvers.base import _Incumbent
from graphcsg.solvers.dptable import DpTable
from graphcsg.solvers.treesearch import _Search

from conftest import canon, random_connected_edges


def check_anytime_run(gm, g, res):
    want = brute_force_best(gm, g).best_value
    assert res.best_value == want
    assert partition_value(gm, res.best) == want
    assert res.best.covered == g.full_mask
    assert all(g.is_connected(b) for b in res.best)
    assert res.completed
    assert res.stats.tsp_star_fallbacks == 0
    assert res.trace[0] == (0, gm.value(g.full_mask))
    for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
        assert t1 >= t0 and v1 > v0
    assert res.trace[-1][1] == want


def check_complete_run(gm, g, res):
    check_anytime_run(gm, g, res)
    assert res.stats.frontier_crossed


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
    # run alone (dype-star), the hybrid's sweep must finish by exhausting
    # its own levels
    rng = random.Random(103)
    for _ in range(10):
        n = rng.randint(1, 7)
        g = make_graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        res = dype_star(gm, g, pt)
        check_anytime_run(gm, g, res)
        assert res.table.published_level == 2
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


@pytest.mark.parametrize("faulty", ["search", "sweep"])
def test_parallel_fault_in_one_worker_is_raised_after_both_stop(faulty):
    # a fault in either worker stops the other, and the driver re-raises it
    # once both have stopped; no worker thread outlives the run, also when
    # the threads switch often
    rng = random.Random(110)
    g = make_graph(12, random_connected_edges(rng, 12, extra=12))
    base = random_table_game(12, seed=57)
    pt = build_pseudotree(g, 0)
    main = threading.main_thread()
    calls = 0

    def value(m):
        nonlocal calls
        here = threading.current_thread()
        if here is not main:
            assert here.name == "block-search"
            if faulty == "search":
                raise ZeroDivisionError("value fault in the search")
        else:
            calls += 1
            # the first call prices the one-block incumbent, before the
            # workers start
            if faulty == "sweep" and calls > 1:
                raise ZeroDivisionError("value fault in the sweep")
        return base.value(m)

    gm = Game(12, value)
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            calls = 0
            with pytest.raises(ZeroDivisionError, match=f"in the {faulty}"):
                d_tsp(gm, g, pt, mode="parallel")
            assert set(threading.enumerate()) == before
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.name == "block-search" for t in threading.enumerate())


def test_unknown_mode_rejected():
    g = make_graph(2, [(0, 1)])
    gm = random_table_game(2, seed=0)
    pt = build_pseudotree(g, 0)
    with pytest.raises(ValueError):
        d_tsp(gm, g, pt, mode="sequential")


def test_search_steps_walk_the_tsp_tree_at_any_budget():
    # bound=None and an empty table: no prune and no shortcut, so stepping
    # the resumable search in small budgets must do exactly what one
    # unbounded step (tsp's walk) does, value calls in the same order, and
    # reach every structure but the one-block incumbent exactly once
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
        runs = {}
        for budget in (math.inf, 1, 7):
            inc = _Incumbent([g.full_mask], base.value(g.full_mask), 0, 0)
            del seen[:]
            stats = SearchStats()
            structures = []
            search = _Search(gm, g, pt, DpTable(n), inc, stats, None, None,
                             structures.append)
            steps = 0
            while search.step(budget):
                steps += 1
            assert search.next_stage == n + 1
            assert stats.tsp_star_shortcuts == 0
            # every step but the last one spent its whole budget
            assert steps == stats.subsets_enumerated // budget
            runs[budget] = (list(seen), stats, structures, inc.value)
        assert runs[1] == runs[math.inf]
        assert runs[7] == runs[math.inf]
        _, stats, structures, best = runs[math.inf]
        assert tsp(base, g, pt).stats == stats
        assert stats.structures_visited == len(structures)
        visited = [canon(s) for s in structures] + [canon([g.full_mask])]
        assert len(visited) == len(set(visited))
        assert set(visited) == {canon(s) for s in structure_masks(g)}
        assert best == brute_force_best(base, g).best_value


def test_interleaved_work_stays_within_twice_the_sweep():
    # equal turns: the search never enumerates more than the sweep did, so
    # the hybrid's work is at most twice the sweep's alone
    rng = random.Random(107)
    for _ in range(8):
        n = rng.randint(8, 12)
        g = make_graph(n, random_connected_edges(rng, n, extra=n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        alone = dype_star(gm, g, pt)
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


def test_solvers_leave_no_reference_cycle():
    # with the cyclic collector off, dropping a result must free its table
    # and every worker's: nothing a run builds may refer back to itself
    rng = random.Random(109)
    g = make_graph(8, random_connected_edges(rng, 8))
    gm = random_table_game(8, seed=56)
    pt = build_pseudotree(g, 0)
    runs = [lambda: dype(gm, g, pt), lambda: dype_star(gm, g, pt),
            lambda: tsp(gm, g, pt), lambda: d_tsp(gm, g, pt),
            lambda: d_tsp(gm, g, pt, mode="parallel")]

    def live_tables():
        return sum(isinstance(o, DpTable) for o in gc.get_objects())

    gc.collect()
    before = live_tables()
    gc.disable()
    try:
        for run in runs:
            res = run()
            del res
            assert live_tables() == before
    finally:
        gc.enable()
