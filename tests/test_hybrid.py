import gc
import math
import random
import sys
import threading
import time

import pytest

from graphcsg import (Game, Graph, Partition, SearchStats, brute_force_best,
                      build_pseudotree, cfss, d_tsp, dype, dype_star,
                      make_supersub_game, make_tsp_bound, partition_value,
                      random_table_game, structure_masks, tsp)
from graphcsg.solvers.base import BudgetExceededError, _Incumbent
from graphcsg.solvers.dp import _Sweep
from graphcsg.solvers.dptable import DpTable
from graphcsg.solvers.treesearch import _Search

from conftest import canon, observer, random_connected_edges


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
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        check_complete_run(gm, g, d_tsp(gm, g, pt))


def test_parallel_matches_oracle():
    rng = random.Random(101)
    for _ in range(15):
        n = rng.randint(1, 8)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        check_complete_run(gm, g, d_tsp(gm, g, pt, mode="parallel"))


def test_parallel_value_is_stable_across_runs():
    # thread scheduling may vary the work counters but never the answer
    rng = random.Random(102)
    g = Graph(8, random_connected_edges(rng, 8))
    gm = random_table_game(8, seed=55)
    pt = build_pseudotree(g, 0)
    vals = {d_tsp(gm, g, pt, mode="parallel").best_value for _ in range(5)}
    assert len(vals) == 1


def test_degenerate_sizes():
    g1 = Graph(1)
    gm1 = random_table_game(1, seed=0)
    res = d_tsp(gm1, g1, build_pseudotree(g1, 0))
    assert res.best_value == gm1.value(1)
    assert res.best.blocks == (1,)
    assert res.stats.frontier_crossed

    g2 = Graph(2, [(0, 1)])
    gm2 = random_table_game(2, seed=1)
    res2 = d_tsp(gm2, g2, build_pseudotree(g2, 0))
    assert res2.best_value == max(gm2.value(3), gm2.value(1) + gm2.value(2))


def test_sweep_alone_still_terminates():
    # run alone (dype-star), the hybrid's sweep must finish by exhausting
    # its own levels
    rng = random.Random(103)
    for _ in range(10):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
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
        g = Graph(n, random_connected_edges(rng, n))
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
        g = Graph(n, random_connected_edges(rng, n))
        gm = make_supersub_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt, bound=make_tsp_bound(gm, "supersub"))
        check_complete_run(gm, g, res)


def test_deadline_keeps_incumbent_without_raising():
    for mode in ("interleaved", "parallel"):
        g = Graph(12, [(i, j) for i in range(12)
                            for j in range(i + 1, 12)])
        gm = random_table_game(12, seed=9)
        pt = build_pseudotree(g, 0)
        res = d_tsp(gm, g, pt, mode=mode, deadline=time.monotonic())
        assert not res.completed
        assert res.trace[0] == (0, gm.value(g.full_mask))
        assert res.best.covered == g.full_mask
        assert all(g.is_connected(b) for b in res.best)
        assert res.best_value == res.trace[-1][1]


def test_a_deadline_inside_a_search_step_keeps_every_prune(monkeypatch):
    """The search step counts its prunes locally and adds them to the stats
    on the way out. A bound that prunes every child and sleeps past the
    deadline at its 300th call stops a step by BudgetExceededError; the run
    must still report one prune per bound call."""
    g = Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    gm = random_table_game(12, seed=5)
    pt = build_pseudotree(g, 0)
    deadline = time.monotonic() + 1.0
    calls = 0

    def spy(partial_value, rest):
        nonlocal calls
        calls += 1
        if calls == 300:
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.001)
        return -math.inf

    raised = []
    step = _Search.step

    def watched(self, budget):
        try:
            return step(self, budget)
        except BudgetExceededError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(_Search, "step", watched)
    res = d_tsp(gm, g, pt, spy, deadline=deadline)
    assert not res.completed
    assert len(raised) == 1 and calls > 300
    assert res.stats.nodes_pruned == calls


@pytest.mark.parametrize("faulty", ["search", "sweep"])
def test_parallel_fault_in_one_worker_is_raised_after_both_stop(faulty):
    # a fault in either worker stops the other, and the driver re-raises it
    # once both have stopped; no worker thread outlives the run, also when
    # the threads switch often
    rng = random.Random(110)
    g = Graph(12, random_connected_edges(rng, 12, extra=12))
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
    g = Graph(2, [(0, 1)])
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
        g = Graph(n, random_connected_edges(rng, n))
        base = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        seen = []

        def value(m):
            seen.append(m)
            return base.value(m)

        gm = Game(n, value)
        runs = {}
        for budget in (math.inf, 1, 7):
            structures = []
            inc = _Incumbent([g.full_mask], base.value(g.full_mask), 0,
                             observer("structure", structures.append))
            del seen[:]
            stats = SearchStats()
            search = _Search(gm, g, pt, DpTable(n), inc, stats, None, None)
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


def swept_table(gm, g, pt, level):
    """A table that a sweep has published down to `level`."""
    table = DpTable(g.n)
    inc = _Incumbent([g.full_mask], gm.value(g.full_mask), 0)
    sweep = _Sweep(gm, g, pt, table, inc, SearchStats(), None)
    while table.published_level > level:
        sweep.step()
    return table


def test_search_starts_no_stage_at_or_past_the_published_level():
    # The table's published level is the search's one stop: over a table
    # published down to k the search runs stages 2..k-1 and returns False,
    # and a level published mid-stage stops it at that stage's end.
    rng = random.Random(109)
    for _ in range(12):
        n = rng.randint(2, 8)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))

        def search(table):
            inc = _Incumbent([g.full_mask], gm.value(g.full_mask), 0)
            return _Search(gm, g, pt, table, inc, SearchStats(), None, None)

        for k in range(2, n + 2):
            s = search(swept_table(gm, g, pt, k))
            assert s.step(math.inf) is False
            assert s.next_stage == k
            assert s.step(math.inf) is False and s.next_stage == k

        table = swept_table(gm, g, pt, 2)
        table.published_level = n + 1
        s = search(table)
        stage = rng.randint(2, n)
        while not (s._stack and s.next_stage == stage):
            assert s.step(1)
        table.published_level = rng.randint(2, stage)
        assert s.step(math.inf) is False
        assert s.next_stage == stage + 1
        assert not s._stack


def test_search_steps_agree_at_any_budget_with_prunes_and_shortcuts():
    # the supersub bound and a table swept down to a random level: a step
    # may end on a pruned node or a table-completed one, and stepping in
    # small budgets must still do what one unbounded step does
    rng = random.Random(112)
    pruned = shortcut = 0
    for i in range(40):
        n = rng.randint(3, 10)
        g = Graph(n, random_connected_edges(rng, n, extra=rng.randint(0, n)))
        seed = rng.randrange(10 ** 6)
        base = (random_table_game(n, seed=seed) if i % 2
                else make_supersub_game(n, seed=seed))
        pt = build_pseudotree(g, rng.randrange(n))
        table = swept_table(base, g, pt, rng.randint(2, n + 1))
        bound = make_tsp_bound(base, "supersub")
        seen = []

        def value(m):
            seen.append(m)
            return base.value(m)

        gm = Game(n, value, tolerance=base.tolerance)
        runs = {}
        for budget in (math.inf, 1, 7):
            inc = _Incumbent([g.full_mask], base.value(g.full_mask),
                             base.tolerance)
            del seen[:]
            stats = SearchStats()
            search = _Search(gm, g, pt, table, inc, stats, bound, None)
            while search.step(budget):
                pass
            runs[budget] = (list(seen), stats, inc.value, canon(inc.blocks))
        assert runs[1] == runs[math.inf]
        assert runs[7] == runs[math.inf]
        pruned += stats.nodes_pruned > 0
        shortcut += stats.tsp_star_shortcuts > 0
    # both early exits are reached on many graphs
    assert pruned >= 10 and shortcut >= 10, (pruned, shortcut)


def test_interleaved_work_stays_within_twice_the_sweep():
    # equal turns: the search never enumerates more than the sweep did, so
    # the hybrid's work is at most twice the sweep's alone
    rng = random.Random(107)
    for _ in range(8):
        n = rng.randint(8, 12)
        g = Graph(n, random_connected_edges(rng, n, extra=n))
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
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        for kind in ("none", "supersub"):
            a = d_tsp(gm, g, pt, make_tsp_bound(gm, kind))
            b = d_tsp(gm, g, pt, make_tsp_bound(gm, kind))
            assert a.stats == b.stats
            assert [v for _, v in a.trace] == [v for _, v in b.trace]
            assert a.best == b.best


@pytest.mark.parametrize("mode", ["interleaved", "parallel"])
def test_d_tsp_reports_incumbents_and_its_searchs_structures(mode):
    """The incumbent events, in order, are the trace after its first point,
    each with a partition of the graph that prices at its value, and the
    search reports each structure it visits (in parallel mode from its
    own thread)."""
    rng = random.Random(113)
    searched = 0
    for i in range(20):
        n = rng.randint(2, 9)
        g = Graph(n, random_connected_edges(rng, n, extra=rng.randint(0, n)))
        seed = rng.randrange(10 ** 6)
        gm = (random_table_game(n, seed=seed) if i % 2
              else make_supersub_game(n, seed=seed))
        events = []
        res = d_tsp(gm, g, build_pseudotree(g, rng.randrange(n)),
                    make_tsp_bound(gm, "supersub"), mode=mode,
                    on_event=lambda *event: events.append(event))
        check_complete_run(gm, g, res)
        incumbents = [e[1:] for e in events if e[0] == "incumbent"]
        assert [(t, v) for t, v, _ in incumbents] == res.trace[1:]
        for _, v, p in incumbents:
            assert p.covered == g.full_mask and partition_value(gm, p) == v
            assert all(g.is_connected(b) for b in p)
        structures = [e[1] for e in events if e[0] == "structure"]
        assert {e[0] for e in events} <= {"incumbent", "structure"}
        assert len(structures) == res.stats.structures_visited
        for s in structures:
            assert Partition(s).covered == g.full_mask
            assert all(g.is_connected(b) for b in s)
        searched += bool(structures)
    assert searched >= 5, searched


def test_tsp_and_cfss_time_their_incumbents_from_the_call():
    """Each incumbent's time lies within the call's wall time (a clock
    started at 0 would count from the monotonic clock's epoch), and the
    last one is the answer when the start did not win."""
    rng = random.Random(114)
    reported = 0
    for _ in range(20):
        n = rng.randint(2, 8)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        for solve in (lambda obs: tsp(gm, g, pt, on_event=obs),
                      lambda obs: cfss(gm, g, on_event=obs)):
            incumbents = []
            start = time.monotonic()
            res = solve(observer("incumbent",
                                 lambda *fields: incumbents.append(fields)))
            wall_us = (time.monotonic() - start) * 1_000_000
            for t, v, p in incumbents:
                assert 0 <= t <= wall_us + 1
                assert partition_value(gm, p) == v
            if incumbents:
                assert incumbents[-1][1] == res.best_value
                reported += 1
    assert reported >= 20, reported


def test_solvers_leave_no_reference_cycle():
    # with the cyclic collector off, dropping a result must free its table
    # and every worker's: nothing a run builds may refer back to itself,
    # not even the deadline error that stopped a budgeted run
    rng = random.Random(109)
    g = Graph(8, random_connected_edges(rng, 8))
    gm = random_table_game(8, seed=56)
    pt = build_pseudotree(g, 0)
    past = time.monotonic() - 1
    runs = [lambda: dype(gm, g, pt), lambda: dype_star(gm, g, pt),
            lambda: tsp(gm, g, pt), lambda: d_tsp(gm, g, pt),
            lambda: d_tsp(gm, g, pt, mode="parallel"),
            lambda: dype_star(gm, g, pt, deadline=past),
            lambda: d_tsp(gm, g, pt, deadline=past),
            lambda: d_tsp(gm, g, pt, mode="parallel", deadline=past)]

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
