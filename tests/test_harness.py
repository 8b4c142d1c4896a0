import csv
import itertools
import random
import re
import threading
import time
from dataclasses import astuple, fields

import pytest

from graphcsg import (BudgetExceededError, Game, Graph, InternalInvariantError,
                      Partition, SearchStats, UsageError, brute_force_best,
                      build_pseudotree, cfss, d_tsp, dype, dype_star,
                      gen_instance, make_cfss_bound, make_supersub_game,
                      make_tsp_bound, model_edges, partition_value,
                      random_table_game, realize_instance, run_bench,
                      solve_instance, tsp, verify_matrix)
from graphcsg import harness
from graphcsg.solvers import treesearch
from graphcsg.harness import (ALGORITHMS, ANYTIME_ALGORITHMS, BenchRow,
                              inconsistent_instances, matrix_instance,
                              matrix_seed, parse_model, write_trace_csv)

from conftest import random_connected_edges


def test_solve_instance_dispatches_every_algorithm():
    rng = random.Random(110)
    g = Graph(6, random_connected_edges(rng, 6))
    gm = random_table_game(6, seed=42)
    want = brute_force_best(gm, g).best_value
    for alg in ALGORITHMS:
        res = solve_instance(gm, g, alg)
        assert res.best_value == want, alg
        assert partition_value(gm, res.best) == want
    with pytest.raises(ValueError):
        solve_instance(gm, g, "simplex")


def two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = Graph(6, edges)
    gm = random_table_game(6, seed=13)
    return gm, g


def component_optimum(gm, g, comp):
    best = None
    from graphcsg import structure_masks
    for s in structure_masks(g, ground=comp):
        val = partition_value(gm, s)
        if best is None or val > best:
            best = val
    return best


def test_disconnected_instances_decompose():
    gm, g = two_triangles()
    want = component_optimum(gm, g, 0b000111) + \
        component_optimum(gm, g, 0b111000)
    for alg in ALGORITHMS:
        res = solve_instance(gm, g, alg)
        assert res.best_value == want, alg
        assert res.best.covered == g.full_mask
        for b in res.best:
            assert g.is_connected(b)
            assert b & 0b000111 == b or b & 0b111000 == b
        assert res.completed


def test_disconnected_anytime_trace_is_stitched():
    """Each relayed incumbent is a stitched trace point with a partition of
    the whole graph, and each relayed structure is a structure of one
    component in global masks."""
    rng = random.Random(115)
    edges = random_connected_edges(rng, 7)
    edges += [(u + 7, w + 7) for u, w in random_connected_edges(rng, 6)]
    forest = (random_table_game(13, seed=8), Graph(13, edges))
    for gm, g in (two_triangles(), forest):
        comps = g.connected_components(g.full_mask)
        for alg, bound in (("dype-star", None), ("d-tsp", None),
                           ("d-tsp", "supersub")):
            events = []
            res = solve_instance(gm, g, alg, bound=bound,
                                 on_event=lambda *event: events.append(event))
            assert res.trace[0] == (0, sum(map(gm.value, comps)))
            for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
                assert t1 >= t0 and v1 > v0
            assert res.trace[-1][1] == res.best_value
            parts = [e[1:] for e in events if e[0] == "incumbent"]
            assert [(t, v) for t, v, _ in parts] == res.trace[1:]
            # every reported incumbent is a feasible full partition
            for _, v, p in parts:
                assert isinstance(p, Partition)
                assert p.covered == g.full_mask
                assert partition_value(gm, p) == v
                assert all(g.is_connected(b) for b in p)
            structures = [e[1] for e in events if e[0] == "structure"]
            assert len(parts) + len(structures) == len(events)
            for s in structures:
                comp, = {c for c in comps for b in s if b & c}
                assert Partition(s).covered == comp
                assert all(g.is_connected(b) for b in s)
            if g.n == 13:
                assert len(res.trace) > 2
                assert bool(structures) == (alg == "d-tsp")


def _relabelled(game, g, comp):
    """A component's own Graph over agents 0..k-1 and its wrapper game,
    which reads `game` at the global mask, with the map `expand` from local
    masks back to global ones."""
    agents = [a for a in range(g.n) if comp >> a & 1]
    index = {a: i for i, a in enumerate(agents)}
    lg = Graph(len(agents), [(index[u], index[w]) for u, w in g.edges
                             if comp >> u & 1])

    def expand(m):
        return sum(1 << a for i, a in enumerate(agents) if m >> i & 1)

    def local(f):  # an absent part of the split stays None
        return None if f is None else lambda m: f(expand(m))

    lgame = Game(len(agents), local(game.value),
                 sup_value=local(game.sup_value),
                 sub_value=local(game.sub_value), tolerance=game.tolerance)
    return lgame, lg, index, expand


def _solve_relabelled(game, g, alg, bound, root):
    """solve_instance's value, blocks, stats and trace values, computed by
    solving each component relabelled into its own graph and game."""
    comps = g.connected_components(g.full_mask)
    inits = list(map(game.value, comps))
    values = [sum(inits)] if alg in ANYTIME_ALGORITHMS else []
    blocks, total, stats = [], 0, SearchStats()
    for k, comp in enumerate(comps):
        lgame, lg, index, expand = _relabelled(game, g, comp)
        res = harness._solve_connected(lgame, lg, alg, bound=bound,
                                       root=index.get(root, 0))
        baseline = total + sum(inits[k + 1:])
        values += [baseline + v for _, v in res.trace[1:]]
        blocks += map(expand, res.best.blocks)
        total += res.best_value
        stats = stats.merged_with(res.stats)
    return total, Partition(blocks), astuple(stats), values


def test_component_views_solve_as_relabelled_components():
    # random forests of 2-3 components with interleaved agent labels, so a
    # view's agents are not a prefix of the graph's
    rng = random.Random(126)
    for case in range(16):
        k = rng.choice((2, 3))
        sizes = [rng.randint(1, 12 // k) for _ in range(k)]
        n = sum(sizes)
        labels = rng.sample(range(n), n)
        edges = []
        for size in sizes:
            part, labels = labels[:size], labels[size:]
            edges += [(part[u], part[w])
                      for u, w in random_connected_edges(rng, size)]
        g = Graph(n, edges)
        assert len(g.connected_components(g.full_mask)) == k
        root = rng.choice([None, *range(n)])
        for game in (random_table_game(n, seed=case),
                     make_supersub_game(n, seed=case)):
            for alg, bound, mode in budget_configurations():
                if mode == "parallel":
                    continue
                res = solve_instance(game, g, alg, bound=bound, root=root)
                got = (res.best_value, res.best, astuple(res.stats),
                       [v for _, v in res.trace])
                assert got == _solve_relabelled(game, g, alg, bound, root), \
                    (case, alg, bound, root)
                assert res.completed


@pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
def test_a_nan_or_negative_budget_is_refused(budget):
    """No deadline check ever fires on NaN, so it would run unbudgeted."""
    gm, g = two_triangles()
    with pytest.raises(ValueError, match="budget"):
        solve_instance(gm, g, "dype", budget_ms=budget)
    with pytest.raises(ValueError, match="budget"):
        run_bench([("tri", gm, g, None)], ["dype"], budget_ms=budget)


def test_budget_zero_behaviour():
    gm, g = two_triangles()
    with pytest.raises(BudgetExceededError):
        solve_instance(gm, g, "dype", budget_ms=0)
    res = solve_instance(gm, g, "dype-star", budget_ms=0)
    assert not res.completed
    assert res.best_value == res.trace[-1][1]
    assert res.best.covered == g.full_mask


# A run given a 1 ms budget must return within this much more. The worst
# overshoot measured on the two games below is about 11 ms (cfss with the
# supersub bound, 2-core VM), and every configuration takes 600 ms or more
# without a budget there, so a lost deadline check shows.
BUDGET_SLACK_MS = 100


def budget_configurations():
    for alg in ALGORITHMS:
        bounds = ("none", "supersub") if alg in ("tsp", "d-tsp", "cfss") \
            else ("none",)
        modes = ("interleaved", "parallel") if alg == "d-tsp" \
            else ("interleaved",)
        for bound in bounds:
            for mode in modes:
                yield alg, bound, mode


@pytest.mark.parametrize("kind", ["table", "supersub"])
def test_every_budgeted_configuration_returns_near_its_budget(kind):
    if kind == "table":  # hybrid-anytime-sized, past the oracle's cap
        n, game = 14, random_table_game(14, seed=0)
        g = Graph(n, model_edges("gnp", n, p=0.7,
                                 rng=random.Random(0)))
    else:
        n, game = 18, make_supersub_game(18, seed=0)
        g = Graph(n, model_edges("gnp", n, p=0.15,
                                 rng=random.Random(0)))
    for alg, bound, mode in budget_configurations():
        if alg == "oracle":  # refused up front at this size
            with pytest.raises(ValueError, match="capped"):
                solve_instance(game, g, alg, budget_ms=1)
            continue
        start = time.monotonic()
        try:
            res = solve_instance(game, g, alg, bound=bound, mode=mode,
                                 budget_ms=1)
            assert not res.completed, (alg, bound, mode)
        except BudgetExceededError:
            assert alg not in ANYTIME_ALGORITHMS
        spent_ms = (time.monotonic() - start) * 1000
        assert spent_ms <= 1 + BUDGET_SLACK_MS, (alg, bound, mode, spent_ms)


def test_every_budgeted_configuration_stops_in_each_component():
    # Each solver honours a passed deadline itself, from its first unit of
    # work: at 0 ms every component is left unsolved, and at 1 ms the
    # second is, since the first takes longer (`dype`, the fastest here,
    # takes about 18 ms on one K12 unbudgeted).
    k12 = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    g = Graph(24, k12 + [(u + 12, w + 12) for u, w in k12])
    game = make_supersub_game(24, seed=0)
    comps = g.connected_components(g.full_mask)
    start = sum(map(game.value, comps))
    threads = set(threading.enumerate())
    for budget, unsolved in ((0, comps), (1, comps[1:])):
        for alg, bound, mode in budget_configurations():
            t0 = time.monotonic()
            try:
                res = solve_instance(game, g, alg, bound=bound, mode=mode,
                                     budget_ms=budget)
            except BudgetExceededError:
                assert alg not in ANYTIME_ALGORITHMS, (alg, budget)
            else:
                assert alg in ANYTIME_ALGORITHMS, (alg, budget)
                assert not res.completed, (alg, mode, budget)
                assert res.trace[0] == (0, start), (alg, mode, budget)
                assert set(unsolved) <= set(res.best.blocks), (alg, mode)
            spent_ms = (time.monotonic() - t0) * 1000
            assert spent_ms <= budget + BUDGET_SLACK_MS, \
                (alg, bound, mode, budget, spent_ms)
            assert set(threading.enumerate()) == threads, (alg, mode)


def test_a_dense_twenty_agent_sweep_stops_near_a_short_budget():
    # DpTable has no size guard: a complete graph's table grows as about
    # 2^n entries, its fill time as about 3^n, so a budget binds before
    # memory does (README)
    n = 20
    game = random_table_game(n, seed=0)
    g = Graph(n, itertools.combinations(range(n), 2))
    for alg, mode in (("dype", "interleaved"), ("dype-star", "interleaved"),
                      ("d-tsp", "interleaved"), ("d-tsp", "parallel")):
        start = time.monotonic()
        try:
            res = solve_instance(game, g, alg, mode=mode, budget_ms=50)
            assert not res.completed, (alg, mode)
        except BudgetExceededError:
            assert alg == "dype"
        spent_ms = (time.monotonic() - start) * 1000
        assert spent_ms <= 50 + BUDGET_SLACK_MS, (alg, mode, spent_ms)


def test_budgeted_oracle_returns_near_its_budget():
    # the case above is past the oracle's cap; n = 12 is at it. A full scan
    # of this game visits 53,902 structures in about 300 ms (2-core VM)
    game, g, _ = realize_instance(gen_instance("gnp", 12, game_kind="table",
                                               seed=0, p=0.3))
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        solve_instance(game, g, "oracle", budget_ms=1)
    spent_ms = (time.monotonic() - start) * 1000
    assert spent_ms <= 1 + BUDGET_SLACK_MS, spent_ms


def test_root_is_respected_per_component():
    gm, g = two_triangles()
    want = solve_instance(gm, g, "dype").best_value
    for root in range(6):
        assert solve_instance(gm, g, "dype", root=root).best_value == want


def _solve_directly(game, view, alg, bound, mode, root, on_event):
    """`alg`'s solver called on a connected view as `_solve_connected`
    calls it (the same pseudotree root and bound closure), with `on_event`
    where the solver takes one."""
    pt = build_pseudotree(view, root)
    if alg == "oracle":
        return brute_force_best(game, view)
    if alg == "dype":
        return dype(game, view, pt)
    if alg == "cfss":
        return cfss(game, view, make_cfss_bound(game, bound),
                    on_event=on_event)
    if alg == "tsp":
        return tsp(game, view, pt, make_tsp_bound(game, bound),
                   on_event=on_event)
    if alg == "dype-star":
        return dype_star(game, view, pt, on_event=on_event)
    return d_tsp(game, view, pt, make_tsp_bound(game, bound), mode=mode,
                 on_event=on_event)


def _timeless(events):
    """Events without their times: (kind, value, blocks) for an incumbent,
    (kind, blocks) for a structure."""
    return [(kind, f[1], f[2].blocks) if kind == "incumbent" else (kind, *f)
            for kind, *f in events]


def contract_inputs():
    """A connected table game, a connected supersub game, and a 4-path
    plus a 5-cycle (as in tests/test_golden.py) under both game kinds."""
    rng = random.Random(128)
    two_parts = Graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                          (4, 8), (7, 8)])
    return [(random_table_game(7, seed=1), Graph(7, random_connected_edges(
                rng, 7))),
            (make_supersub_game(9, kappa=4, seed=2), Graph(
                9, random_connected_edges(rng, 9))),
            (random_table_game(9, seed=6), two_parts),
            (make_supersub_game(9, kappa=4, seed=6), two_parts)]


def test_solve_instance_reports_what_each_solver_reports_directly():
    """Every solver that takes `on_event` reports through `solve_instance`
    what it reports called directly on each component: the same events on
    a connected graph, and on two components each structure and each
    incumbent that beats its component as one block, the latter as a
    partition of every agent at a strictly rising whole-graph value."""
    for game, g in contract_inputs():
        comps = g.connected_components(g.full_mask)
        inits = list(map(game.value, comps))
        for alg, bound, mode in budget_configurations():
            where = (g.n, len(comps), alg, bound, mode)
            events = []
            res = solve_instance(game, g, alg, bound=bound, mode=mode,
                                 on_event=lambda *e: events.append(e))
            direct, values, total = [], [], 0
            for k, comp in enumerate(comps):
                run = []
                alone = _solve_directly(
                    game, g.component(comp), alg, bound, mode,
                    (comp & -comp).bit_length() - 1,
                    lambda *e: run.append(e))
                baseline = total + sum(inits[k + 1:])
                values += [baseline + f[1] for kind, *f in run
                           if kind == "incumbent" and f[1] > inits[k]]
                direct += run
                total += alone.best_value
            assert total == res.best_value, where
            if alg in ("oracle", "dype"):
                assert events == direct == [], where
                continue
            assert direct, where
            # Thread timing decides a parallel run's events.
            if len(comps) == 1 and mode != "parallel":
                assert _timeless(events) == _timeless(direct), where
                continue
            if mode != "parallel":
                assert [e for e in events if e[0] == "structure"] \
                    == [e for e in direct if e[0] == "structure"], where
                assert [e[2] for e in events if e[0] == "incumbent"] \
                    == values, where
            incumbents = [f for kind, *f in events if kind == "incumbent"]
            for _, v, p in incumbents:
                assert p.covered == g.full_mask, where
                assert partition_value(game, p) == v, where
                assert all(g.is_connected(b) for b in p), where
            rising = [v for _, v, _ in incumbents]
            assert all(a < b for a, b in zip(rising, rising[1:])), where
            if alg in ANYTIME_ALGORITHMS:
                assert [(t, v) for t, v, _ in incumbents] \
                    == res.trace[1:], where
            for kind, *f in events:
                if kind == "structure":
                    assert Partition(*f).covered in comps, where


def four_agents(connected):
    return Graph(4, [(0, 1), (2, 3)] + [(1, 2)] * connected)


@pytest.mark.parametrize("root", [99, 4, -1])
@pytest.mark.parametrize("connected", [True, False])
def test_solve_instance_refuses_a_root_outside_the_graph(root, connected):
    g = four_agents(connected)
    gm = random_table_game(4, seed=5)
    for alg in ALGORITHMS:
        with pytest.raises(ValueError,
                           match=f"root {root} out of range for n=4"):
            solve_instance(gm, g, alg, root=root)


@pytest.mark.parametrize("game_n", [3, 5])
@pytest.mark.parametrize("connected", [True, False])
def test_solve_instance_refuses_a_game_over_other_agents(game_n, connected):
    g = four_agents(connected)
    gm = random_table_game(game_n, seed=5)
    for alg in ALGORITHMS:
        with pytest.raises(ValueError,
                           match=f"the game has {game_n} agents, the graph 4"):
            solve_instance(gm, g, alg)


def test_parse_model():
    assert parse_model("path") == ("path", None)
    assert parse_model("gnp") == ("gnp", 0.5)
    assert parse_model("gnp:0.2") == ("gnp", 0.2)
    with pytest.raises(ValueError):
        parse_model("path:0.2")
    for bad in ("gnp:x", "foo", "gnp:1.5", "gnp:nan", ""):
        with pytest.raises(ValueError):
            parse_model(bad)


def test_matrix_instance_is_reproducible():
    seed = matrix_seed(0, 1, 6, 3)
    a_gm, a_g = matrix_instance("gnp:0.5", 6, seed)
    b_gm, b_g = matrix_instance("gnp:0.5", 6, seed)
    assert a_g.edges == b_g.edges
    for m in range(1 << 6):
        assert a_gm.value(m) == b_gm.value(m)
    assert matrix_seed(0, 1, 6, 3) != matrix_seed(0, 1, 6, 4)


def test_matrix_seed_refuses_a_field_that_would_share_a_seed():
    # every field keeps its own digits: the largest grid seeds stay as
    # they were, and one step past a field's range raises instead of
    # landing on another cell's seed
    assert matrix_seed(0, 0, 5, 0) == 5000
    assert matrix_seed(2, 9, 99, 999) == 2_999_999
    assert matrix_seed(-1, 0, 0, 0) == -1_000_000
    for fields_ in ((0, 0, 4, 1000), (0, 10, 4, 0), (0, 0, 100, 0),
                    (0, -1, 4, 0), (0, 0, -1, 0), (0, 0, 4, -1)):
        with pytest.raises(ValueError, match="at most 10 models"):
            matrix_seed(*fields_)


def test_verify_matrix_small_grid_passes():
    rep = verify_matrix(models=("path", "gnp:0.5"), ns=range(1, 5),
                        games_per_cell=3)
    assert rep.ok, rep.failure_lines()
    assert rep.instances == 2 * 4 * 3
    assert rep.runs == rep.instances * 8
    assert "pass" in rep.summary()


def _lying_bound(game, kind):
    return lambda partial, rem: partial  # ignores the remainder's worth


def test_verify_matrix_catches_a_lying_bound(monkeypatch):
    # an inadmissible bound makes the pruning search miss optima; the
    # harness must notice and name the seed
    monkeypatch.setattr(harness, "make_tsp_bound", _lying_bound)
    rep = verify_matrix(models=("complete",), ns=range(4, 7),
                        games_per_cell=4, algorithms=("tsp",))
    assert not rep.ok
    assert len(rep.value_mismatches) > 0
    assert any("seed" in line for line in rep.failure_lines())
    assert rep.summary().startswith("FAIL")


def test_a_reported_cell_rebuilds_from_its_line(monkeypatch):
    # the n and seed a failure line names rebuild the very cell that
    # failed, whatever the model's place in the grid
    solved = set()

    def recording(game, kind):
        solved.add(tuple(map(game.value, range(1 << game.n))))
        return _lying_bound(game, kind)

    monkeypatch.setattr(harness, "make_tsp_bound", recording)
    rep = verify_matrix(models=("cycle",), ns=range(4, 8),
                        games_per_cell=4, algorithms=("tsp",))
    assert rep.value_mismatches
    for line in rep.value_mismatches:
        found = re.search(r"/n=(\d+)/.* \(seed (\d+)\).* oracle (-?\d+)$",
                          line)
        n, seed, optimum = map(int, found.groups())
        gm, g = matrix_instance("cycle", n, seed)
        assert tuple(map(gm.value, range(1 << n))) in solved
        assert g.edges == Graph(n, model_edges("cycle", n)).edges
        assert brute_force_best(gm, g).best_value == optimum


def test_verify_matrix_reports_faults_with_seeds_and_goes_on(monkeypatch):
    # a table miss in the hybrid's search is a fault: each failing run is
    # a failure line naming it and its seed, and every other run still runs
    def miss(table, game, g, rest, partial_value, incumbent_value):
        raise InternalInvariantError(f"missing table entry for mask {rest}")

    monkeypatch.setattr(treesearch, "tsp_star_step", miss)
    rep = verify_matrix(models=("cycle", "gnp:0.5"), ns=range(3, 6),
                        games_per_cell=2)
    assert rep.runs == rep.instances * 8
    assert rep.faults
    assert len(rep.faults) <= rep.instances * 3  # the three d-tsp rows
    for line in rep.faults:
        assert " (seed " in line and " d-tsp" in line
        assert "missing table entry for mask" in line
    assert not rep.ok
    assert set(rep.faults) <= set(rep.failure_lines())
    assert rep.summary().startswith("FAIL")


def test_search_stats_merge_sums_every_counter():
    # each counter is summed and frontier_crossed is OR-ed; neither operand
    # changes
    names = [f.name for f in fields(SearchStats)]
    assert names[-1] == "frontier_crossed"
    a = SearchStats(*range(1, len(names)))
    b = SearchStats(*range(10, 10 * len(names), 10), frontier_crossed=True)
    merged = a.merged_with(b)
    for f in names[:-1]:
        assert getattr(merged, f) == getattr(a, f) + getattr(b, f), f
    assert merged.frontier_crossed is True
    assert a.merged_with(a).frontier_crossed is False
    assert a == SearchStats(*range(1, len(names)))
    assert b == SearchStats(*range(10, 10 * len(names), 10),
                            frontier_crossed=True)


def test_write_trace_csv_keeps_timestamps_strict(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, [(0, 5), (10, 7), (10, 9), (10, 11), (20, 12)])
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    ts = [int(r["timestamp_us"]) for r in rows]
    vals = [int(r["value"]) for r in rows]
    assert vals == [5, 7, 9, 11, 12]
    assert ts == sorted(set(ts)), ts  # strictly increasing after bumping
    assert ts[0] == 0


def test_run_bench_writes_report_and_traces(tmp_path):
    rng = random.Random(111)
    g = Graph(5, random_connected_edges(rng, 5))
    gm = random_table_game(5, seed=77)
    rows = run_bench([("tiny", gm, g, None)],
                     ["dype", "dype-star", "d-tsp"],
                     repetitions=2, out_dir=tmp_path)
    assert len(rows) == 6
    assert all(r.status == "ok" for r in rows)
    vals = {r.value for r in rows}
    assert len(vals) == 1
    assert (tmp_path / "report.csv").exists()
    for alg in ("dype-star", "d-tsp"):
        for rep in range(2):
            assert (tmp_path / f"tiny.{alg}.r{rep}.trace.csv").exists()
    assert not (tmp_path / "tiny.dype.r0.trace.csv").exists()
    with open(tmp_path / "report.csv", newline="") as f:
        got = list(csv.DictReader(f))
    assert len(got) == 6
    assert {r["status"] for r in got} == {"ok"}
    assert inconsistent_instances(rows) == []


def test_run_bench_budget_statuses(tmp_path):
    g = Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    gm = random_table_game(12, seed=5)
    rows = run_bench([("big", gm, g, None)], ["dype", "d-tsp"],
                     budget_ms=0, out_dir=tmp_path)
    by_alg = {r.algorithm: r for r in rows}
    assert by_alg["dype"].status == "incomplete"
    assert by_alg["dype"].value is None
    assert by_alg["d-tsp"].status == "timeout"
    assert by_alg["d-tsp"].value is not None
    with open(tmp_path / "report.csv", newline="") as f:
        got = {r["algorithm"]: r for r in csv.DictReader(f)}
    assert got["dype"]["value"] == ""


def test_inconsistent_instances_flags_disagreement():
    mk = lambda alg, val: BenchRow(
        instance="x", algorithm=alg, rep=0, status="ok", value=val,
        wall_ms=1.0, subsets_enumerated=0, dp_entries=0, nodes_expanded=0,
        nodes_pruned=0)
    rows = [mk("dype", 10), mk("tsp", 10)]
    assert inconsistent_instances(rows) == []
    rows.append(mk("cfss", 11))
    assert inconsistent_instances(rows) == ["x"]
    # runs that produced no value are not part of the vote
    rows[2] = BenchRow(instance="x", algorithm="cfss", rep=0,
                       status="incomplete", value=None, wall_ms=1.0,
                       subsets_enumerated=0, dp_entries=0, nodes_expanded=0,
                       nodes_pruned=0)
    assert inconsistent_instances(rows) == []


def test_solve_instance_results_hold_no_table():
    rng = random.Random(112)
    g = Graph(6, random_connected_edges(rng, 6))
    gm = random_table_game(6, seed=43)
    split_gm, split_g = two_triangles()
    for alg in ("dype", "dype-star", "d-tsp"):
        assert solve_instance(gm, g, alg).table is None, alg
        assert solve_instance(split_gm, split_g, alg).table is None, alg


def test_run_bench_refuses_repeated_names_before_any_run(tmp_path,
                                                         monkeypatch):
    # rows and trace files are named by instance: two instances named x
    # would share x.d-tsp.r0.trace.csv and read as a value disagreement
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    g = four_agents(True)
    game1, game2 = (random_table_game(4, seed=s) for s in (1, 2))
    out_dir = tmp_path / "bo"
    with pytest.raises(ValueError, match="repeated instance stems: x$"):
        run_bench([("x", game1, g, None), ("y", game2, g, None),
                   ("x", game2, g, None)], ("dype", "d-tsp"),
                  out_dir=out_dir)
    assert not out_dir.exists() and solved == []


@pytest.mark.parametrize("named,algorithms,repetitions", [
    (True, ("dype",), 0),
    (True, ("dype",), -1),
    (True, (), 1),
    (False, ("dype",), 1),
])
def test_run_bench_with_no_run_is_refused_before_any_write(
        tmp_path, monkeypatch, named, algorithms, repetitions):
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    cases = [("tiny", random_table_game(4, seed=3), four_agents(True),
              None)] * named
    out_dir = tmp_path / "bo"
    with pytest.raises(ValueError, match="no run"):
        run_bench(cases, algorithms, repetitions=repetitions,
                  out_dir=out_dir)
    assert not out_dir.exists() and solved == []


@pytest.mark.parametrize("kwargs,message", [
    (dict(algorithms=("dyp",)), "unknown algorithms: dyp"),
    (dict(algorithms=("oracle", "dype")), "unknown algorithms: oracle"),
    (dict(games_per_cell=0), "no solver run"),
    (dict(algorithms=()), "no solver run"),
    (dict(models=()), "no solver run"),
    (dict(ns=range(3, 3)), "no solver run"),
])
def test_verify_matrix_refuses_unknown_algorithms_and_empty_grids(
        monkeypatch, kwargs, message):
    built = []
    monkeypatch.setattr(harness, "matrix_instance",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError, match=message):
        verify_matrix(**kwargs)
    assert built == []


@pytest.mark.parametrize("algorithms,mode,message", [
    (("dype-star", "dyp"), "interleaved", "unknown algorithms: dyp$"),
    (("tsp", "dyp", "cfs"), "interleaved", "unknown algorithms: cfs, dyp$"),
    (("dype", "d-tsp"), "paralel", "unknown mode 'paralel'"),
])
def test_run_bench_refuses_unknown_names_before_any_write(
        tmp_path, monkeypatch, algorithms, mode, message):
    # the names are checked before the directory or any cell: a late
    # refusal would leave the earlier cells' trace files behind
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    cases = [("x", random_table_game(4, seed=3), four_agents(True), None)]
    out_dir = tmp_path / "bo"
    with pytest.raises(ValueError, match=message):
        run_bench(cases, algorithms, mode=mode, out_dir=out_dir)
    assert not out_dir.exists() and solved == []


def test_verify_matrix_parses_every_model_spec_before_the_first_cell():
    lines = []
    with pytest.raises(ValueError, match="bad model spec 'foo'"):
        verify_matrix(models=("path", "foo"), ns=range(1, 3),
                      games_per_cell=1, progress=lines.append)
    assert lines == []


@pytest.mark.parametrize("settings,message", [
    (dict(bound="foo"), "unknown bound kind 'foo'"),
    (dict(bound="supersub", mode="foo"), "unknown mode 'foo'"),
])
@pytest.mark.parametrize("connected", [True, False])
def test_solve_instance_refuses_unknown_settings_for_every_algorithm(
        monkeypatch, settings, message, connected):
    solved = []
    monkeypatch.setattr(harness, "_solve_connected",
                        lambda *args, **kwargs: solved.append(args))
    g = four_agents(connected)
    gm = random_table_game(4, seed=5)
    for alg in ALGORITHMS:
        with pytest.raises(ValueError, match=message):
            solve_instance(gm, g, alg, **settings)
    assert solved == []


def test_run_bench_refuses_a_bad_bound_and_the_oracle_past_its_cap(
        tmp_path, monkeypatch):
    # both were refused only at the cell that used them, after the earlier
    # cells had run and the directory was made
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    g = four_agents(True)
    small = [("x", random_table_game(4, seed=3), g, None)]
    out_dir = tmp_path / "bo"
    with pytest.raises(ValueError, match="unknown bound kind 'foo'"):
        run_bench(small, ("dype", "tsp"), bound="foo", out_dir=out_dir)
    assert not out_dir.exists() and solved == []
    big = [("big", make_supersub_game(13, seed=1),
            Graph(13, model_edges("path", 13)), None)]
    with pytest.raises(ValueError, match="capped at components of n <= 12"):
        run_bench(big, ("dype", "oracle"), out_dir=out_dir)
    assert not out_dir.exists() and solved == []


@pytest.mark.parametrize("grid,message", [
    # the path cell at n = 13 would take its optimum past the oracle's cap
    (dict(models=("path", "gnp"), ns=range(12, 14)), "1..12"),
    (dict(models=("gnp:0",), ns=range(1, 3)), "gnp:0 has no connected"),
])
def test_verify_matrix_refuses_what_the_cli_refuses_before_the_first_cell(
        grid, message):
    lines = []
    with pytest.raises(ValueError, match=message):
        verify_matrix(**grid, games_per_cell=1, algorithms=("dype",),
                      progress=lines.append)
    assert lines == []


def test_verify_matrix_runs_every_model_over_an_iterator_of_ns():
    # the n range is read once per model, so a one-pass iterator ran only
    # the first model's cells
    report = verify_matrix(models=("path", "cycle"), ns=iter(range(1, 3)),
                           games_per_cell=1, algorithms=("dype",))
    assert report.ok and report.instances == 4


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("connected", [True, False])
def test_solve_instance_refuses_an_unknown_algorithm_before_any_build(
        monkeypatch, budget, connected):
    # a disconnected graph built every component's view first, and a
    # zero budget then ran out with components left to solve
    built = []
    monkeypatch.setattr(Graph, "component",
                        lambda *args: built.append(args))
    monkeypatch.setattr(harness, "_solve_connected",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(UsageError, match="unknown algorithms: dyp$"):
        solve_instance(random_table_game(4, seed=1), four_agents(connected),
                       "dyp", budget_ms=budget)
    assert built == []


def test_solve_instance_refuses_the_oracle_past_its_cap_before_any_solve(
        monkeypatch):
    # the 3-agent component was solved before the 13-agent one was refused
    solved = []
    monkeypatch.setattr(harness, "_solve_connected",
                        lambda *args, **kwargs: solved.append(args))
    edges = [(0, 1), (1, 2)] + [(i, i + 1) for i in range(3, 15)]
    with pytest.raises(ValueError) as err:
        solve_instance(make_supersub_game(16, seed=1), Graph(16, edges),
                       "oracle")
    assert str(err.value) == ("the oracle is capped at components of "
                              "n <= 12, got n = 13")
    assert type(err.value) is ValueError  # an instance error, not usage
    assert solved == []


def _disconnected_block(res, game):
    # {0, 2} is no block on the path 0-1-2
    res.best = Partition([0b101, 0b010])
    res.best_value = partition_value(game, res.best)


def _bump_a_table_entry(res, game):
    mask = next(iter(res.table.values))
    res.table.values[mask] += 1


def _falling_trace(res, game):
    t, v = res.trace[0]
    res.trace.insert(1, (t, v - 1))


def _uncrossed(res, game):
    res.stats.frontier_crossed = False


def _low_start(res, game):
    t, v = res.trace[0]
    res.trace[0] = (t, v - 1)


def _overshooting_end(res, game):
    t, v = res.trace[-1]
    res.trace.append((t, v + 1))


@pytest.mark.parametrize("row,corrupt,failures", [
    (("dype", None, None), _disconnected_block, "feasibility_failures"),
    (("dype", None, None), _bump_a_table_entry, "audit_failures"),
    (("dype-star", None, None), _falling_trace, "trace_violations"),
    (("d-tsp", None, "parallel"), _uncrossed, "crossing_failures"),
    (("dype-star", None, None), _low_start, "trace_violations"),
    (("d-tsp", None, "interleaved"), _overshooting_end, "trace_violations"),
    (("d-tsp", None, "interleaved"), _bump_a_table_entry, "audit_failures"),
])
def test_verify_matrix_reports_each_broken_check_in_its_own_list(
        monkeypatch, row, corrupt, failures):
    real = harness._solve_connected

    def corrupting(game, g, alg, *, bound, mode):
        res = real(game, g, alg, bound=bound, mode=mode)
        if (alg, bound, mode) == row:
            corrupt(res, game)
        return res

    monkeypatch.setattr(harness, "_solve_connected", corrupting)
    report = verify_matrix(models=("path",), ns=(3,), games_per_cell=1)
    seed = matrix_seed(0, 0, 3, 0)
    line, = getattr(report, failures)
    assert f"(seed {seed}) {row[0]}" in line
    assert not report.ok
    for other in ("feasibility_failures", "audit_failures",
                  "trace_violations", "crossing_failures", "faults"):
        assert other == failures or getattr(report, other) == [], other
