import csv
import random
from dataclasses import fields

import pytest

from graphcsg import (BudgetExceededError, Game, InternalInvariantError,
                      Partition, SearchStats, brute_force_best, make_graph,
                      make_supersub_game, partition_value, random_table_game,
                      run_bench, solve_instance, verify_matrix)
from graphcsg.solvers import treesearch
from graphcsg.harness import (ALGORITHMS, ANYTIME_ALGORITHMS, BenchRow,
                              inconsistent_instances, matrix_instance,
                              matrix_seed, parse_model, write_trace_csv)

from conftest import random_connected_edges


def test_solve_instance_dispatches_every_algorithm():
    rng = random.Random(110)
    g = make_graph(6, random_connected_edges(rng, 6))
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
    g = make_graph(6, edges)
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
    gm, g = two_triangles()
    init = gm.value(0b000111) + gm.value(0b111000)
    for alg in ANYTIME_ALGORITHMS:
        parts = []
        res = solve_instance(
            gm, g, alg,
            on_incumbent=lambda t, v, p: parts.append((v, p)))
        assert res.trace[0] == (0, init)
        for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
            assert t1 >= t0 and v1 > v0
        assert res.trace[-1][1] == res.best_value
        # every reported incumbent is a feasible full partition
        for v, p in parts:
            assert isinstance(p, Partition)
            assert p.covered == g.full_mask
            assert partition_value(gm, p) == v


def test_budget_zero_behaviour():
    gm, g = two_triangles()
    with pytest.raises(BudgetExceededError):
        solve_instance(gm, g, "dype", budget_ms=0)
    res = solve_instance(gm, g, "dype-star", budget_ms=0)
    assert not res.completed
    assert res.best_value == res.trace[-1][1]
    assert res.best.covered == g.full_mask


def test_root_is_respected_per_component():
    gm, g = two_triangles()
    want = solve_instance(gm, g, "dype").best_value
    for root in range(6):
        assert solve_instance(gm, g, "dype", root=root).best_value == want


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
    a_gm, a_g, a_root = matrix_instance("gnp:0.5", 6, 3, base_seed=0)
    b_gm, b_g, b_root = matrix_instance("gnp:0.5", 6, 3, base_seed=0)
    assert a_g.edges == b_g.edges
    assert a_root == b_root
    for m in range(1 << 6):
        assert a_gm.value(m) == b_gm.value(m)
    assert matrix_seed(0, 1, 6, 3) != matrix_seed(0, 1, 6, 4)


def test_verify_matrix_small_grid_passes():
    rep = verify_matrix(models=("path", "gnp:0.5"), ns=range(1, 5),
                        games_per_cell=3)
    assert rep.ok, rep.failure_lines()
    assert rep.instances == 2 * 4 * 3
    assert rep.runs == rep.instances * 8
    assert "pass" in rep.summary()


def test_verify_matrix_catches_a_lying_bound():
    # an inadmissible bound makes the pruning search miss optima; the
    # harness must notice and name the seed
    def sabotage(game, kind):
        return lambda partial, rem: partial  # ignores the remainder's worth

    rep = verify_matrix(models=("complete",), ns=range(4, 7),
                        games_per_cell=4, algorithms=("tsp",),
                        bound_factory=sabotage)
    assert not rep.ok
    assert len(rep.value_mismatches) > 0
    assert any("seed" in line for line in rep.failure_lines())
    assert rep.summary().startswith("FAIL")


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
    g = make_graph(5, random_connected_edges(rng, 5))
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
    g = make_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
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
    g = make_graph(6, random_connected_edges(rng, 6))
    gm = random_table_game(6, seed=43)
    split_gm, split_g = two_triangles()
    for alg in ("dype", "dype-star", "d-tsp"):
        assert solve_instance(gm, g, alg).table is None, alg
        assert solve_instance(split_gm, split_g, alg).table is None, alg
