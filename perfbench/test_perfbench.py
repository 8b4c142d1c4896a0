"""Self-tests of the benchmark, at smoke size:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from graphcsg import harness  # noqa: E402
from graphcsg.games import Partition  # noqa: E402

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result, _ = run.measure(workload, DEFAULT_SEED, 0, False, limit=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_emits_every_per_layer_metric():
    original = harness.solve_instance
    result, _ = run.measure("many-small", DEFAULT_SEED, 0, True, limit=2)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.absent_wrappers"] == 0
    assert metrics["graph.connected_subsets.yielded"] > 0
    assert metrics["games.value.calls"] > 0
    assert harness.solve_instance is original


def test_missing_wrapped_name_is_marked_absent(monkeypatch):
    spans = dict(tracing.SPANS)
    spans[("graphcsg.solvers.dp", "no_such_function")] = "dp.gone"
    monkeypatch.setattr(tracing, "SPANS", spans)
    result, lines = run.measure("many-small", DEFAULT_SEED, 0, True, limit=1)
    assert result["correct"]
    assert result["metrics"]["trace.absent_wrappers"]["value"] == 1
    assert any("no_such_function" in line for line in lines)


def _value_plus_one(res):
    res.best_value += 1


def _drop_a_block(res):
    res.best = Partition(res.best.blocks[:-1])


@pytest.mark.parametrize("fault", [_value_plus_one, _drop_a_block])
def test_fault_injected_solver_fails_jobs(monkeypatch, fault):
    real = harness.solve_instance

    def broken(*args, **kwargs):
        res = real(*args, **kwargs)
        fault(res)
        return res

    monkeypatch.setattr(harness, "solve_instance", broken)
    result, lines = run.measure("many-small", DEFAULT_SEED, 0, False,
                                limit=2)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("FAIL ") for line in lines)


def test_feasible_but_suboptimal_answer_fails_against_reference(monkeypatch):
    real = harness.solve_instance

    def singletons(game, g, *args, **kwargs):
        res = real(game, g, *args, **kwargs)
        res.best = Partition(1 << a for a in range(g.n))
        res.best_value = sum(game.value(b) for b in res.best.blocks)
        res.trace = [(0, res.best_value)]
        return res

    monkeypatch.setattr(harness, "solve_instance", singletons)
    result, _ = run.measure("dp-sweep", DEFAULT_SEED, 0, False, limit=1)
    assert not result["correct"] and result["failed"] > 0
