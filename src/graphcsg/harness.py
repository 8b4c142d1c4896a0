"""Solver dispatch, oracle verification sweeps, and benchmark runs."""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, field, fields
from functools import reduce
from pathlib import Path

from .games import (BOUND_KINDS, Game, Partition, Value, make_cfss_bound,
                    make_tsp_bound, partition_value)
from .graph import Graph
from .instances import MODELS, gen_instance, realize_instance
from .pseudotree import build_pseudotree
from .solvers import (MODES, ORACLE_MAX_N, BudgetExceededError,
                      InternalInvariantError, SolverResult, audit_dp_table,
                      brute_force_best, cfss, d_tsp, dype, dype_star,
                      structure_masks, tsp)
from .solvers.base import SearchStats, elapsed_us

ALGORITHMS = ("oracle", "dype", "tsp", "dype-star", "d-tsp", "cfss")
ANYTIME_ALGORITHMS = ("dype-star", "d-tsp")

DEFAULT_MODELS = ("path", "cycle", "star", "complete",
                  "gnp:0.2", "gnp:0.5", "gnp:0.8")

# (algorithm, bound kind, mode) rows of the verification matrix.
MATRIX_RUNS = (
    ("dype", None, None),
    ("tsp", "none", None),
    ("tsp", "supersub", None),
    ("dype-star", None, None),
    ("d-tsp", None, "interleaved"),
    ("d-tsp", "supersub", "interleaved"),
    ("d-tsp", None, "parallel"),
    ("cfss", "none", None),
)
# The algorithms `verify_matrix` checks against the oracle, in row order.
VERIFY_ALGORITHMS = tuple(dict.fromkeys(alg for alg, _, _ in MATRIX_RUNS))


class UsageError(ValueError):
    """A setting, bench or grid refused before any solve starts."""


def _solve_connected(game: Game, g: Graph, algorithm: str, *, bound=None,
                     mode: str = "interleaved", root: int = 0,
                     deadline: float | None = None,
                     on_event=None) -> SolverResult:
    """Dispatch a checked algorithm on a connected graph or view with every
    run setting its solver takes; bound factories are read at call time."""
    run = {"deadline": deadline, "on_event": on_event}
    if algorithm == "oracle":
        return brute_force_best(game, g, deadline=deadline)
    if algorithm == "cfss":
        return cfss(game, g, make_cfss_bound(game, bound), **run)
    pt = build_pseudotree(g, root)
    if algorithm == "dype":
        return dype(game, g, pt, deadline=deadline)
    if algorithm == "tsp":
        return tsp(game, g, pt, make_tsp_bound(game, bound), **run)
    if algorithm == "dype-star":
        return dype_star(game, g, pt, **run)
    return d_tsp(game, g, pt, make_tsp_bound(game, bound), mode=mode, **run)


def check_settings(algorithms=(), bound=None, mode: str = "interleaved",
                   budget_ms: float | None = None) -> None:
    """UsageError for a name outside ALGORITHMS, BOUND_KINDS or MODES, even
    where the algorithm ignores it, or a budget that is negative or NaN
    (which no deadline check would ever pass)."""
    bad = set(algorithms).difference(ALGORITHMS)
    if bad:
        raise UsageError(f"unknown algorithms: {', '.join(sorted(bad))}")
    if bound is not None and bound not in BOUND_KINDS:
        raise UsageError(f"unknown bound kind {bound!r}")
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    if budget_ms is not None and not budget_ms >= 0:
        raise UsageError(f"budget must be 0 ms or more, got {budget_ms}")


def check_oracle_cap(g: Graph, algorithms) -> None:
    """ValueError, before any solve starts, when the oracle is among
    `algorithms` and a component of `g` is past its cap."""
    if "oracle" in algorithms:
        largest = max(map(int.bit_count, g.connected_components(g.full_mask)))
        if largest > ORACLE_MAX_N:
            raise ValueError(f"the oracle is capped at components of n <= "
                             f"{ORACLE_MAX_N}, got n = {largest}")


def solve_instance(game: Game, g: Graph, algorithm: str, *, bound=None,
                   mode: str = "interleaved", root: int | None = None,
                   budget_ms: float | None = None,
                   on_event=None) -> SolverResult:
    """Run one algorithm on one instance, a component at a time (a connected
    graph is one), each on its view (`Graph.component`) with the caller's
    game, from `root` in its component and the lowest agent elsewhere, and
    merged: block union, value sum, and for anytime algorithms one trace
    whose baseline counts unsolved components at their one-block value.
    Each component keeps its own incumbent, so the answer may sit up to
    `game.tolerance` below the optimum per component. Each solver checks
    the deadline at its first unit of work: past it, an exact solver
    raises BudgetExceededError and an anytime one returns its component
    as one block, with completed=False.

    `on_event` observes every solver that takes one, in the whole graph's
    terms: times from this call's clock, stitched values, full partitions,
    and each component as one block until its incumbent beats that block.

    The result never holds a DP table (`table` is None), so a caller that
    keeps many results keeps no tables; call the solvers directly to
    inspect one. Before anything is built, a setting `check_settings`
    refuses, a game over another agent count than the graph's, a root
    outside 0..n-1 or `check_oracle_cap` raises."""
    check_settings((algorithm,), bound, mode, budget_ms)
    if game.n != g.n:
        raise ValueError(f"the game has {game.n} agents, the graph {g.n}")
    if root is not None and not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    check_oracle_cap(g, (algorithm,))
    deadline = None if budget_ms is None \
        else time.monotonic() + budget_ms / 1000.0
    comps = g.connected_components(g.full_mask)
    views = list(map(g.component, comps))  # built before the clock starts
    inits = list(map(game.value, comps))  # each one-block value

    t0 = time.monotonic()
    trace = [(0, sum(inits))] if algorithm in ANYTIME_ALGORITHMS else []
    blocks: list[int] = []
    total = 0
    results = []
    for k, (comp, view) in enumerate(zip(comps, views)):
        baseline = total + sum(inits[k + 1:])
        offset = elapsed_us(t0)
        relay = None
        if on_event is not None:
            # Called only during this component's solve. Each component
            # counts as one block until its incumbent beats that block.
            def relay(kind, *f):
                if kind == "structure":
                    on_event(kind, *f)
                elif f[1] > inits[k]:
                    on_event(kind, offset + f[0], baseline + f[1], Partition(
                        blocks + comps[k + 1:] + list(f[2])))

        croot = root if root is not None and comp >> root & 1 \
            else (comp & -comp).bit_length() - 1
        res = _solve_connected(game, view, algorithm, bound=bound, mode=mode,
                               root=croot, deadline=deadline, on_event=relay)
        # Each point after the first also raises the stitched trace.
        trace.extend((offset + t, baseline + v) for t, v in res.trace[1:])
        blocks.extend(res.best.blocks)
        total += res.best_value
        results.append(res)
    return SolverResult(
        best=Partition(blocks), best_value=total, trace=trace,
        stats=reduce(SearchStats.merged_with, [r.stats for r in results]),
        completed=all(r.completed for r in results))


# ---------------------------------------------------------------------------
# Verification matrix


@dataclass
class VerifyReport:
    runs: int = 0
    instances: int = 0
    value_mismatches: list[str] = field(default_factory=list)
    feasibility_failures: list[str] = field(default_factory=list)
    audit_failures: list[str] = field(default_factory=list)
    trace_violations: list[str] = field(default_factory=list)
    crossing_failures: list[str] = field(default_factory=list)
    faults: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failure_lines()

    def failure_lines(self) -> list[str]:
        return (self.value_mismatches + self.feasibility_failures
                + self.audit_failures + self.trace_violations
                + self.crossing_failures + self.faults)

    def summary(self) -> str:
        state = "pass" if self.ok else "FAIL"
        return (f"{state}: {self.instances} instances, {self.runs} solver "
                f"runs, {len(self.failure_lines())} failures")


def parse_model(spec: str) -> tuple[str, float | None]:
    """'gnp:0.5' -> ('gnp', 0.5), 'gnp' -> ('gnp', 0.5), 'path' -> ('path',
    None); UsageError for an unknown model, or a parameter that is not
    gnp's edge probability."""
    name, colon, ptxt = spec.partition(":")
    if name not in MODELS or colon and name != "gnp":
        raise UsageError(f"bad model spec {spec!r}")
    if name != "gnp":
        return name, None
    try:
        p = float(ptxt) if colon else 0.5
    except ValueError:
        raise UsageError(f"bad model spec {spec!r}") from None
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"gnp edge probability must be in [0, 1], got {p}")
    return name, p


def matrix_seed(base_seed: int, model_index: int, n: int, index: int) -> int:
    """A verification cell's seed, one decimal field per coordinate."""
    if not (0 <= model_index < 10 and 0 <= n < 100 and 0 <= index < 1000):
        raise UsageError("a seeded grid holds at most 10 models, n below "
                         "100 and 1,000 games per cell")
    return base_seed * 1_000_000 + model_index * 100_000 + n * 1_000 + index


def matrix_instance(model_spec: str, n: int, seed: int) -> tuple[Game, Graph]:
    """One (game, graph) cell of the verification matrix: the table game
    and graph of `graphcsg gen --model <name> --p <p> --n <n> --seed
    <seed>`. The model, n and seed of a `verify_matrix` failure line
    rebuild the cell that failed."""
    name, p = parse_model(model_spec)
    inst = gen_instance(name, n, seed=seed, p=0.5 if p is None else p)
    return realize_instance(inst)[:2]


def check_grid(models, ns, games_per_cell: int, base_seed: int,
               algorithms) -> list:
    """A `verify_matrix` grid's `MATRIX_RUNS` rows. UsageError for an
    unknown algorithm or model spec, a grid with no solver run, an n
    outside 1..ORACLE_MAX_N (the oracle's cap), gnp:0 with n >= 2 (no
    connected graph), or a cell past `matrix_seed`'s range."""
    bad = set(algorithms or ()) - set(VERIFY_ALGORITHMS)
    if bad:
        raise UsageError(f"unknown algorithms: {', '.join(sorted(bad))}")
    runs = [r for r in MATRIX_RUNS
            if algorithms is None or r[0] in algorithms]
    if not (runs and models and ns and games_per_cell >= 1):
        raise UsageError("the grid holds no solver run")
    specs = [parse_model(spec) for spec in models]
    if not (1 <= min(ns) and max(ns) <= ORACLE_MAX_N):
        raise UsageError(f"n must lie in 1..{ORACLE_MAX_N}, the oracle's cap")
    if ("gnp", 0.0) in specs and max(ns) >= 2:
        raise UsageError("gnp:0 has no connected graph on n >= 2")
    # The largest cell's seed: no two cells may share one.
    matrix_seed(base_seed, len(models) - 1, max(ns), games_per_cell - 1)
    return runs


def _check_trace(res: SolverResult, v_full: Value, optimum: Value,
                 where: str, out: list[str]) -> None:
    tr = res.trace
    if not tr or tr[0] != (0, v_full):
        out.append(f"{where}: trace must start at (0, {v_full}), "
                   f"got {tr[:1]}")
        return
    for a, b in zip(tr, tr[1:]):
        if b[0] < a[0] or b[1] < a[1]:
            out.append(f"{where}: trace not non-decreasing at {a} -> {b}")
            return
    if tr[-1][1] != optimum or res.best_value != optimum:
        out.append(f"{where}: trace ends at {tr[-1][1]}, optimum {optimum}")


def verify_matrix(*, models=DEFAULT_MODELS, ns=range(1, 10),
                  games_per_cell: int = 100, base_seed: int = 0,
                  algorithms: tuple[str, ...] | None = None,
                  progress=None) -> VerifyReport:
    """Compare every solver against the brute-force optimum over the full
    instance grid, auditing DP tables, anytime traces, and the hybrid's
    frontier bookkeeping along the way. A run that raises
    InternalInvariantError is reported in `faults`, and the sweep goes on.

    Each cell is `matrix_instance(model, n, seed)`, with the seed from
    `matrix_seed`; `algorithms` limits the matrix rows to the named ones.
    A grid `check_grid` refuses is refused before the first cell.
    """
    ns = tuple(ns)  # read by the check, then once per model
    runs = check_grid(models, ns, games_per_cell, base_seed, algorithms)
    report = VerifyReport()
    for mi, model_spec in enumerate(models):
        deterministic = parse_model(model_spec)[0] != "gnp"
        for n in ns:
            # A deterministic model's cells share one graph's structures.
            shared_structures = None
            for i in range(games_per_cell):
                seed = matrix_seed(base_seed, mi, n, i)
                game, g = matrix_instance(model_spec, n, seed)
                if deterministic and shared_structures is None:
                    shared_structures = list(structure_masks(g))
                ident = f"{model_spec}/n={n}/game={i} (seed {seed})"
                report.instances += 1

                v = game.value
                if shared_structures is not None:
                    optimum = max(sum(map(v, masks))
                                  for masks in shared_structures)
                else:
                    optimum = brute_force_best(game, g).best_value

                for alg, bound_kind, mode in runs:
                    where = f"{ident} {alg}" \
                        + (f"+{bound_kind}" if bound_kind else "") \
                        + (f"/{mode}" if mode else "")
                    report.runs += 1
                    try:
                        res = _solve_connected(game, g, alg, bound=bound_kind,
                                               mode=mode)
                    except InternalInvariantError as e:
                        report.faults.append(f"{where}: {e}")
                        continue

                    if res.best_value != optimum:
                        report.value_mismatches.append(
                            f"{where}: value {res.best_value}, "
                            f"oracle {optimum}")
                    if (res.best.covered != g.full_mask
                            or partition_value(game, res.best)
                            != res.best_value
                            or any(not g.is_connected(b)
                                   for b in res.best.blocks)):
                        report.feasibility_failures.append(
                            f"{where}: returned structure is not a feasible "
                            f"partition pricing at its reported value")
                    if res.table is not None:
                        try:
                            audit_dp_table(res.table, game, g,
                                           build_pseudotree(g, 0))
                        except Exception as e:
                            report.audit_failures.append(f"{where}: {e}")
                    if alg in ANYTIME_ALGORITHMS:
                        _check_trace(res, v(g.full_mask), optimum, where,
                                     report.trace_violations)
                    if alg == "d-tsp" and not (res.stats.frontier_crossed
                                               and res.completed):
                        report.crossing_failures.append(
                            f"{where}: run ended without the frontiers "
                            f"crossing")
            if progress is not None:
                progress(f"{model_spec} n={n}: {report.summary()}")
    return report


# ---------------------------------------------------------------------------
# Benchmarks


@dataclass
class BenchRow:
    instance: str
    algorithm: str
    rep: int
    status: str                      # ok | timeout | incomplete
    value: Value | None
    wall_ms: float
    subsets_enumerated: int
    dp_entries: int
    nodes_expanded: int
    nodes_pruned: int


def check_bench(names, algorithms, repetitions: int = 1) -> None:
    """UsageError for a repeated instance name or a bench with no run."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"repeated instance stems: {', '.join(repeated)}")
    if not (names and algorithms and repetitions >= 1):
        raise UsageError("the bench holds no run")


def write_trace_csv(path, trace) -> None:
    """Trace points as CSV; equal timestamps are bumped forward so the
    column is strictly increasing."""
    last = -1
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["timestamp_us", "value"])
        for t, val in trace:
            if t <= last:
                t = last + 1
            last = t
            w.writerow([t, val])


def run_bench(instances, algorithms, *, budget_ms: float | None = None,
              repetitions: int = 1, bound=None, mode: str = "interleaved",
              out_dir=None) -> list[BenchRow]:
    """Run each (instance, algorithm, repetition) cell and collect rows.

    `instances` is a list of (name, game, graph, root). With `out_dir` a
    report.csv and one trace file per anytime run, named by instance, are
    written there. A bench `check_bench` or `check_settings` refuses, or an
    instance past the oracle's cap, is a ValueError, raised before anything
    is written.
    """
    check_bench([name for name, _, _, _ in instances], algorithms, repetitions)
    check_settings(algorithms, bound, mode, budget_ms)
    for _, _, g, _ in instances:
        check_oracle_cap(g, algorithms)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    for name, game, g, root in instances:
        for alg in algorithms:
            for rep in range(repetitions):
                t0 = time.monotonic()
                try:
                    res = solve_instance(game, g, alg, bound=bound,
                                         mode=mode, root=root,
                                         budget_ms=budget_ms)
                    status = "ok" if res.completed else "timeout"
                except BudgetExceededError:  # no value, no trace
                    res = SolverResult(Partition(()), None, SearchStats())
                    status = "incomplete"
                wall_ms = (time.monotonic() - t0) * 1000.0
                stats = res.stats
                rows.append(BenchRow(
                    instance=name, algorithm=alg, rep=rep, status=status,
                    value=res.best_value, wall_ms=round(wall_ms, 3),
                    subsets_enumerated=stats.subsets_enumerated,
                    dp_entries=stats.dp_subproblems,
                    nodes_expanded=stats.nodes_expanded,
                    nodes_pruned=stats.nodes_pruned))
                if out is not None and alg in ANYTIME_ALGORITHMS and res.trace:
                    write_trace_csv(
                        out / f"{name}.{alg}.r{rep}.trace.csv", res.trace)
    if out is not None:
        with open(out / "report.csv", "w", newline="") as f:
            # csv writes None (a run with no value) as an empty cell
            w = csv.writer(f)
            w.writerow(col.name for col in fields(BenchRow))
            w.writerows(astuple(r) for r in rows)
    return rows


def inconsistent_instances(rows: list[BenchRow]) -> list[str]:
    """Instance names whose completed runs disagree on the best value."""
    values: dict[str, set[Value]] = {}
    for r in rows:
        if r.status == "ok" and r.value is not None:
            values.setdefault(r.instance, set()).add(r.value)
    return sorted(name for name, vs in values.items() if len(vs) > 1)
