"""Solver dispatch, oracle verification sweeps, and benchmark runs."""

from __future__ import annotations

import csv
import random
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

from .games import (Game, Partition, Value, make_cfss_bound, make_tsp_bound,
                    partition_value, random_table_game)
from .graph import Graph
from .instances import MODELS, model_edges
from .masks import agents_of
from .pseudotree import build_pseudotree
from .solvers import (BudgetExceededError, InternalInvariantError,
                      SolverResult, audit_dp_table, brute_force_best, cfss,
                      d_tsp, dype, dype_star, structure_masks, tsp)
from .solvers.base import SearchStats

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


def _solve_connected(game: Game, g: Graph, algorithm: str, *, bound=None,
                     mode: str = "interleaved", root: int = 0,
                     deadline: float | None = None, on_incumbent=None,
                     bound_factory=None) -> SolverResult:
    """Dispatch one algorithm on a connected graph. `bound_factory(game,
    kind)` builds the tree-search bound for `tsp` and `d-tsp`; None means
    `make_tsp_bound`, looked up at call time so a rebound name applies."""
    bound_factory = bound_factory or make_tsp_bound
    if algorithm == "oracle":
        return brute_force_best(game, g, deadline=deadline)
    if algorithm == "cfss":
        return cfss(game, g, make_cfss_bound(game, bound), deadline=deadline)
    pt = build_pseudotree(g, root)
    if algorithm == "dype":
        return dype(game, g, pt, deadline=deadline)
    if algorithm == "tsp":
        return tsp(game, g, pt, bound_factory(game, bound),
                   deadline=deadline)
    if algorithm == "dype-star":
        return dype_star(game, g, pt, on_incumbent=on_incumbent,
                         deadline=deadline)
    if algorithm == "d-tsp":
        return d_tsp(game, g, pt, bound_factory(game, bound), mode=mode,
                     on_incumbent=on_incumbent, deadline=deadline)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _subgame(game: Game, agents: list[int]):
    """Restriction of a game to one connected component, with agents
    renumbered 0..k-1. Returns (game, expand) where expand maps local
    masks back to global ones."""
    to_global = tuple(agents)

    def expand(m: int) -> int:
        out = 0
        while m:
            b = m & -m
            m ^= b
            out |= 1 << to_global[b.bit_length() - 1]
        return out

    v = game.value
    sup = sub = None
    if game.decomposed:
        gsup, gsub = game.sup_value, game.sub_value
        sup = lambda m: gsup(expand(m))
        sub = lambda m: gsub(expand(m))
    local = Game(len(agents), lambda m: v(expand(m)), sup_value=sup,
                 sub_value=sub, tolerance=game.tolerance)
    return local, expand


def solve_instance(game: Game, g: Graph, algorithm: str, *, bound=None,
                   mode: str = "interleaved", root: int | None = None,
                   budget_ms: float | None = None,
                   on_incumbent=None) -> SolverResult:
    """Run one algorithm on one instance. Disconnected graphs are split
    into components, solved independently, and merged: block union, value
    sum, and for anytime algorithms a single stitched trace whose baseline
    counts unfinished components at their one-block value. Each component
    keeps its own incumbent, so the answer may sit up to `game.tolerance`
    below the optimum per component.

    The result never holds a DP table (`table` is None on every path), so
    a caller that keeps many results keeps no tables; call the solvers
    directly to inspect one."""
    deadline = None
    if budget_ms is not None:
        deadline = time.monotonic() + budget_ms / 1000.0
    comps = g.connected_components(g.full_mask)
    if len(comps) == 1:
        res = _solve_connected(game, g, algorithm, bound=bound, mode=mode,
                               root=root if root is not None else 0,
                               deadline=deadline, on_incumbent=on_incumbent)
        res.table = None
        return res

    anytime = algorithm in ANYTIME_ALGORITHMS
    parts = []
    for comp in comps:
        agents = agents_of(comp)
        local_edges = []
        index = {a: i for i, a in enumerate(agents)}
        for u, w in g.edges:
            if (comp >> u) & 1 and (comp >> w) & 1:
                local_edges.append((index[u], index[w]))
        lg = Graph(len(agents), local_edges)
        lgame, expand = _subgame(game, agents)
        lroot = index[root] if root is not None and (comp >> root) & 1 else 0
        init_val = lgame.value(lg.full_mask)
        parts.append((lgame, lg, expand, lroot, init_val))

    t0 = time.monotonic()
    total_init = sum(p[4] for p in parts)
    trace = [(0, total_init)] if anytime else []
    blocks: list[int] = []
    total = 0
    stats = SearchStats()
    completed = True
    remaining_init = total_init
    for k, (lgame, lg, expand, lroot, init_val) in enumerate(parts):
        remaining_init -= init_val
        if deadline is not None and time.monotonic() >= deadline:
            if not anytime:
                raise BudgetExceededError(
                    "budget exhausted with components left to solve")
            completed = False
            blocks.append(expand(lg.full_mask))
            total += init_val
            continue
        baseline = total + remaining_init
        offset = int((time.monotonic() - t0) * 1_000_000)
        # Unsolved components sit in the reported structure as one block
        # each until their turn comes.
        context = list(blocks) + [parts[j][2](parts[j][1].full_mask)
                                  for j in range(k + 1, len(parts))]

        def hook(t_us, val, part, _b=baseline, _o=offset, _e=expand,
                 _ctx=context):
            if on_incumbent is not None:
                on_incumbent(_o + t_us, _b + val,
                             Partition(_ctx + [_e(x) for x in part]))

        res = _solve_connected(lgame, lg, algorithm, bound=bound, mode=mode,
                               root=lroot, deadline=deadline,
                               on_incumbent=hook if anytime else None)
        completed = completed and res.completed
        blocks.extend(expand(b) for b in res.best.blocks)
        total += res.best_value
        stats = stats.merged_with(res.stats)
        if anytime:
            last = trace[-1][1]
            for t_us, val in res.trace:
                gval = baseline + val
                if gval > last:
                    trace.append((offset + t_us, gval))
                    last = gval
    return SolverResult(best=Partition(blocks), best_value=total,
                        stats=stats, trace=trace, completed=completed)


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
    None); ValueError for an unknown model, or a parameter that is not
    gnp's edge probability."""
    name, colon, ptxt = spec.partition(":")
    if name not in MODELS or colon and name != "gnp":
        raise ValueError(f"bad model spec {spec!r}")
    if name != "gnp":
        return name, None
    try:
        p = float(ptxt) if colon else 0.5
    except ValueError:
        raise ValueError(f"bad model spec {spec!r}") from None
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp edge probability must be in [0, 1], got {p}")
    return name, p


def matrix_seed(base_seed: int, model_index: int, n: int, index: int) -> int:
    return base_seed * 1_000_000 + model_index * 100_000 + n * 1_000 + index


def matrix_instance(model_spec: str, n: int, index: int, *,
                    base_seed: int = 0,
                    model_index: int | None = None) -> tuple[Game, Graph, int]:
    """Reconstruct one (game, graph) cell of the verification matrix from
    its coordinates; returns the derived seed too, for error reports."""
    name, p = parse_model(model_spec)
    if model_index is None:
        model_index = (DEFAULT_MODELS.index(model_spec)
                       if model_spec in DEFAULT_MODELS else 0)
    seed = matrix_seed(base_seed, model_index, n, index)
    rng = random.Random(seed)
    edges = model_edges(name, n, p=p if p is not None else 0.5, rng=rng)
    game = random_table_game(n, rng, decompose=True)
    return game, Graph(n, edges), seed


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
                  bound_factory=None, progress=None) -> VerifyReport:
    """Compare every solver against the brute-force optimum over the full
    instance grid, auditing DP tables, anytime traces, and the hybrid's
    frontier bookkeeping along the way. A run that raises
    InternalInvariantError is reported in `faults`, and the sweep goes on.

    `bound_factory(game, kind)` overrides pruning-bound construction (the
    fault-injection hook used by tests); `algorithms` limits the matrix
    rows to the named algorithms.
    """
    runs = [r for r in MATRIX_RUNS
            if algorithms is None or r[0] in algorithms]
    report = VerifyReport()
    for mi, model_spec in enumerate(models):
        name, p = parse_model(model_spec)
        deterministic = name != "gnp"
        for n in ns:
            shared_graph = None
            shared_structures = None
            if deterministic:
                shared_graph = Graph(n, model_edges(name, n))
                shared_structures = list(structure_masks(shared_graph))
            for i in range(games_per_cell):
                seed = matrix_seed(base_seed, mi, n, i)
                rng = random.Random(seed)
                if deterministic:
                    g = shared_graph
                else:
                    g = Graph(n, model_edges("gnp", n, p=p, rng=rng))
                game = random_table_game(n, rng, decompose=True)
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
                                               mode=mode,
                                               bound_factory=bound_factory)
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
                    if alg in ("dype", "dype-star"):
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
    report.csv and one trace file per anytime run are written there.
    """
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    for name, game, g, root in instances:
        for alg in algorithms:
            for rep in range(repetitions):
                t0 = time.monotonic()
                status = "ok"
                value = None
                stats = SearchStats()
                trace = None
                try:
                    res = solve_instance(game, g, alg, bound=bound,
                                         mode=mode, root=root,
                                         budget_ms=budget_ms)
                    value = res.best_value
                    stats = res.stats
                    trace = res.trace
                    if not res.completed:
                        status = "timeout"
                except BudgetExceededError:
                    status = "incomplete"
                wall_ms = (time.monotonic() - t0) * 1000.0
                rows.append(BenchRow(
                    instance=name, algorithm=alg, rep=rep, status=status,
                    value=value, wall_ms=round(wall_ms, 3),
                    subsets_enumerated=stats.subsets_enumerated,
                    dp_entries=stats.dp_subproblems,
                    nodes_expanded=stats.nodes_expanded,
                    nodes_pruned=stats.nodes_pruned))
                if out is not None and alg in ANYTIME_ALGORITHMS and trace:
                    write_trace_csv(
                        out / f"{name}.{alg}.r{rep}.trace.csv", trace)
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
