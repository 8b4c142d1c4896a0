"""Per-layer tracing, attached to the program from outside at call time.

`Tracer.install` swaps wrappers in for named functions of the program's
modules and `uninstall` puts the originals back; nothing under src/ is
edited. Hot per-call functions (connectivity queries, the game's value,
the bound closures) only add to a call count and a busy time. Coarse
boundaries (job, solve_instance, solver, level fill, hybrid worker unit,
table shortcut, reconstruction) also record a span, kept in memory and
written out when the run ends. A name that no longer exists is recorded
as absent and its metrics read 0; the run goes on.

Busy times are inclusive: `graph.is_connected` includes the
`component_of` calls it makes. A span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute) -> span name
SPANS = {
    ("graphcsg.harness", "solve_instance"): "harness.solve_instance",
    ("graphcsg.solvers.exhaustive", "brute_force_best"): "solver.oracle",
    ("graphcsg.solvers.dp", "dype"): "solver.dype",
    ("graphcsg.solvers.dp", "dype_star"): "solver.dype-star",
    ("graphcsg.solvers.treesearch", "tsp"): "solver.tsp",
    ("graphcsg.solvers.hybrid", "d_tsp"): "solver.d-tsp",
    ("graphcsg.solvers.contraction", "cfss"): "solver.cfss",
    ("graphcsg.pseudotree", "build_pseudotree"): "pseudotree.build",
    ("graphcsg.solvers.dp", "_solve_level"): "dp.level_fill",
    ("graphcsg.solvers.hybrid", "_Sweep.step"): "hybrid.sweep_unit",
    ("graphcsg.solvers.hybrid", "_Search.step"): "hybrid.search_unit",
    ("graphcsg.solvers.treesearch", "tsp_star_step"):
        "treesearch.tsp_star_step",
    ("graphcsg.solvers.dptable", "reconstruct_blocks"): "dptable.reconstruct",
}
# (module, attribute) -> aggregate name; counts and busy time only.
AGGREGATES = {
    ("graphcsg.graph", "Graph.component_of"): "graph.component_of",
    ("graphcsg.graph", "Graph.is_connected"): "graph.is_connected",
    ("graphcsg.graph", "Graph.__init__"): "graph.init",
    ("graphcsg.solvers.dptable", "DpTable.put"): "dptable.put",
    ("graphcsg.solvers.hybrid", "_Sweep._scan"): "hybrid.scan",
    ("graphcsg.instances", "gen_instance"): "instances.gen",
    ("graphcsg.instances", "parse_instance_text"): "instances.parse",
    ("graphcsg.instances", "realize_instance"): "instances.realize",
}
GENERATORS = {
    ("graphcsg.graph", "Graph.connected_subsets"): "graph.connected_subsets",
}
BOUND_FACTORIES = (("graphcsg.games", "make_tsp_bound"),
                   ("graphcsg.games", "make_cfss_bound"))
# Spans whose arguments also give the level fill's entries and scans.
_FILL_SPAN = "dp.level_fill"


class Aggregate:
    """Call count, busy seconds and yielded items, one cell per thread so
    the hybrid's second thread never races the first on an update."""

    __slots__ = ("cells",)

    def __init__(self):
        self.cells = {}

    def cell(self) -> list:
        tid = threading.get_ident()
        cell = self.cells.get(tid)
        if cell is None:
            cell = self.cells[tid] = [0, 0.0, 0]
        return cell

    def total(self, i: int):
        return sum(c[i] for c in self.cells.values())

    @property
    def calls(self) -> int:
        return self.total(0)

    @property
    def busy_s(self) -> float:
        return self.total(1)

    @property
    def items(self) -> int:
        return self.total(2)


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Aggregate] = defaultdict(Aggregate)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.fill_entries = 0
        self.fill_scanned = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._job = None
        self._job_label = ""
        self._job_t0 = 0.0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for target, name in SPANS.items():
            self._patch(target, lambda f, name=name: self._span(f, name))
        for target, name in AGGREGATES.items():
            self._patch(target, lambda f, name=name: self.count(f, name))
        for target, name in GENERATORS.items():
            self._patch(target, lambda f, name=name: self._generator(f, name))
        for target in BOUND_FACTORIES:
            self._patch(target, self._bound_factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target, make_wrapper) -> None:
        module_name, qualname = target
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{qualname}")
            return
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module_name}.{qualname}")
            return
        wrapper = make_wrapper(original)
        owners = [owner]
        if not path:
            # Names imported by value elsewhere (`from .dp import
            # _solve_level`) are rebound in every program module too.
            owners += [m for name, m in list(sys.modules.items())
                       if name.startswith("graphcsg") and m is not module
                       and vars(m).get(attr) is original]
        for o in owners:
            self._patches.append((o, attr, original))
            setattr(o, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def count(self, f, name):
        """Wrap a callable so it adds to a count and a busy time."""
        agg = self.aggs[name]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return f(*args, **kwargs)
            finally:
                cell = agg.cell()
                cell[0] += 1
                cell[1] += _clock() - t0

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, f, name):
        agg = self.aggs[name]
        fill = name == _FILL_SPAN
        signature = inspect.signature(f) if fill else None

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._job
            sid = next(self._ids)
            if fill:
                bound = signature.bind(*args, **kwargs).arguments
                table, stats = bound.get("table"), bound.get("stats")
                before = (len(table), stats.subsets_enumerated) \
                    if table is not None and stats is not None else None
            stack.append(sid)
            t0 = _clock()
            try:
                return f(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self._job))
                cell = agg.cell()
                cell[0] += 1
                cell[1] += t1 - t0
                if fill and before is not None:
                    self.fill_entries += len(table) - before[0]
                    self.fill_scanned += stats.subsets_enumerated - before[1]

        return wrapper

    def _generator(self, f, name):
        agg = self.aggs[name]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            it = iter(f(*args, **kwargs))
            step = it.__next__
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = _clock()
                    try:
                        x = step()
                    except StopIteration:
                        busy += _clock() - t0
                        return
                    busy += _clock() - t0
                    items += 1
                    yield x
            finally:
                cell = agg.cell()
                cell[0] += 1
                cell[1] += busy
                cell[2] += items

        return wrapper

    def _bound_factory(self, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            bound = f(*args, **kwargs)
            return None if bound is None else self.count(bound, "games.bound")

        return wrapper

    def wrap_game(self, game) -> None:
        """Count the game's value calls; the value function is an attribute
        of each Game, so it is wrapped per object."""
        value = getattr(game, "value", None)
        if value is None:
            if "graphcsg.games.Game.value" not in self.absent:
                self.absent.append("graphcsg.games.Game.value")
            return
        game.value = self.count(value, "games.value")

    # -- jobs -------------------------------------------------------------

    def begin_job(self, label: str) -> None:
        self._job = next(self._ids)
        self._job_label = label
        self._job_t0 = _clock()

    def end_job(self) -> None:
        self.spans.append((self._job, None, "job " + self._job_label,
                           self._job_t0, _clock(), self._job))
        self._job = None

    # -- reporting --------------------------------------------------------

    def span_durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1, _ in self.spans if n == name]

    def self_time(self, name: str) -> float:
        """Summed self time of every span with this name."""
        child = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return sum(t1 - t0 - child[sid]
                   for sid, _, n, t0, t1, _ in self.spans if n == name)

    def write_spans(self, path) -> None:
        """One JSON object per span, gzip-compressed (the hybrid's table
        shortcuts alone make hundreds of thousands of spans)."""
        base = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as f:
            for sid, parent, name, t0, t1, job in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                    "name": name,
                                    "start_s": round(t0 - base, 9),
                                    "end_s": round(t1 - base, 9)}) + "\n")


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced, untraced_passes) -> dict:
    """Per-layer metrics of one workload.

    `traced` is the traced pass; `untraced_passes` the plain passes of the
    same run, which give the overhead baseline, the budget overshoot and
    the work counters (those repeat exactly in single-threaded modes, so
    the parallel and budgeted jobs are left out of them).
    """
    a = tracer.aggs
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def by_alg(results, *algs):
        return [o for o in results
                if o.run.algorithm in algs and o.result is not None]

    for name in ("graph.connected_subsets", "graph.component_of",
                 "graph.is_connected"):
        put(name + ".calls", a[name].calls, "count")
        if name == "graph.connected_subsets":
            put(name + ".yielded", a[name].items, "count")
        put(name + ".busy_s", a[name].busy_s, "s")
    put("graph.init_s", a["graph.init"].busy_s, "s")

    put("dp.level_fill.calls", a["dp.level_fill"].calls, "count")
    put("dp.level_fill.busy_s", a["dp.level_fill"].busy_s, "s")
    put("dp.fill_useful_ratio",
        _ratio(tracer.fill_entries, tracer.fill_scanned), "ratio")
    # dype-star scans inline, so its scan time is the solver span's self
    # time; the hybrid's sweep scans in a method of its own.
    put("dp.scan.busy_s",
        tracer.self_time("solver.dype-star") + a["hybrid.scan"].busy_s, "s")
    plain = traced.outcomes
    put("dp.first_improve_us", _median(
        [o.result.trace[1][0] for o in by_alg(plain, "dype-star")
         if o.run.budget_ms is None and len(o.result.trace) > 1]), "us")

    put("dptable.entries", a["dptable.put"].calls, "count")
    put("dptable.reconstruct.calls", a["dptable.reconstruct"].calls, "count")
    put("dptable.reconstruct.busy_s", a["dptable.reconstruct"].busy_s, "s")

    for name in ("games.value", "games.bound"):
        put(name + ".calls", a[name].calls, "count")
        put(name + ".busy_s", a[name].busy_s, "s")

    search = by_alg(plain, "tsp", "d-tsp")
    expanded = sum(o.result.stats.nodes_expanded for o in search)
    search_s = a["solver.tsp"].busy_s + a["hybrid.search_unit"].busy_s
    put("treesearch.nodes_expanded", expanded, "count")
    put("treesearch.nodes_per_s", _ratio(expanded, search_s), "1/s")
    put("treesearch.prune_ratio", _ratio(
        sum(o.result.stats.nodes_pruned for o in search), expanded), "ratio")
    put("treesearch.structures_visited",
        sum(o.result.stats.structures_visited for o in search), "count")
    put("treesearch.tsp_star_step.calls",
        a["treesearch.tsp_star_step"].calls, "count")
    put("treesearch.tsp_star_step.busy_s",
        a["treesearch.tsp_star_step"].busy_s, "s")

    hybrid = by_alg(plain, "d-tsp")
    shortcuts = sum(o.result.stats.tsp_star_shortcuts for o in hybrid)
    put("hybrid.sweep_unit_ms_max", 1e3 * max(
        tracer.span_durations("hybrid.sweep_unit"), default=0.0), "ms")
    put("hybrid.search_unit_ms_max", 1e3 * max(
        tracer.span_durations("hybrid.search_unit"), default=0.0), "ms")
    put("hybrid.shortcut_ratio", _ratio(
        shortcuts, shortcuts + sum(o.result.stats.nodes_expanded
                                   for o in hybrid)), "ratio")
    put("hybrid.fallbacks",
        sum(o.result.stats.tsp_star_fallbacks for o in hybrid), "count")
    put("hybrid.first_improve_us", _median(
        [o.result.trace[1][0] for o in hybrid
         if o.run.budget_ms is None and len(o.result.trace) > 1]), "us")

    contraction = by_alg(plain, "cfss")
    states = sum(o.result.stats.structures_visited for o in contraction)
    put("contraction.states_visited", states, "count")
    put("contraction.states_per_s",
        _ratio(states, a["solver.cfss"].busy_s), "1/s")
    put("contraction.prune_ratio", _ratio(
        sum(o.result.stats.nodes_pruned for o in contraction),
        sum(o.result.stats.nodes_expanded for o in contraction)), "ratio")

    put("exhaustive.brute_force.busy_s", a["solver.oracle"].busy_s, "s")
    put("pseudotree.build.busy_s", a["pseudotree.build"].busy_s, "s")
    put("harness.self_s", tracer.self_time("harness.solve_instance"), "s")
    overshoot = [1e3 * o.wall_s - o.run.budget_ms
                 for p in untraced_passes for o in p.outcomes
                 if o.run.budget_ms is not None]
    put("harness.budget_overshoot_ms", max(overshoot, default=0.0), "ms")
    put("instances.gen_s", a["instances.gen"].busy_s, "s")
    put("instances.parse_s",
        a["instances.parse"].busy_s + a["instances.realize"].busy_s, "s")

    steady = [o for o in untraced_passes[0].outcomes
              if o.result is not None and o.run.mode != "parallel"
              and o.run.budget_ms is None]
    for field in ("subsets_enumerated", "dp_subproblems", "nodes_expanded",
                  "nodes_pruned", "structures_visited", "tsp_star_shortcuts",
                  "tsp_star_fallbacks"):
        put("stats." + field,
            sum(getattr(o.result.stats, field, 0) for o in steady), "count")

    # Both at reference speed (run.py), so speed drift between the passes
    # does not show as overhead.
    plain_s = _median([p.scaled_solve_s for p in untraced_passes])
    traced_s = traced.scaled_solve_s
    put("trace.untraced_solve_s", plain_s, "s")
    put("trace.traced_solve_s", traced_s, "s")
    put("trace.overhead_ratio", _ratio(traced_s, plain_s), "ratio")
    put("trace.absent_wrappers", len(tracer.absent), "count")
    return out
