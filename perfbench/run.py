"""graphcsg benchmark: one workload, one seed, one closed-loop run.

  python3 perfbench/run.py --workload dp-sweep --seed 1 --seconds 20 --trace 0

A single client runs the workload's job list back to back through
`harness.solve_instance`, one job at a time, in this process; only
`d-tsp --mode parallel` starts a second thread. The list is run in whole
passes until `--seconds` have gone by (at least MIN_PASSES passes). Each
pass first sets up from scratch: it generates, writes and parses every
instance and builds a fresh Game and Graph for every job, because Graph
fills caches lazily and no measured job may inherit another's. Every
answer is checked (check.py).

A shared virtual machine can drift in speed by 30 % over tens of seconds,
alike for every pure-Python loop (RATIONALE.md). So each pass also times a
fixed speed probe (a short pure-Python loop, independent of the program)
between jobs, at least every PROBE_EVERY_S. Each measured interval is
scaled by PROBE_REF_S over the mean of the probes just before and just
after it: the metrics are seconds on a machine where the probe takes
PROBE_REF_S. The report lines also give the raw figures.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics; with `--trace 1` plain passes fill half the time, one
traced pass follows, and the JSON holds the per-layer metrics (tracing.py)
and the tracing overhead. Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "graphcsg" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source {SRC / 'graphcsg'} not found; run "
             f"from a checkout of the repository")
sys.path.insert(0, str(SRC))

import graphcsg  # noqa: E402
from graphcsg import harness, instances  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Run,  # noqa: E402
                       build_specs, make_instance)

if Path(graphcsg.__file__).resolve().parent != SRC / "graphcsg":
    sys.exit(f"perfbench: imported graphcsg from {graphcsg.__file__}, "
             f"not from {SRC}")

MIN_PASSES = 3
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.05
_PROBE_LOOPS = 6000
# No new pass starts after this much time, whatever --seconds asks.
WALL_LIMIT_S = 120.0
# The primal integral of each job covers this many seconds.
HORIZON_S = 3.0
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

_clock = time.perf_counter


@dataclass
class Outcome:
    spec: int
    run: Run
    result: graphcsg.SolverResult | None
    error: str | None
    wall_s: float
    start: float = 0.0
    scale: float = 1.0    # to reference-speed seconds


@dataclass
class Pass:
    setup_s: float = 0.0
    setup_scale: float = 1.0
    outcomes: list[Outcome] = field(default_factory=list)
    # (clock time, probe seconds)
    probes: list[tuple[float, float]] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def scaled_solve_s(self) -> float:
        return sum(o.wall_s * o.scale for o in self.outcomes)

    def take_probe(self) -> None:
        self.probes.append((_clock(), probe()))

    def scale_between(self, start: float, end: float) -> float:
        """Factor to reference speed for the interval [start, end]."""
        times = [t for t, _ in self.probes]
        before = self.probes[max(bisect.bisect_right(times, start) - 1, 0)]
        after = self.probes[min(bisect.bisect_left(times, end),
                                len(times) - 1)]
        return 2 * PROBE_REF_S / (before[1] + after[1])


def _probe_loop() -> int:
    s = 0
    m = 0x5555
    for i in range(_PROBE_LOOPS):
        m = (m * 5 + i) & 0xFFFF
        if m & 1:
            s += m >> 3
        else:
            s ^= m
    return s


def probe() -> float:
    """Seconds the fixed probe loop takes now, the fastest of three."""
    best = math.inf
    for _ in range(3):
        t0 = _clock()
        _probe_loop()
        best = min(best, _clock() - t0)
    return best


def setup(specs):
    """Generate, write and parse every instance, then build one fresh
    Game and Graph per job. Returns (instance files, jobs)."""
    files = []
    jobs = []
    for i, spec in enumerate(specs):
        text = instances.write_instance(make_instance(spec))
        inst = instances.parse_instance_text(text)
        files.append(inst)
        for run in spec.runs:
            game, g, root = instances.realize_instance(inst)
            jobs.append((i, run, game, g, root))
    return files, jobs


def run_pass(specs, tracer=None) -> tuple[Pass, list]:
    p = Pass()
    p.take_probe()
    t0 = _clock()
    files, jobs = setup(specs)
    p.setup_s = _clock() - t0
    p.take_probe()
    p.setup_scale = p.scale_between(t0, t0 + p.setup_s)
    last_probe = _clock()
    for i, run, game, g, root in jobs:
        if tracer is not None:
            tracer.wrap_game(game)
            tracer.begin_job(f"{i} {run.label}")
        t0 = _clock()
        try:
            res = harness.solve_instance(
                game, g, run.algorithm, bound=run.bound, mode=run.mode,
                root=root, budget_ms=run.budget_ms)
            error = None
        except Exception as e:  # a failing job is counted; the run goes on
            res = None
            error = f"{type(e).__name__}: {e}"
        wall = _clock() - t0
        if tracer is not None:
            tracer.end_job()
        p.outcomes.append(Outcome(i, run, res, error, wall, t0))
        if _clock() - last_probe >= PROBE_EVERY_S:
            p.take_probe()
            last_probe = _clock()
    p.take_probe()
    for o in p.outcomes:
        o.scale = p.scale_between(o.start, o.start + o.wall_s)
    return p, files


def load_reference(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def optima(specs, files, passes, reference) -> dict:
    """Optimum per instance: the committed reference for the default seed,
    else the answer the exact solvers agree on. An instance that only one
    algorithm solves exactly is solved once more by `dype`, untimed."""
    out = {}
    for i, spec in enumerate(specs):
        if spec.key in reference:
            out[i] = reference[spec.key]
            continue
        exact = [o for p in passes for o in p.outcomes
                 if o.spec == i and o.run.budget_ms is None
                 and o.result is not None and o.result.completed]
        values = [o.result.best_value for o in exact]
        if len({o.run.algorithm for o in exact}) < 2:
            game, g, root = instances.realize_instance(files[i])
            try:
                values.append(harness.solve_instance(game, g, "dype",
                                                     root=root).best_value)
            except Exception:  # the measured jobs still get checked
                pass
        out[i] = check.consensus(values)
    return out


def failures(specs, files, passes, optimum) -> list[str]:
    adj = [check.adjacency(f) for f in files]
    out = []
    for p in passes:
        for o in p.outcomes:
            why = check.job_problem(o.run, files[o.spec], adj[o.spec], o,
                                    optimum[o.spec])
            if why:
                out.append(f"{specs[o.spec].key} {o.run.label}: {why}")
    return out


def tail_percentile(jobs: int, runs_per_job: int) -> int:
    """Highest whole percentile whose nearest rank among `jobs` values
    leaves at least ten job runs beyond it."""
    for pct in range(99, 0, -1):
        if (jobs - math.ceil(pct / 100 * jobs)) * runs_per_job >= 10:
            return pct
    return 50


def nearest_rank(sorted_xs, pct: int) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_xs)))
    return sorted_xs[k - 1]


def gap(value, optimum) -> float:
    """Primal gap: 0 at the optimum, 1 when the signs differ, else the
    difference relative to the larger magnitude."""
    if value == optimum:
        return 0.0
    if value * optimum < 0:
        return 1.0
    return abs(optimum - value) / max(abs(optimum), abs(value))


def primal_integral(trace, optimum, scale=1.0, horizon=HORIZON_S) -> float:
    """Integral of the primal gap over [0, horizon] seconds, the incumbent
    stepping at each trace point whose microsecond time, times `scale`,
    falls in the horizon."""
    pts = [(t * scale / 1e6, v) for t, v in trace
           if t * scale / 1e6 < horizon]
    ends = [t for t, _ in pts[1:]] + [horizon]
    return sum(gap(v, optimum) * (end - t)
               for (t, v), end in zip(pts, ends))


def time_to_optimum_s(o, optimum) -> float | None:
    if o.run.anytime:
        return next((t / 1e6 for t, v in o.result.trace if v == optimum),
                    None)
    return o.wall_s


def end_to_end(specs, passes, optimum) -> tuple[dict, int, int]:
    """End-to-end metrics of the untraced passes, in reference-speed
    seconds. A job's time is the median of its runs over the passes, so a
    percentile over jobs does not pick up one noisy run."""
    jobs = len(passes[0].outcomes)
    has_anytime = any(r.anytime for s in specs for r in s.runs)

    def counted(o):
        # Workloads without anytime jobs count every exact job, holding no
        # incumbent until it returns.
        return (o.result is not None and o.run.budget_ms is None
                and (o.run.anytime or not has_anytime))

    def per_job(f) -> list[float]:
        out = []
        for k in range(jobs):
            runs = [f(p.outcomes[k]) for p in passes]
            runs = [x for x in runs if x is not None]
            if runs:
                out.append(statistics.median(runs))
        return sorted(out)

    def tto_ms(o):
        if not counted(o):
            return None
        t = time_to_optimum_s(o, optimum[o.spec])
        return None if t is None else 1e3 * t * o.scale

    def auc(o):
        if not counted(o):
            return None
        if o.run.anytime:
            return primal_integral(o.result.trace, optimum[o.spec], o.scale)
        return min(o.wall_s * o.scale, HORIZON_S)

    walls = per_job(lambda o: 1e3 * o.wall_s * o.scale)
    tto = per_job(tto_ms)
    pct = tail_percentile(jobs, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(p.setup_s * p.setup_scale
                                      for p in passes), "s"),
        "solve_s": (statistics.median(p.scaled_solve_s for p in passes),
                    "s"),
        "solve_ms_p50": (statistics.median(walls), "ms"),
        "solve_ms_tail": (nearest_rank(walls, pct), "ms"),
        "tto_ms_p50": (statistics.median(tto) if tto else 0.0, "ms"),
        "gap_auc": (sum(per_job(auc)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, pct, jobs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload and return (result object, report lines).
    `limit` keeps only the first instances of the job list."""
    specs = build_specs(workload, seed)[:limit]
    start = _clock()
    budget = seconds / 2 if trace else seconds
    passes = []
    files = None
    while True:
        p, files = run_pass(specs)
        passes.append(p)
        elapsed = _clock() - start
        if elapsed >= WALL_LIMIT_S or (
                elapsed >= budget and (trace or len(passes) >= MIN_PASSES)):
            break
    traced = tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_pass(specs, tracer)
        finally:
            tracer.uninstall()

    optimum = optima(specs, files, passes, load_reference(workload, seed))
    checked = passes + ([traced] if traced else [])
    bad = failures(specs, files, checked, optimum)
    attempted = sum(len(p.outcomes) for p in checked)

    lines = [f"workload {workload}, seed {seed}: {len(passes)} plain "
             f"pass(es){' + 1 traced' if trace else ''}, "
             f"{len(passes[0].outcomes)} jobs per pass over {len(specs)} "
             f"instances"]
    lines += [f"FAIL {b}" for b in bad[:20]]
    lines.append(f"fail_ratio {len(bad) / attempted:.4f} "
                 f"({len(bad)} of {attempted} jobs)")
    if trace:
        metrics = tracing.layer_metrics(tracer, traced, passes)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write_spans(spans)
        lines.append(f"spans written to {spans}")
        if tracer.absent:
            lines.append("absent: " + ", ".join(tracer.absent))
    else:
        metrics, pct, jobs = end_to_end(specs, passes, optimum)
        lines.append(f"solve_ms_tail is p{pct} over {jobs} jobs, each the "
                     f"median of its {len(passes)} runs")
        probes = [x for p in passes for _, x in p.probes]
        lines.append(
            f"speed probe median {1e3 * statistics.median(probes):.4f} ms "
            f"(reference {1e3 * PROBE_REF_S:g} ms); raw medians: setup_s "
            f"{statistics.median(p.setup_s for p in passes):.4f}, solve_s "
            f"{statistics.median(p.solve_s for p in passes):.4f}")
    lines += [f"{name:36s} {value:14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def write_reference(workload: str) -> None:
    """Record the default seed's optima, each one agreed on by every exact
    solver of the workload and by `dype` (and the oracle up to n = 12)."""
    specs = build_specs(workload, DEFAULT_SEED)
    p, files = run_pass(specs)
    optimum = {}
    for i, spec in enumerate(specs):
        values = {o.result.best_value for o in p.outcomes
                  if o.spec == i and o.run.budget_ms is None}
        for alg in ("dype", "oracle") if spec.n <= 12 else ("dype",):
            game, g, root = instances.realize_instance(files[i])
            values.add(harness.solve_instance(game, g, alg,
                                              root=root).best_value)
        if len(values) != 1:
            sys.exit(f"perfbench: solvers disagree on {spec.key}: {values}")
        optimum[spec.key] = values.pop()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[workload] = optimum
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default seed's optima and exit")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference(args.workload)
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
