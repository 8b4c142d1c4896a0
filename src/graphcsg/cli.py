"""Command-line interface: gen, solve, verify, bench.

Exit codes: 0 success, 1 verification mismatch or no result produced,
2 usage error (argparse), 3 unreadable or invalid instance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (ALGORITHMS, ANYTIME_ALGORITHMS, DEFAULT_MODELS,
                      inconsistent_instances, run_bench, solve_instance,
                      verify_matrix, write_trace_csv)
from .instances import (MODELS, InstanceFormatError, gen_instance,
                        parse_instance, write_instance)
from .solvers import BudgetExceededError


class _UsageError(Exception):
    """A flag value argparse cannot check by itself; exits with 2."""


def _algorithms(text: str) -> tuple[str, ...]:
    """The names in a comma-separated --algorithms value."""
    algorithms = tuple(a for a in text.split(",") if a)
    bad = set(algorithms) - set(ALGORITHMS)
    if bad:
        raise _UsageError(f"unknown algorithms: {', '.join(sorted(bad))}")
    return algorithms


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", choices=("none", "supersub"), default="none",
                   help="pruning bound for tsp/d-tsp/cfss")
    p.add_argument("--mode", choices=("interleaved", "parallel"),
                   default="interleaved", help="worker scheduling for d-tsp")
    p.add_argument("--budget", type=float, metavar="MS", default=None,
                   help="wall-clock budget in milliseconds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcsg",
        description="Optimal partition of agents into connected coalitions")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--model", choices=MODELS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--game", choices=("table", "supersub"),
                     default="table")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p", type=float, default=0.5,
                     help="edge probability for gnp")
    gen.add_argument("--lo", type=int, default=0,
                     help="smallest random table value")
    gen.add_argument("--hi", type=int, default=100,
                     help="largest random table value")
    gen.add_argument("--root", type=int, default=None,
                     help="pin the search-order root agent")
    gen.add_argument("-o", "--output", default=None,
                     help="write here instead of stdout")

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance", help="instance path, or - for stdin")
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--trace", default=None, metavar="PATH",
                       help="write the anytime trace CSV here")
    _add_run_flags(solve)

    verify = sub.add_parser(
        "verify", help="compare solvers against the brute-force oracle")
    verify.add_argument("--models", default=",".join(DEFAULT_MODELS),
                        help="comma-separated model list "
                             "(gnp takes gnp:<p>)")
    verify.add_argument("--n-min", type=int, default=1)
    verify.add_argument("--n-max", type=int, default=9)
    verify.add_argument("--games", type=int, default=100,
                        help="games per (model, n) cell")
    verify.add_argument("--algorithms", default=None,
                        help="comma-separated subset of: dype, tsp, "
                             "dype-star, d-tsp, cfss")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")

    bench = sub.add_parser("bench", help="run timed sweeps, emit CSV")
    bench.add_argument("instances", nargs="+", help="instance files")
    bench.add_argument("--algorithms",
                       default="dype,tsp,dype-star,d-tsp,cfss")
    bench.add_argument("--repetitions", type=int, default=1)
    bench.add_argument("--out", default="bench_out",
                       help="directory for report.csv and trace files")
    _add_run_flags(bench)

    return parser


def _load_instance(path: str):
    if path == "-":
        return parse_instance(sys.stdin.read())
    return parse_instance(Path(path).read_text())


def _cmd_gen(args) -> int:
    inst = gen_instance(args.model, args.n, game_kind=args.game,
                        seed=args.seed, p=args.p, lo=args.lo, hi=args.hi,
                        root=args.root)
    text = write_instance(inst)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def _cmd_solve(args) -> int:
    game, g, root = _load_instance(args.instance)
    try:
        res = solve_instance(game, g, args.algorithm, bound=args.bound,
                             mode=args.mode, root=root,
                             budget_ms=args.budget)
    except BudgetExceededError as e:
        print(f"no result: {e}", file=sys.stderr)
        return 1
    print(f"value {res.best_value}")
    print(f"blocks {res.best.agent_lists()}")
    print(f"status {'complete' if res.completed else 'timeout'}")
    s = res.stats
    print("stats "
          f"subsets_enumerated={s.subsets_enumerated} "
          f"dp_subproblems={s.dp_subproblems} "
          f"nodes_expanded={s.nodes_expanded} "
          f"nodes_pruned={s.nodes_pruned} "
          f"structures_visited={s.structures_visited} "
          f"tsp_star_shortcuts={s.tsp_star_shortcuts} "
          f"tsp_star_fallbacks={s.tsp_star_fallbacks} "
          f"frontier_crossed={s.frontier_crossed}")
    if args.trace is not None:
        if args.algorithm in ANYTIME_ALGORITHMS:
            write_trace_csv(args.trace, res.trace)
            print(f"trace {args.trace}")
        else:
            print(f"note: {args.algorithm} keeps no anytime trace; "
                  f"--trace ignored", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    models = tuple(m for m in args.models.split(",") if m)
    algorithms = _algorithms(args.algorithms) if args.algorithms else None
    report = verify_matrix(
        models=models, ns=range(args.n_min, args.n_max + 1),
        games_per_cell=args.games, base_seed=args.seed,
        algorithms=algorithms,
        progress=None if args.quiet else lambda line: print(line))
    for line in report.failure_lines():
        print(line)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    algorithms = _algorithms(args.algorithms)
    loaded = []
    for path in args.instances:
        game, g, root = _load_instance(path)
        loaded.append((Path(path).stem, game, g, root))
    rows = run_bench(loaded, algorithms, budget_ms=args.budget,
                     repetitions=args.repetitions, bound=args.bound,
                     mode=args.mode, out_dir=args.out)
    for r in rows:
        val = "-" if r.value is None else r.value
        print(f"{r.instance} {r.algorithm} r{r.rep}: {r.status} "
              f"value={val} wall_ms={r.wall_ms}")
    print(f"report {Path(args.out) / 'report.csv'}")
    bad_instances = inconsistent_instances(rows)
    if bad_instances:
        print("value disagreement on: " + ", ".join(bad_instances),
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 2
    except (InstanceFormatError, OSError, ValueError) as e:
        print(f"instance error: {e}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
