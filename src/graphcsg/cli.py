"""Command-line interface: gen, solve, verify, bench.

Exit codes: 0 success, 1 verification mismatch or no result produced,
2 usage error, 3 unreadable or invalid instance, 4 solver fault. The
README lists what each one covers.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .games import BOUND_KINDS
from .harness import (ALGORITHMS, ANYTIME_ALGORITHMS, DEFAULT_MODELS,
                      MATRIX_RUNS, UsageError, check_bench, check_oracle_cap,
                      check_settings, inconsistent_instances, run_bench,
                      solve_instance, verify_matrix, write_trace_csv)
from .instances import (GAME_KINDS, MODELS, GraphSamplingError,
                        InstanceFormatError, gen_instance,
                        parse_instance_text, realize_instance, write_instance)
from .solvers import MODES, BudgetExceededError

# The algorithms that `verify` compares against the oracle, in table order.
_VERIFY_ALGORITHMS = tuple(dict.fromkeys(alg for alg, _, _ in MATRIX_RUNS))


def _names(text: str) -> tuple[str, ...]:
    """The names in a comma-separated flag value."""
    return tuple(a for a in text.split(",") if a)


def nonnegative_ms(text: str) -> float:
    """A --budget value; argparse reports its ValueError with exit 2."""
    check_settings(budget_ms=float(text))
    return float(text)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", choices=BOUND_KINDS, default="none",
                   help="pruning bound for tsp/d-tsp/cfss")
    p.add_argument("--mode", choices=MODES, default="interleaved",
                   help="worker scheduling for d-tsp")
    p.add_argument("--budget", type=nonnegative_ms, metavar="MS",
                   help="wall-clock budget in milliseconds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcsg",
        description="Optimal partition of agents into connected coalitions")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--model", choices=MODELS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--game", choices=GAME_KINDS, default="table")
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
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance", help="instance path, or - for stdin")
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--trace", default=None, metavar="PATH",
                       help="write the anytime trace CSV here")
    _add_run_flags(solve)
    solve.set_defaults(run=_cmd_solve)

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
                        help="comma-separated subset of: "
                             + ", ".join(_VERIFY_ALGORITHMS))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    verify.set_defaults(run=_cmd_verify)

    bench = sub.add_parser("bench", help="run timed sweeps, emit CSV")
    bench.add_argument("instances", nargs="+", help="instance files")
    bench.add_argument("--algorithms", default=",".join(
        a for a in ALGORITHMS if a != "oracle"))
    bench.add_argument("--repetitions", type=int, default=1)
    bench.add_argument("--out", default="bench_out",
                       help="directory for report.csv and trace files")
    _add_run_flags(bench)
    bench.set_defaults(run=_cmd_bench)

    return parser


def _load_instance(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return realize_instance(parse_instance_text(text))


def _cmd_gen(args) -> int:
    if args.lo > args.hi:
        raise UsageError(f"--lo {args.lo} exceeds --hi {args.hi}")
    try:  # no instance is read, so every refusal is of a flag value
        inst = gen_instance(args.model, args.n, game_kind=args.game,
                            seed=args.seed, p=args.p, lo=args.lo,
                            hi=args.hi, root=args.root)
    except ValueError as e:
        raise UsageError(e) from None
    text = write_instance(inst)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.output).write_text(text)
    except OSError as e:  # the message names the path
        raise UsageError(f"cannot write --output file: {e}") from None
    return 0


def _internal_error(e: Exception) -> int:
    """Report a fault raised after every input was checked; exits with 4."""
    traceback.print_exc()
    print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
    return 4


def _cmd_solve(args) -> int:
    game, g, root = _load_instance(args.instance)
    check_oracle_cap(g, (args.algorithm,))  # an instance error, exit 3
    trace = args.trace if args.algorithm in ANYTIME_ALGORITHMS else None
    if trace is not None:
        try:  # refused before the solve, as `gen -o` is
            open(trace, "w").close()
        except OSError as e:  # the message names the path
            raise UsageError(f"cannot write --trace file: {e}") from None
    try:
        res = solve_instance(game, g, args.algorithm, bound=args.bound,
                             mode=args.mode, root=root,
                             budget_ms=args.budget)
    except BudgetExceededError as e:
        print(f"no result: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # the instance was read: a solver fault
        return _internal_error(e)
    print(f"value {res.best_value}")
    print(f"blocks {res.best.agent_lists()}")
    print(f"status {'complete' if res.completed else 'timeout'}")
    print("stats " + " ".join(f"{f.name}={getattr(res.stats, f.name)}"
                              for f in fields(res.stats)))
    if trace is not None:
        write_trace_csv(trace, res.trace)
        print(f"trace {trace}")
    elif args.trace is not None:
        print(f"note: {args.algorithm} keeps no anytime trace; "
              f"--trace ignored", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    try:
        report = verify_matrix(
            models=_names(args.models), ns=range(args.n_min, args.n_max + 1),
            games_per_cell=args.games, base_seed=args.seed,
            algorithms=_names(args.algorithms) if args.algorithms else None,
            progress=None if args.quiet else print)
    except (UsageError, GraphSamplingError):
        raise  # a grid refused, or p too small for some n: exit 2
    except Exception as e:  # the grid was checked: a solver fault
        return _internal_error(e)
    for line in report.failure_lines():
        print(line)
    print(report.summary())
    return 4 if report.faults else 0 if report.ok else 1


def _cmd_bench(args) -> int:
    algorithms = _names(args.algorithms)
    # rows and trace files are named by stem
    check_bench([Path(path).stem for path in args.instances], algorithms,
                args.repetitions)
    check_settings(algorithms)
    loaded = []
    for path in args.instances:
        game, g, root = _load_instance(path)
        check_oracle_cap(g, algorithms)  # an instance error, exit 3
        loaded.append((Path(path).stem, game, g, root))
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:  # the message names the path
        raise UsageError(f"cannot create --out directory: {e}") from None
    try:
        rows = run_bench(loaded, algorithms, budget_ms=args.budget,
                         repetitions=args.repetitions, bound=args.bound,
                         mode=args.mode, out_dir=args.out)
    except Exception as e:  # every instance was read: a solver fault
        return _internal_error(e)
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
        return args.run(args)
    except (UsageError, GraphSamplingError) as e:
        print(e, file=sys.stderr)
        return 2
    except (InstanceFormatError, OSError, ValueError) as e:
        print(f"instance error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
