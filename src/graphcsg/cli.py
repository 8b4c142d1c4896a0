"""Command-line interface: gen, solve, verify, bench.

Exit codes: 0 success, 1 verification mismatch or no result produced,
2 usage error (a bad flag, a NaN or negative --budget, any flag value
`gen` refuses such as a hopeless gnp p, a `gen -o` or anytime `solve
--trace` file that cannot be written, a `verify` grid or a `bench` with
no run, two `bench` instances with one file stem, or a `bench --out`
directory that cannot be created), 3 unreadable or invalid instance,
4 solver fault (for `verify`, also a grid run that raised
InternalInvariantError).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .harness import (ALGORITHMS, ANYTIME_ALGORITHMS, DEFAULT_MODELS,
                      MATRIX_RUNS, check_budget, inconsistent_instances,
                      matrix_seed, parse_model, run_bench, solve_instance,
                      verify_matrix, write_trace_csv)
from .instances import (MODELS, GraphSamplingError, InstanceFormatError,
                        gen_instance, parse_instance_text, realize_instance,
                        write_instance)
from .solvers import ORACLE_MAX_N, BudgetExceededError

# The algorithms that `verify` compares against the oracle, in table order.
_VERIFY_ALGORITHMS = tuple(dict.fromkeys(alg for alg, _, _ in MATRIX_RUNS))


class _UsageError(Exception):
    """A flag value argparse cannot check by itself; exits with 2."""


def _algorithms(text: str, allowed=ALGORITHMS) -> tuple[str, ...]:
    """The names in a comma-separated --algorithms value."""
    algorithms = tuple(a for a in text.split(",") if a)
    bad = set(algorithms) - set(allowed)
    if bad:
        raise _UsageError(f"unknown algorithms: {', '.join(sorted(bad))} "
                          f"(choose from {', '.join(allowed)})")
    return algorithms


def nonnegative_ms(text: str) -> float:
    """A --budget value; argparse reports its ValueError with exit 2."""
    return check_budget(float(text))


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", choices=("none", "supersub"), default="none",
                   help="pruning bound for tsp/d-tsp/cfss")
    p.add_argument("--mode", choices=("interleaved", "parallel"),
                   default="interleaved", help="worker scheduling for d-tsp")
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
        raise _UsageError(f"--lo {args.lo} exceeds --hi {args.hi}")
    try:  # no instance is read, so every refusal is of a flag value
        inst = gen_instance(args.model, args.n, game_kind=args.game,
                            seed=args.seed, p=args.p, lo=args.lo,
                            hi=args.hi, root=args.root)
    except ValueError as e:
        raise _UsageError(e) from None
    text = write_instance(inst)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.output).write_text(text)
    except OSError as e:  # the message names the path
        raise _UsageError(f"cannot write --output file: {e}") from None
    return 0


def _check_oracle_cap(g, algorithms) -> None:
    """An instance beyond the oracle's cap is an instance error (exit 3),
    raised before any solve starts."""
    largest = max(map(int.bit_count, g.connected_components(g.full_mask)))
    if "oracle" in algorithms and largest > ORACLE_MAX_N:
        raise ValueError(f"the oracle is capped at components of n <= "
                         f"{ORACLE_MAX_N}, got n = {largest}")


def _internal_error(e: Exception) -> int:
    """Report a fault raised after every input was checked; exits with 4."""
    traceback.print_exc()
    print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
    return 4


def _cmd_solve(args) -> int:
    game, g, root = _load_instance(args.instance)
    _check_oracle_cap(g, (args.algorithm,))
    trace = args.trace if args.algorithm in ANYTIME_ALGORITHMS else None
    if trace is not None:
        try:  # refused before the solve, as `gen -o` is
            open(trace, "w").close()
        except OSError as e:  # the message names the path
            raise _UsageError(f"cannot write --trace file: {e}") from None
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
    models = tuple(m for m in args.models.split(",") if m)
    try:
        specs = [parse_model(spec) for spec in models]
    except ValueError as e:
        raise _UsageError(f"--models: {e}") from None
    if ("gnp", 0.0) in specs and args.n_max >= 2:
        raise _UsageError("--models: gnp:0 has no connected graph on n >= 2")
    algorithms = (_algorithms(args.algorithms, _VERIFY_ALGORITHMS)
                  if args.algorithms else _VERIFY_ALGORITHMS)
    if not 1 <= args.n_min <= args.n_max <= ORACLE_MAX_N:
        raise _UsageError(f"need 1 <= --n-min <= --n-max <= {ORACLE_MAX_N}, "
                          f"the oracle's cap")
    if not (models and algorithms and args.games >= 1):
        raise _UsageError("the grid holds no solver run")
    try:  # the largest cell's seed: no two cells may share one
        matrix_seed(args.seed, len(models) - 1, args.n_max, args.games - 1)
    except ValueError as e:
        raise _UsageError(f"--models/--games: {e}") from None
    try:
        report = verify_matrix(
            models=models, ns=range(args.n_min, args.n_max + 1),
            games_per_cell=args.games, base_seed=args.seed,
            algorithms=algorithms,
            progress=None if args.quiet else lambda line: print(line))
    except GraphSamplingError:
        raise  # p too small for some n: a usage error
    except Exception as e:  # the grid was checked: a solver fault
        return _internal_error(e)
    for line in report.failure_lines():
        print(line)
    print(report.summary())
    return 4 if report.faults else 0 if report.ok else 1


def _cmd_bench(args) -> int:
    algorithms = _algorithms(args.algorithms)
    if not (algorithms and args.repetitions >= 1):
        raise _UsageError("the bench holds no run: need an algorithm and "
                          "--repetitions >= 1")
    stems = [Path(path).stem for path in args.instances]
    repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
    if repeated:  # rows and trace files are named by stem
        raise _UsageError(f"repeated instance stems: {', '.join(repeated)}")
    loaded = []
    for path in args.instances:
        game, g, root = _load_instance(path)
        _check_oracle_cap(g, algorithms)
        loaded.append((Path(path).stem, game, g, root))
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:  # the message names the path
        raise _UsageError(f"cannot create --out directory: {e}") from None
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
    except (_UsageError, GraphSamplingError) as e:
        print(e, file=sys.stderr)
        return 2
    except (InstanceFormatError, OSError, ValueError) as e:
        print(f"instance error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
