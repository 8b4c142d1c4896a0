import io
from dataclasses import fields

import pytest

from graphcsg import cli, harness
from graphcsg.cli import main
from graphcsg import (InternalInvariantError, SearchStats,
                      parse_instance_text, realize_instance)
from graphcsg.solvers import treesearch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_a_parseable_instance(tmp_path, capsys):
    path = tmp_path / "inst.csg"
    code, out, err = run(capsys, "gen", "--model", "cycle", "--n", "5",
                         "--seed", "3", "-o", str(path))
    assert code == 0
    inst = parse_instance_text(path.read_text())
    assert inst.n == 5
    assert len(inst.table) == 31


def test_gen_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "--model", "path", "--n", "3",
                         "--seed", "1")
    assert code == 0
    assert out.startswith("csg 1\n")
    parse_instance_text(out)


def test_gen_then_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.csg"
    run(capsys, "gen", "--model", "gnp", "--n", "6", "--seed", "8",
        "--p", "0.4", "-o", str(path))
    values = set()
    for alg in ("oracle", "dype", "tsp", "dype-star", "d-tsp", "cfss"):
        code, out, err = run(capsys, "solve", str(path),
                             "--algorithm", alg)
        assert code == 0, (alg, err)
        lines = out.splitlines()
        assert lines[0].startswith("value ")
        values.add(int(lines[0].split()[1]))
        assert lines[1].startswith("blocks ")
        assert lines[2] == "status complete"
        assert lines[3].startswith("stats ")
    assert len(values) == 1


def test_solve_stats_line_names_every_counter_in_field_order(capsys,
                                                             monkeypatch):
    text = "csg 1\nn 2\ne 0 1\ngame table 3 4 5\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "-", "--algorithm", "d-tsp")
    assert code == 0
    line = out.splitlines()[3].split()
    assert line[0] == "stats"
    assert [kv.split("=")[0] for kv in line[1:]] \
        == [f.name for f in fields(SearchStats)]
    assert line[-1] == "frontier_crossed=True"


def test_solve_reads_stdin(capsys, monkeypatch):
    text = "csg 1\nn 2\ne 0 1\ngame table 3 4 5\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "-", "--algorithm", "dype")
    assert code == 0
    assert "value 7" in out  # split 3+4 beats the pair's 5


def test_solve_with_bound_and_mode(tmp_path, capsys):
    path = tmp_path / "inst.csg"
    run(capsys, "gen", "--model", "complete", "--n", "6", "--seed", "2",
        "-o", str(path))
    base = run(capsys, "solve", str(path), "--algorithm", "d-tsp")
    for extra in (("--bound", "supersub"), ("--mode", "parallel")):
        code, out, err = run(capsys, "solve", str(path),
                             "--algorithm", "d-tsp", *extra)
        assert code == 0
        assert out.splitlines()[0] == base[1].splitlines()[0]


def test_solve_trace_file(tmp_path, capsys):
    path = tmp_path / "inst.csg"
    trace = tmp_path / "out.trace.csv"
    run(capsys, "gen", "--model", "cycle", "--n", "6", "--seed", "4",
        "-o", str(path))
    code, out, err = run(capsys, "solve", str(path), "--algorithm",
                         "dype-star", "--trace", str(trace))
    assert code == 0
    assert trace.exists()
    assert trace.read_text().startswith("timestamp_us,value")
    # non-anytime solvers warn instead of writing an empty file
    trace2 = tmp_path / "none.trace.csv"
    code, out, err = run(capsys, "solve", str(path), "--algorithm", "dype",
                         "--trace", str(trace2))
    assert code == 0
    assert not trace2.exists()
    assert "no anytime trace" in err


@pytest.mark.parametrize("target", ["missing_dir/t.csv", "adir"])
def test_solve_trace_that_cannot_be_written_exits_2_before_the_solve(
        tmp_path, capsys, monkeypatch, target):
    """An anytime solve refuses the path before it starts, as gen -o
    does; a solver that keeps no trace notes the flag and writes
    nothing."""
    path = tmp_path / "c5.csg"
    run(capsys, "gen", "--model", "cycle", "--n", "5", "-o", str(path))
    (tmp_path / "adir").mkdir()
    trace = tmp_path / target
    solved = []
    with monkeypatch.context() as mp:
        mp.setattr(cli, "solve_instance",
                   lambda *args, **kwargs: solved.append(args))
        for alg in ("dype-star", "d-tsp"):
            code, out, err = run(capsys, "solve", str(path), "--algorithm",
                                 alg, "--trace", str(trace))
            assert code == 2, err
            assert "cannot write --trace file: [Errno" in err
            assert str(trace) in err
            assert "instance error" not in err and out == ""
    assert solved == []
    code, out, err = run(capsys, "solve", str(path), "--algorithm", "dype",
                         "--trace", str(trace))
    assert code == 0 and out.startswith("value ")
    assert "no anytime trace" in err
    assert not (tmp_path / "missing_dir").exists()
    assert list((tmp_path / "adir").iterdir()) == []


def test_solve_budget_exhausted_returns_1(tmp_path, capsys):
    path = tmp_path / "big.csg"
    run(capsys, "gen", "--model", "complete", "--n", "12", "--seed", "1",
        "-o", str(path))
    code, out, err = run(capsys, "solve", str(path), "--algorithm", "dype",
                         "--budget", "0")
    assert code == 1
    assert "no result" in err
    # anytime solvers degrade to a timeout answer instead
    code, out, err = run(capsys, "solve", str(path), "--algorithm", "d-tsp",
                         "--budget", "0")
    assert code == 0
    assert "status timeout" in out


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "x.csg", "--algorithm", "newton"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["gen", "--model", "path"])
    assert e.value.code == 2
    code, out, err = run(capsys, "verify", "--models", "path",
                         "--algorithms", "dype,quantum", "--n-max", "2")
    assert code == 2
    assert "unknown algorithms" in err


@pytest.mark.parametrize("argv", [
    ("--model", "path", "--n", "0"),
    ("--model", "path", "--n", "64", "--game", "supersub"),
    ("--model", "gnp", "--n", "5", "--p", "1.5"),
    ("--model", "path", "--n", "21"),
    ("--model", "path", "--n", "5", "--root", "9"),
])
def test_gen_flag_values_it_refuses_exit_2(capsys, argv):
    """gen reads no instance, so a value gen_instance refuses is a usage
    error, not an instance error."""
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert "instance error" not in err


@pytest.mark.parametrize("budget", ["nan", "-1", "-5"])
def test_a_nan_or_negative_budget_exits_2_before_any_read(capsys, budget):
    """The instance path does not exist: argparse refuses the flag first."""
    for command in (("solve", "missing.csg", "--algorithm", "dype"),
                    ("bench", "missing.csg")):
        with pytest.raises(SystemExit) as e:
            main([*command, f"--budget={budget}"])
        assert e.value.code == 2
        assert "--budget" in capsys.readouterr().err


def test_hopeless_generator_flags_exit_2(capsys):
    code, out, err = run(capsys, "gen", "--model", "path", "--n", "3",
                         "--lo", "5", "--hi", "3")
    assert code == 2 and "--lo" in err and out == ""
    code, out, err = run(capsys, "gen", "--model", "gnp", "--n", "4",
                         "--p", "0")
    assert code == 2 and "n=4, p=0.0" in err
    # a small positive p fails only by chance, so only the draw can say so
    code, out, err = run(capsys, "verify", "--models", "gnp:0.001",
                         "--n-min", "9", "--n-max", "9", "--games", "1",
                         "--quiet")
    assert code == 2, err
    assert "gnp" in err and "n=9, p=0.001" in err
    assert "internal error" not in err and "instance error" not in err


def test_instance_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csg"
    bad.write_text("csg 1\nn 2\ngame table 1 1\n")
    code, out, err = run(capsys, "solve", str(bad), "--algorithm", "dype")
    assert code == 3
    assert "instance error" in err
    code, out, err = run(capsys, "solve", str(tmp_path / "missing.csg"),
                         "--algorithm", "dype")
    assert code == 3
    # the oracle refuses instances beyond its size cap
    big = tmp_path / "big.csg"
    run(capsys, "gen", "--model", "path", "--n", "13", "-o", str(big))
    code, out, err = run(capsys, "solve", str(big), "--algorithm", "oracle")
    assert code == 3


def test_oracle_cap_applies_per_component(tmp_path, capsys):
    # 13 agents in two paths of 7 and 6: each component is within the cap
    two = tmp_path / "two.csg"
    edges = "".join(f"e {a} {a + 1}\n" for a in range(12) if a != 6)
    weights = " ".join(str(a + 1) for a in range(13))
    two.write_text(f"csg 1\nn 13\n{edges}game supersub w {weights} k 2\n")
    code, out, err = run(capsys, "solve", str(two), "--algorithm", "oracle")
    assert code == 0, err
    assert "status complete" in out


def test_solver_faults_exit_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.csg"
    run(capsys, "gen", "--model", "path", "--n", "4", "-o", str(path))
    for fault in (ValueError("bad split"),
                  InternalInvariantError("missing table entry")):
        def solve(*args, **kwargs):
            raise fault
        monkeypatch.setattr(cli, "solve_instance", solve)
        code, out, err = run(capsys, "solve", str(path), "--algorithm",
                             "dype")
        assert code == 4
        assert f"internal error: {type(fault).__name__}: {fault}" in err
        assert out == ""


def test_bench_solver_faults_exit_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.csg"
    run(capsys, "gen", "--model", "path", "--n", "4", "-o", str(path))

    def solve(*args, **kwargs):
        raise ValueError("solver fault")
    monkeypatch.setattr(harness, "solve_instance", solve)
    code, out, err = run(capsys, "bench", str(path), "--algorithms", "dype",
                         "--out", str(tmp_path / "bench"))
    assert code == 4
    assert "internal error: ValueError: solver fault" in err
    assert "instance error" not in err
    # instance errors found while loading still exit 3
    bad = tmp_path / "bad.csg"
    bad.write_text("csg 1\nn 2\ngame table 1 1\n")
    code, out, err = run(capsys, "bench", str(path), str(bad),
                         "--algorithms", "dype", "--out", str(tmp_path / "b"))
    assert code == 3
    assert "instance error" in err
    big = tmp_path / "big.csg"
    run(capsys, "gen", "--model", "path", "--n", "13", "-o", str(big))
    code, out, err = run(capsys, "bench", str(big), "--algorithms", "oracle",
                         "--out", str(tmp_path / "c"))
    assert code == 3


def test_bench_value_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.csg"
    run(capsys, "gen", "--model", "path", "--n", "4", "-o", str(path))
    real = harness.solve_instance

    def bumped(game, g, alg, **kwargs):
        res = real(game, g, alg, **kwargs)
        if alg == "tsp":
            res.best_value += 1
        return res
    monkeypatch.setattr(harness, "solve_instance", bumped)
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", str(path), "--algorithms",
                         "dype,tsp", "--out", str(out_dir))
    assert code == 1
    assert "value disagreement on: x\n" in err
    assert (out_dir / "report.csv").exists()


def test_bench_out_directory_that_cannot_be_created_exits_2(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.csg"
    run(capsys, "gen", "--model", "path", "--n", "4", "-o", str(path))
    plain_file = tmp_path / "notadir"
    plain_file.write_text("")
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    code, out, err = run(capsys, "bench", str(path), "--algorithms", "dype",
                         "--out", str(plain_file / "x"))
    assert code == 2
    assert "cannot create --out directory" in err
    assert "internal error" not in err and "Traceback" not in err
    assert solved == []  # refused before any solve


def test_gen_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    """gen reads no instance, so an unwritable -o is a usage error."""
    target = tmp_path / "missing_dir" / "x.csg"
    code, out, err = run(capsys, "gen", "--model", "path", "--n", "3",
                         "-o", str(target))
    assert code == 2
    assert "cannot write --output file" in err and "missing_dir" in err
    assert "instance error" not in err and out == ""
    assert not target.parent.exists()


@pytest.mark.parametrize("flags", [
    ("--repetitions", "0"),
    ("--repetitions", "-1"),
    ("--algorithms", ""),
    ("--algorithms", ","),
])
def test_bench_with_no_run_exits_2_before_any_read(tmp_path, capsys,
                                                   monkeypatch, flags):
    """The instance path does not exist and --out is never created: the
    bench is refused before any instance is read or file written."""
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    out_dir = tmp_path / "bo"
    code, out, err = run(capsys, "bench", str(tmp_path / "missing.csg"),
                         "--out", str(out_dir), *flags)
    assert code == 2, err
    assert "no run" in err and "instance error" not in err and out == ""
    assert not out_dir.exists() and solved == []


def test_bench_refuses_instances_that_share_a_stem(tmp_path, capsys,
                                                  monkeypatch):
    """a/x.csg and b/x.csg would write one trace file and one report
    name: the bench is refused, naming the stem, before any instance is
    read or --out created."""
    solved = []
    monkeypatch.setattr(harness, "solve_instance",
                        lambda *args, **kwargs: solved.append(args))
    out_dir = tmp_path / "bo"
    paths = [str(tmp_path / name) for name in ("a/x.csg", "y.csg", "b/x.csg")]
    code, out, err = run(capsys, "bench", *paths, "--algorithms",
                         "dype,d-tsp", "--out", str(out_dir))
    assert code == 2, err
    assert "stems: x\n" in err and "instance error" not in err and out == ""
    assert not out_dir.exists() and solved == []


def test_verify_small_grid(capsys):
    code, out, err = run(capsys, "verify", "--models", "path,cycle",
                         "--n-max", "4", "--games", "2")
    assert code == 0
    assert "pass" in out
    code, out, err = run(capsys, "verify", "--models", "path",
                         "--n-max", "3", "--games", "1", "--quiet")
    assert code == 0


@pytest.mark.parametrize("flags", [
    ("--models", "foo"),
    ("--models", "gnp:abc"),
    ("--models", "path:0.5"),
    ("--models", "gnp:1.5"),
    ("--models", ","),
    ("--n-min", "0"),
    ("--n-min", "13", "--n-max", "13", "--models", "gnp"),
    ("--n-min", "3", "--n-max", "2"),
    ("--algorithms", "oracle"),
    ("--algorithms", ","),
    ("--games", "0"),
    ("--models", "gnp:0.0"),
    ("--games", "1001"),
    ("--models", ",".join(["path"] * 11)),
])
def test_verify_usage_errors_exit_2_before_any_solve(capsys, monkeypatch,
                                                     flags):
    solved = []
    monkeypatch.setattr(harness, "matrix_instance",
                        lambda *args: solved.append(args))
    code, out, err = run(capsys, "verify", "--n-max", "3", *flags)
    assert code == 2, err
    assert "instance error" not in err and err.strip()
    assert solved == []


def test_a_verify_cell_is_the_instance_gen_writes(tmp_path, capsys):
    path = tmp_path / "cell.csg"
    for seed in (harness.matrix_seed(0, 4, 7, 0),
                 harness.matrix_seed(3, 4, 7, 41)):
        code, out, err = run(capsys, "gen", "--model", "gnp", "--p", "0.2",
                             "--n", "7", "--seed", str(seed), "-o", str(path))
        assert code == 0
        game, g, root = realize_instance(parse_instance_text(
            path.read_text()))
        cell_game, cell_g = harness.matrix_instance("gnp:0.2", 7, seed)
        assert (cell_g.n, cell_g.edges, root) == (7, g.edges, None)
        assert [cell_game.value(m) for m in range(1 << 7)] \
            == [game.value(m) for m in range(1 << 7)]


def test_verify_faults_exit_4(capsys, monkeypatch):
    for fault in (ValueError("bad split"),
                  InternalInvariantError("missing table entry")):
        def verify(**kwargs):
            raise fault
        with monkeypatch.context() as mp:
            mp.setattr(cli, "verify_matrix", verify)
            code, out, err = run(capsys, "verify", "--n-max", "2")
        assert code == 4
        assert f"internal error: {type(fault).__name__}: {fault}" in err
    # a fault inside one grid run is a failure line with its seed; the
    # grid still runs to the end
    def miss(*args):
        raise InternalInvariantError("missing table entry for mask 1")
    monkeypatch.setattr(treesearch, "tsp_star_step", miss)
    code, out, err = run(capsys, "verify", "--models", "cycle", "--n-max",
                         "4", "--games", "2", "--quiet")
    assert code == 4
    lines = out.splitlines()
    assert any("(seed " in line and "missing table entry" in line
               for line in lines)
    assert lines[-1].startswith("FAIL: 8 instances, 64 solver runs")


def test_bench_command(tmp_path, capsys):
    paths = []
    for i, model in enumerate(("path", "star")):
        p = tmp_path / f"{model}.csg"
        run(capsys, "gen", "--model", model, "--n", "5", "--seed", str(i),
            "-o", str(p))
        paths.append(str(p))
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", *paths, "--algorithms",
                         "dype,cfss,d-tsp", "--out", str(out_dir))
    assert code == 0, err
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "path.d-tsp.r0.trace.csv").exists()
    assert "report" in out
