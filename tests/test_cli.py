import io
from dataclasses import fields

import pytest

from graphcsg import cli, harness
from graphcsg.cli import main
from graphcsg import InternalInvariantError, SearchStats, parse_instance_text
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
])
def test_verify_usage_errors_exit_2_before_any_solve(capsys, monkeypatch,
                                                     flags):
    solved = []
    monkeypatch.setattr(cli, "verify_matrix",
                        lambda **kwargs: solved.append(kwargs))
    code, out, err = run(capsys, "verify", "--n-max", "3", *flags)
    assert code == 2, err
    assert "instance error" not in err and err.strip()
    assert solved == []


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
