import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import graphcsg
from graphcsg import (Graph, InstanceFile, UsageError, brute_force_best,
                      build_pseudotree, d_tsp, gen_instance, harness,
                      make_cfss_bound, make_tsp_bound, parse_instance_text,
                      random_table_game, realize_instance, run_bench,
                      solve_instance, write_instance)
from graphcsg.cli import main
from graphcsg.games import BOUND_KINDS
from graphcsg.instances import GAME_KINDS
from graphcsg.harness import ALGORITHMS
from graphcsg.solvers import MODES, hybrid


@pytest.mark.parametrize("module", ["graphcsg", "graphcsg.solvers"])
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert name in namespace, name


def test_the_package_imports_only_the_standard_library_and_itself():
    # the package has no runtime dependencies (pyproject's `dependencies`)
    seen = set()
    for path in Path(graphcsg.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                seen.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                seen.add((path.name, node.module))
    assert ("harness.py", "csv") in seen
    for where, name in seen:
        top = name.partition(".")[0]
        assert top == "graphcsg" or top in sys.stdlib_module_names, \
            (where, name)


def _cli(*argv):
    """The CLI's exit code, with argparse's exit read as one."""
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


def test_every_entry_point_accepts_each_declared_value_and_refuses_others(
        tmp_path, monkeypatch, capsys):
    game = random_table_game(4, seed=2)
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    pt = build_pseudotree(g, 0)
    path = tmp_path / "x.csg"
    path.write_text(write_instance(gen_instance("path", 4, seed=2)))
    cases = [("x", game, g, None)]
    optimum = brute_force_best(game, g).best_value
    for kind in BOUND_KINDS:
        assert solve_instance(game, g, "tsp", bound=kind).best_value \
            == optimum
        assert run_bench(cases, ("tsp", "cfss"), bound=kind)[0].value \
            == optimum
        make_tsp_bound(game, kind)
        make_cfss_bound(game, kind)
        assert _cli("solve", str(path), "--algorithm", "tsp",
                    "--bound", kind) == 0
    for mode in MODES:
        assert solve_instance(game, g, "d-tsp", mode=mode).best_value \
            == optimum
        assert run_bench(cases, ("d-tsp",), mode=mode)[0].value == optimum
        assert d_tsp(game, g, pt, mode=mode).best_value == optimum
        assert _cli("solve", str(path), "--algorithm", "d-tsp",
                    "--mode", mode) == 0

    # "foo" is refused before any solve starts
    solved = []
    monkeypatch.setattr(harness, "_solve_connected",
                        lambda *args, **kwargs: solved.append(args))
    monkeypatch.setattr(hybrid, "_drive",
                        lambda *args, **kwargs: solved.append(args))
    for setting in ("bound", "mode"):
        with pytest.raises(UsageError, match=f"unknown {setting}"):
            solve_instance(game, g, "d-tsp", **{setting: "foo"})
        with pytest.raises(UsageError, match=f"unknown {setting}"):
            run_bench(cases, ("d-tsp",), **{setting: "foo"})
        assert _cli("solve", str(path), "--algorithm", "d-tsp",
                    f"--{setting}", "foo") == 2
    for make_bound in (make_tsp_bound, make_cfss_bound):
        with pytest.raises(ValueError, match="unknown bound kind 'foo'"):
            make_bound(game, "foo")
    with pytest.raises(ValueError, match="unknown mode 'foo'"):
        d_tsp(game, g, pt, mode="foo")
    assert solved == []
    assert "invalid choice: 'foo'" in capsys.readouterr().err

    for kind in GAME_KINDS:
        inst = gen_instance("cycle", 4, game_kind=kind, seed=3)
        parsed = parse_instance_text(write_instance(inst))
        assert parsed == inst and parsed.game_kind == kind
        a, b = realize_instance(inst)[0], realize_instance(parsed)[0]
        assert list(map(a.value, range(16))) == list(map(b.value, range(16)))
    with pytest.raises(ValueError, match="unknown game kind 'foo'"):
        InstanceFile(n=2, edges=((0, 1),), game_kind="foo")
    with pytest.raises(ValueError, match="unknown game kind 'foo'"):
        gen_instance("path", 2, game_kind="foo")
    assert _cli("gen", "--model", "path", "--n", "2", "--game", "foo") == 2


def test_the_dispatch_hands_each_solver_every_run_setting_it_takes(
        monkeypatch):
    # One rule: a solver gets each run setting its signature takes as a
    # keyword (`deadline` and `on_event`; `mode` for `d_tsp`). A solver
    # that gains a run keyword the dispatch does not forward fails here.
    game = random_table_game(5, seed=3)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    solvers = {}
    received = {}
    for name in ("brute_force_best", "dype", "dype_star", "tsp", "d_tsp",
                 "cfss"):
        solvers[name] = real = getattr(harness, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            received[_name] = kwargs
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)

    def on_event(*event):
        pass

    for alg in ALGORITHMS:
        solve_instance(game, g, alg, budget_ms=60_000, on_event=on_event)
    assert received.keys() == solvers.keys()
    for name, kwargs in received.items():
        params = inspect.signature(solvers[name]).parameters
        assert set(kwargs) == {p for p, q in params.items()
                               if q.kind is q.KEYWORD_ONLY}, name
        assert isinstance(kwargs["deadline"], float), name
        assert ("on_event" in kwargs) == ("on_event" in params), name
        assert kwargs.get("on_event", on_event) is on_event, name
