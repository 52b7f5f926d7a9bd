"""Tests for the reachability trace (benchmarks/reachability.py).

The script's surfaces (examples, CLI, parity) take minutes, so these tests
drive its parts on a small package written to ``tmp_path``: the AST census
of function definitions, the exclusions, the profiler that records what a
surface called, and the report ``main`` prints.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "reachability.py",
)
_spec = importlib.util.spec_from_file_location("reachability", _SCRIPT)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

_MODULE = '''\
import functools


def called():
    return 1


def uncalled():
    x = 1
    return x


class Shape:
    def area(self):
        return 0

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def decorated():
        return 2


def outer():
    def inner():
        return 3

    return inner()
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A two-module package that the script's census and report read."""
    root = tmp_path.resolve() / "reachpkg"
    (root / "sub").mkdir(parents=True)
    (root / "mod.py").write_text(_MODULE, encoding="utf-8")
    (root / "sub" / "leaf.py").write_text("def leaf():\n    return 4\n", encoding="utf-8")
    monkeypatch.setattr(reachability, "PACKAGE", root)
    monkeypatch.syspath_prepend(str(root.parent))
    for name in ("reachpkg", "reachpkg.mod", "reachpkg.sub", "reachpkg.sub.leaf"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return root


def _by_name(definitions):
    return {(d.module, d.qualname): d for d in definitions}


def test_census_lists_functions_methods_and_nested_definitions(package):
    found = _by_name(reachability.definitions())
    assert sorted(found) == [
        ("mod.py", "Shape.area"),
        ("mod.py", "Shape.decorated"),
        ("mod.py", "called"),
        ("mod.py", "outer"),
        ("mod.py", "outer.inner"),
        ("mod.py", "uncalled"),
        ("sub/leaf.py", "leaf"),
    ]


def test_census_walks_modules_in_path_order_and_each_in_file_order(package):
    modules_and_lines = [(d.module, d.first_line) for d in reachability.definitions()]
    assert modules_and_lines == sorted(modules_and_lines)


def test_census_line_counts_span_the_whole_definition(package):
    found = _by_name(reachability.definitions())
    assert (found["mod.py", "called"].first_line, found["mod.py", "called"].lines) == (4, 2)
    assert found["mod.py", "uncalled"].lines == 3
    assert found["mod.py", "outer"].lines == 5
    assert found["mod.py", "outer.inner"].lines == 2


def test_census_starts_a_decorated_function_at_its_first_decorator(package):
    decorated = _by_name(reachability.definitions())["mod.py", "Shape.decorated"]
    lines = (package / "mod.py").read_text(encoding="utf-8").splitlines()
    assert lines[decorated.first_line - 1].strip() == "@staticmethod"
    assert decorated.lines == 4


def test_census_keys_match_the_code_objects_the_profiler_sees(package):
    import reachpkg.mod

    found = _by_name(reachability.definitions())
    assert found["mod.py", "called"].first_line == reachpkg.mod.called.__code__.co_firstlineno
    assert (
        found["mod.py", "Shape.decorated"].first_line
        == reachpkg.mod.Shape.decorated.__wrapped__.__code__.co_firstlineno
    )


def test_census_of_the_package_has_one_definition_per_code_location():
    everything = reachability.definitions()
    assert everything
    keys = [(d.module, d.first_line) for d in everything]
    assert len(keys) == len(set(keys))
    assert all(d.first_line >= 1 and d.lines >= 1 for d in everything)


@pytest.mark.parametrize(
    "module", ["sim/jitpath.py", "campaign/service.py", "campaign/faults.py", "testing/faults.py"]
)
def test_left_out_modules_are_excluded_whole(module):
    assert reachability.Definition(module, "anything", 1, 1).excluded


@pytest.mark.parametrize(
    "qualname", ["_serve_main", "_serve_main.handler", "_work_main", "_work_main.loop"]
)
def test_serve_and_work_are_excluded_with_their_nested_functions(qualname):
    assert reachability.Definition("campaign/cli.py", qualname, 1, 1).excluded


@pytest.mark.parametrize(
    "module, qualname",
    [
        ("campaign/cli.py", "main"),
        ("campaign/cli.py", "_serve_main_helper"),
        ("sim/engine.py", "_serve_main"),
        ("sim/fastpath.py", "sync_cluster"),
    ],
)
def test_other_definitions_are_not_excluded(module, qualname):
    assert not reachability.Definition(module, qualname, 1, 1).excluded


def test_trace_records_what_a_surface_called_and_nothing_else(package, monkeypatch):
    import reachpkg.mod

    monkeypatch.setattr(reachability, "SURFACES", (lambda quick: reachpkg.mod.outer(),))
    reached = reachability.reached_code(quick=False)
    path = os.path.realpath(reachpkg.mod.__file__)
    found = _by_name(reachability.definitions())
    assert (path, found["mod.py", "outer"].first_line) in reached
    assert (path, found["mod.py", "outer.inner"].first_line) in reached
    assert (path, found["mod.py", "called"].first_line) not in reached
    assert (path, found["mod.py", "uncalled"].first_line) not in reached


def test_trace_sees_calls_made_on_other_threads(package, monkeypatch):
    import reachpkg.mod

    def surface(quick):
        thread = threading.Thread(target=reachpkg.mod.called)
        thread.start()
        thread.join()

    monkeypatch.setattr(reachability, "SURFACES", (surface,))
    reached = reachability.reached_code(quick=False)
    line = _by_name(reachability.definitions())["mod.py", "called"].first_line
    assert (os.path.realpath(reachpkg.mod.__file__), line) in reached


def test_trace_passes_quick_to_every_surface(monkeypatch):
    seen = []
    monkeypatch.setattr(reachability, "SURFACES", (seen.append, seen.append))
    reachability.reached_code(quick=True)
    assert seen == [True, True]


def test_trace_removes_its_profiler_when_a_surface_fails(monkeypatch):
    def failing(quick):
        raise RuntimeError("surface failed")

    monkeypatch.setattr(reachability, "SURFACES", (failing,))
    before = sys.getprofile()
    with pytest.raises(RuntimeError, match="surface failed"):
        reachability.reached_code(quick=False)
    assert sys.getprofile() is before


def test_report_lists_each_unreached_definition_with_its_lines(package, monkeypatch, capsys):
    import reachpkg.mod
    import reachpkg.sub.leaf

    def surface(quick):
        reachpkg.mod.called()
        reachpkg.mod.outer()
        reachpkg.mod.Shape().area()
        reachpkg.sub.leaf.leaf()

    monkeypatch.setattr(reachability, "SURFACES", (surface,))
    monkeypatch.setattr(sys, "argv", ["reachability.py"])
    assert reachability.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("5 of 7 function definitions in src/repro reached; 0 left out")
    assert lines[1] == "2 unreached by the user surfaces, 7 lines:"
    assert lines[2:] == ["  mod.py:8  uncalled  (3 lines)", "  mod.py:17  Shape.decorated  (4 lines)"]


def test_report_never_lists_a_left_out_definition(tmp_path, monkeypatch, capsys):
    root = tmp_path.resolve() / "pkg"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "jitpath.py").write_text("def kernel():\n    pass\n", encoding="utf-8")
    (root / "core.py").write_text("def unused():\n    pass\n", encoding="utf-8")
    monkeypatch.setattr(reachability, "PACKAGE", root)
    monkeypatch.setattr(reachability, "SURFACES", ())
    monkeypatch.setattr(sys, "argv", ["reachability.py", "--quick"])
    assert reachability.main() == 0
    out = capsys.readouterr().out
    assert "0 of 2 function definitions in src/repro reached; 1 left out" in out
    assert "  core.py:1  unused  (2 lines)" in out
    assert "kernel" not in out
