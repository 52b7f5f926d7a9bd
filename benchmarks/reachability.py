#!/usr/bin/env python3
"""Which functions of ``src/repro`` do the user surfaces reach?

Runs every user surface of the package in this one interpreter, on the
serial backend, under a function-level ``sys.setprofile`` tracer, then
prints each function definition in ``src/repro`` that no surface called,
with its line count.  A function on that list runs only under the tests
(or not at all): the candidates for deletion, under the rule that a path
stays only if it shows a measured win or the paper needs it.

The surfaces:

* the six examples, ``reproduce_paper.py`` at full scale and
  ``governor_comparison.py`` with ``--serial``;
* the ``repro-campaign`` CLI on e2ebench's ``paper-grid`` and ``rl-sweep``
  specs (seed 1): a plain run, two checkpointed shards, their merge (which
  must be ``cmp``-equal to the plain run's store), a resume from the plain
  run, and an eager and a lazy reload of the merged store rendered with
  ``format_campaign_summary``;
* ``repro-parity check`` against ``tests/goldens`` and ``repro-parity fuzz
  --seeds 5``.

Left out, and never listed: ``repro.sim.jitpath`` (numba), the service and
the CLI's ``serve``/``work`` subcommands (they run in subprocesses), and
the fault-injection harness that tests the service.

``--quick`` runs ``reproduce_paper.py --quick`` and the CLI on 60-frame
versions of the two specs; it may list a function that only the full scale
reaches.

Usage (from any directory)::

    python benchmarks/reachability.py [--quick]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import filecmp
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = ROOT / "examples"
E2EBENCH = ROOT / "e2ebench"
sys.path.insert(0, str(SRC))

#: Modules the surfaces do not run, relative to ``src/repro``.
EXCLUDED_MODULES = (
    "sim/jitpath.py",
    "campaign/service.py",
    "campaign/faults.py",
    "testing/faults.py",
)
#: Functions (and everything nested in them) the surfaces do not run.
EXCLUDED_FUNCTIONS = (("campaign/cli.py", "_serve_main"), ("campaign/cli.py", "_work_main"))
#: Frames per scenario of the CLI specs under ``--quick``.
QUICK_FRAMES = 60


class Definition(NamedTuple):
    """One ``def`` in ``src/repro``."""

    module: str  # path relative to src/repro
    qualname: str
    first_line: int  # the code object's co_firstlineno (first decorator, if any)
    lines: int  # source lines from first_line to the end of the body

    @property
    def excluded(self) -> bool:
        if self.module in EXCLUDED_MODULES:
            return True
        return any(
            self.module == module and self.qualname.split(".")[0] == name
            for module, name in EXCLUDED_FUNCTIONS
        )


def definitions() -> List[Definition]:
    """Every function and method definition in ``src/repro``, in file order."""
    found: List[Definition] = []

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append(Definition(module, qualname, first, child.end_lineno - first + 1))
                visit(child, module, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), module, "")
    return found


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------


def _quietly(call: Callable[[], object]) -> object:
    with contextlib.redirect_stdout(io.StringIO()):
        return call()


def run_examples(quick: bool) -> None:
    arguments = {
        "reproduce_paper.py": ["--backend", "serial", *(["--quick"] if quick else [])],
        "governor_comparison.py": ["--serial"],
    }
    saved = sys.argv
    try:
        for script in sorted(EXAMPLES.glob("*.py")):
            sys.argv = [str(script), *arguments.get(script.name, [])]
            print(f"  example {script.name} {' '.join(sys.argv[1:])}", file=sys.stderr)
            _quietly(lambda: runpy.run_path(str(script), run_name="__main__"))
    finally:
        sys.argv = saved


def _e2ebench_specs(quick: bool) -> Dict[str, object]:
    """e2ebench's ``paper-grid`` and ``rl-sweep`` specs at seed 1."""
    sys.path.insert(0, str(E2EBENCH))
    spec = importlib.util.spec_from_file_location("e2ebench_run", E2EBENCH / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    if quick:
        bench.PAPER_GRID_FRAMES = bench.RL_SWEEP_FRAMES = QUICK_FRAMES
    return {
        "paper-grid": bench.paper_grid(bench.DEFAULT_SEED),
        "rl-sweep": bench.rl_sweep_grid(bench.DEFAULT_SEED),
    }


def run_cli(quick: bool) -> None:
    from repro.analysis.reporting import format_campaign_summary
    from repro.campaign import cli
    from repro.campaign.results import CampaignResult

    def campaign(*argv: str) -> None:
        code = _quietly(lambda: cli.main(list(argv)))
        if code != 0:
            raise RuntimeError(f"repro-campaign {' '.join(argv)} exited {code}")

    with tempfile.TemporaryDirectory(prefix="reachability-") as workdir:
        for name, spec in _e2ebench_specs(quick).items():
            print(f"  repro-campaign on {name} ({len(spec)} scenarios)", file=sys.stderr)
            directory = Path(workdir) / name
            directory.mkdir()
            spec_path = str(directory / "spec.json")
            spec.save(spec_path)
            plain = str(directory / "plain.store")
            campaign(spec_path, "--output", plain, "--quiet")
            shards = []
            for index in range(2):
                shards.append(str(directory / f"shard{index}.store"))
                campaign(
                    spec_path, "--shard", f"{index}/2", "--store", "arrow",
                    "--checkpoint", str(directory / f"shard{index}.ckpt"),
                    "--output", shards[-1], "--quiet",
                )
            merged = str(directory / "merged.store")
            campaign(
                "merge", *shards, "--spec", spec_path, "--store", "arrow",
                "--output", merged, "--quiet",
            )
            if not filecmp.cmp(merged, plain, shallow=False):
                raise RuntimeError(f"{name}: the merged shards differ from the plain run")
            resumed = str(directory / "resumed.store")
            campaign(spec_path, "--resume", plain, "--output", resumed, "--quiet")
            for lazy in (False, True):
                format_campaign_summary(CampaignResult.load(merged, lazy=lazy))


def run_parity(quick: bool) -> None:
    from repro.testing.parity import cli as parity

    goldens = str(ROOT / "tests" / "goldens")
    for argv in (["check", "--goldens-dir", goldens], ["fuzz", "--seeds", "5"]):
        print(f"  repro-parity {' '.join(argv[:1] + argv[-2:])}", file=sys.stderr)
        code = _quietly(lambda: parity.main(argv))
        if code != 0:
            raise RuntimeError(f"repro-parity {' '.join(argv)} exited {code}")


SURFACES = (run_examples, run_cli, run_parity)


def reached_code(quick: bool) -> Set[Tuple[str, int]]:
    """``(filename, co_firstlineno)`` of every code object the surfaces called."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for surface in SURFACES:
            surface(quick)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run reproduce_paper.py --quick and the CLI on 60-frame specs",
    )
    arguments = parser.parse_args()

    print("tracing the user surfaces:", file=sys.stderr)
    reached = reached_code(arguments.quick)
    everything = definitions()
    unreached = [
        definition
        for definition in everything
        if not definition.excluded
        and (str(PACKAGE / definition.module), definition.first_line) not in reached
    ]
    excluded = sum(definition.excluded for definition in everything)
    print(
        f"{len(everything) - excluded - len(unreached)} of {len(everything)} function "
        f"definitions in src/repro reached; {excluded} left out (jitpath, the service, "
        f"faults, serve/work)"
    )
    print(
        f"{len(unreached)} unreached by the user surfaces, "
        f"{sum(definition.lines for definition in unreached)} lines:"
    )
    for definition in unreached:
        print(
            f"  {definition.module}:{definition.first_line}  "
            f"{definition.qualname}  ({definition.lines} lines)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
