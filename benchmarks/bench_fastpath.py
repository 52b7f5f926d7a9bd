"""Benchmark the simulation engine backends and write ``BENCH_results.json``.

Four measurements, matching the tiers of the performance work:

* **Static-schedule fast path** (the ``vectorized_fast_path`` section,
  named for the numpy kernel it once timed): every static-schedule
  governor (performance, powersave, userspace, oracle) across the paper's
  application traces, scalar engine vs the plain-Python whole-trace
  engine in :mod:`repro.sim.fastpath`.  Each pair is also checked
  for numerical equivalence (energy within 1e-9 relative, identical
  deadline-miss sets) so a speedup can never be bought with wrong numbers.
* **Table-driven closed loop**: the closed-loop governors the paper
  actually studies (ondemand, conservative, the single-cluster Q-learning
  RTM and the paper's many-core ``proposed`` learner), scalar
  engine vs :mod:`repro.sim.tablepath` — both with freshly built physics
  tables (a cold single run) and with tables shared across runs, the
  campaign-grid configuration where the executor's per-worker cache
  applies.  Equivalence here additionally demands identical operating-point
  trajectories, exploration counts and final Q-tables.
* **Thermally-coupled closed loop**: the same closed-loop governors on a
  thermally-*enabled* cluster, scalar engine vs :mod:`repro.sim.tablepath`
  (pinned) carrying the live RC thermal state — the scenarios closest to
  the paper's thermally-constrained hardware.  Equivalence additionally
  demands per-frame temperatures within 1e-9 relative.
* **Compiled JIT closed loop**: the same closed-loop governors against the
  numba-compiled kernel backend (:mod:`repro.sim.jitpath`), isothermal and
  thermal, baselined on the engine the run would take without numba
  (``tablepath``) over the same shared tables.  Results
  must be *identical* — bit-identity is the compiled path's contract.  On
  runners without numba the section is recorded empty with a
  ``jit_closed_loop_note`` explaining the skip.

The output carries a ``metadata`` block (python/numpy versions, CPU
count, platform, git sha) so archived results are attributable to the
box and tree that produced them; the regression gate never compares it.

Run as a script to (re)generate the tracked perf trajectory::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke --output BENCH_results.json

or through pytest (``pytest benchmarks/bench_fastpath.py``) for the
assertion-bearing smoke versions of the same measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from typing import Callable, Dict, List

from repro.governors.conservative import ConservativeGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor
from repro.sim import jitpath, tablepath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.video import h264_application, mpeg4_application

APPLICATIONS: Dict[str, Callable[..., object]] = {
    "mpeg4": mpeg4_application,
    "h264": h264_application,
    "fft": fft_application,
}

VECTOR_GOVERNORS: Dict[str, Callable[[], object]] = {
    "oracle": OracleGovernor,
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "userspace": lambda: UserspaceGovernor(index=9),
}

TABLE_GOVERNORS: Dict[str, Callable[[], object]] = {
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "rl": RLGovernor,
}

#: The table-path section also times the paper's many-core learner (one
#: workload predictor per core, shared Q-table), which the jit kernel does
#: not run, so it is not in :data:`TABLE_GOVERNORS`.
TABLE_SECTION_GOVERNORS: Dict[str, Callable[[], object]] = {
    **TABLE_GOVERNORS,
    "proposed": MultiCoreRLGovernor,
}


def _run_metadata() -> Dict[str, object]:
    """Provenance of a benchmark run: interpreter, numpy, box and tree.

    Purely informational — ``check_bench_regression.py`` compares only the
    benchmark sections, never this block — but it makes an archived
    ``BENCH_results.json`` attributable when numbers shift between runs.
    """
    try:
        import numpy

        numpy_version: object = numpy.__version__
    except ImportError:  # the scalar engine still benchmarks without numpy
        numpy_version = None
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_sha = probe.stdout.strip() if probe.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha,
    }


def _best_of(callable_, repeats: int) -> float:
    """Best wall-clock of ``repeats`` calls (least-noise point estimate).

    One untimed warm-up call precedes the timed repeats so first-call
    effects — numba JIT compilation on the compiled backend, but also cold
    caches and lazy imports on every other — never pollute the measurement.
    """
    callable_()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _check_equivalence(scalar, fast) -> Dict[str, object]:
    """Max relative errors + miss-set identity between the two engines."""
    max_energy_err = 0.0
    max_time_err = 0.0
    for fast_record, scalar_record in zip(fast.records, scalar.records):
        if scalar_record.operating_index != fast_record.operating_index:
            raise AssertionError("fast path chose a different operating point")
        max_energy_err = max(
            max_energy_err,
            abs(fast_record.energy_j - scalar_record.energy_j)
            / abs(scalar_record.energy_j),
        )
        max_time_err = max(
            max_time_err,
            abs(fast_record.interval_s - scalar_record.interval_s)
            / abs(scalar_record.interval_s),
        )
    scalar_misses = [r.index for r in scalar.records if not r.met_deadline]
    fast_misses = [r.index for r in fast.records if not r.met_deadline]
    if scalar_misses != fast_misses:
        raise AssertionError("fast path produced a different deadline-miss set")
    if max_energy_err > 1e-9 or max_time_err > 1e-9:
        raise AssertionError(
            f"fast path diverged: energy rel err {max_energy_err:.2e}, "
            f"time rel err {max_time_err:.2e}"
        )
    return {
        "max_rel_energy_err": max_energy_err,
        "max_rel_time_err": max_time_err,
        "miss_sets_identical": True,
    }


def bench_vectorized(num_frames: int, repeats: int = 3) -> List[Dict[str, object]]:
    """Scalar vs static-schedule engine across the static-schedule grid."""
    rows: List[Dict[str, object]] = []
    for app_name, app_factory in APPLICATIONS.items():
        application = app_factory(num_frames=num_frames, seed=11)
        for gov_name, gov_factory in VECTOR_GOVERNORS.items():

            def scalar_run():
                return SimulationEngine(
                    build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
                ).run(application, gov_factory())

            def fast_run():
                engine = SimulationEngine(build_a15_cluster())
                result = engine.run(application, gov_factory())
                if engine.engine_used != "fastpath":
                    raise AssertionError(f"{gov_name} did not take the fast path")
                return result

            equivalence = _check_equivalence(scalar_run(), fast_run())
            scalar_s = _best_of(scalar_run, repeats)
            fast_s = _best_of(fast_run, repeats)
            rows.append(
                {
                    "scenario": f"{app_name}/{gov_name}",
                    "application": app_name,
                    "governor": gov_name,
                    "frames": num_frames,
                    "scalar_wall_s": scalar_s,
                    "fast_wall_s": fast_s,
                    "scalar_frames_per_s": num_frames / scalar_s,
                    "fast_frames_per_s": num_frames / fast_s,
                    "speedup": scalar_s / fast_s,
                    **equivalence,
                }
            )
    return rows


def _check_closed_loop_equivalence(scalar_pair, table_pair) -> Dict[str, object]:
    """Strict equivalence for closed-loop runs: trajectory, learning state, 1e-9."""
    scalar, scalar_governor = scalar_pair
    table, table_governor = table_pair
    base = _check_equivalence(scalar, table)
    if scalar.exploration_count != table.exploration_count:
        raise AssertionError("table path produced a different exploration count")
    if scalar.converged_epoch != table.converged_epoch:
        raise AssertionError("table path produced a different convergence epoch")
    # None = the governor has no Q-table to compare (reactive baselines);
    # True is only reported when the tables were actually checked.
    qtables_identical = None
    if hasattr(scalar_governor, "agent"):
        scalar_qtable = scalar_governor.agent.qtable
        table_qtable = table_governor.agent.qtable
        for state in range(scalar_qtable.num_states):
            if scalar_qtable.row(state) != table_qtable.row(state):
                raise AssertionError("table path learnt a different Q-table")
        qtables_identical = True
    return {
        **base,
        "exploration_counts_identical": True,
        "qtables_identical": qtables_identical,
    }


def bench_table_closed_loop(num_frames: int, repeats: int = 3) -> List[Dict[str, object]]:
    """Scalar vs table-driven engine across the closed-loop governors.

    Two table-path timings per scenario: ``cold`` builds the physics tables
    inside the measured run (a standalone simulation), ``shared`` supplies
    prebuilt tables through a provider — the campaign configuration, where
    the executor caches tables across the scenarios of a grid that share an
    application and cluster.  ``speedup`` reports the shared-tables case
    (the configuration the campaign executor actually runs); the cold case
    is recorded alongside as ``speedup_cold_tables``.
    """
    rows: List[Dict[str, object]] = []
    application = mpeg4_application(num_frames=num_frames, seed=11)
    shared_tables = tablepath.precompute_tables(
        build_a15_cluster(), application, SimulationConfig()
    )

    def shared_provider(cluster, app, config):
        return shared_tables

    for gov_name, gov_factory in TABLE_SECTION_GOVERNORS.items():

        def scalar_run():
            governor = gov_factory()
            engine = SimulationEngine(
                build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
            )
            return engine.run(application, governor), governor

        def table_run(provider=None):
            governor = gov_factory()
            engine = SimulationEngine(
                build_a15_cluster(), SimulationConfig(), table_provider=provider
            )
            result = engine.run(application, governor)
            if engine.engine_used != "tablepath":
                raise AssertionError(f"{gov_name} did not take the table path")
            return result, governor

        equivalence = _check_closed_loop_equivalence(scalar_run(), table_run())
        scalar_s = _best_of(lambda: scalar_run(), repeats)
        cold_s = _best_of(lambda: table_run(), repeats)
        shared_s = _best_of(lambda: table_run(shared_provider), repeats)
        rows.append(
            {
                "scenario": f"mpeg4/{gov_name}",
                "governor": gov_name,
                "frames": num_frames,
                "scalar_wall_s": scalar_s,
                "table_wall_s": shared_s,
                "cold_table_wall_s": cold_s,
                "scalar_frames_per_s": num_frames / scalar_s,
                "table_frames_per_s": num_frames / shared_s,
                "cold_table_frames_per_s": num_frames / cold_s,
                "speedup": scalar_s / shared_s,
                "speedup_cold_tables": scalar_s / cold_s,
                **equivalence,
            }
        )
    return rows


def _check_thermal_equivalence(scalar_pair, thermal_pair) -> Dict[str, object]:
    """Closed-loop equivalence plus per-frame temperatures within 1e-9."""
    base = _check_closed_loop_equivalence(scalar_pair, thermal_pair)
    scalar, _ = scalar_pair
    thermal, _ = thermal_pair
    max_temperature_err = 0.0
    for thermal_record, scalar_record in zip(thermal.records, scalar.records):
        max_temperature_err = max(
            max_temperature_err,
            abs(thermal_record.temperature_c - scalar_record.temperature_c)
            / abs(scalar_record.temperature_c),
        )
    if max_temperature_err > 1e-9:
        raise AssertionError(
            f"thermal path diverged: temperature rel err {max_temperature_err:.2e}"
        )
    return {**base, "max_rel_temperature_err": max_temperature_err}


def bench_thermal_closed_loop(
    num_frames: int, repeats: int = 3
) -> List[Dict[str, object]]:
    """Scalar vs the table engine on a thermally-enabled cluster.

    Same shape as :func:`bench_table_closed_loop` — ``cold`` builds the
    thermal physics tables inside the measured run, ``shared`` supplies
    prebuilt tables through a provider (the campaign configuration, which
    also keeps the lazily-filled temperature power slices warm).
    """
    rows: List[Dict[str, object]] = []
    application = mpeg4_application(num_frames=num_frames, seed=11)

    def thermal_cluster():
        return build_a15_cluster(enable_thermal=True)

    shared_tables = tablepath.precompute_tables(
        thermal_cluster(), application, SimulationConfig()
    )

    def shared_provider(cluster, app, config):
        return shared_tables

    for gov_name, gov_factory in TABLE_GOVERNORS.items():

        def scalar_run():
            governor = gov_factory()
            engine = SimulationEngine(thermal_cluster(), engine="scalar")
            return engine.run(application, governor), governor

        def thermal_run(provider=None):
            governor = gov_factory()
            engine = SimulationEngine(
                thermal_cluster(), table_provider=provider, engine="tablepath"
            )
            result = engine.run(application, governor)
            return result, governor

        equivalence = _check_thermal_equivalence(scalar_run(), thermal_run())
        scalar_s = _best_of(lambda: scalar_run(), repeats)
        cold_s = _best_of(lambda: thermal_run(), repeats)
        shared_s = _best_of(lambda: thermal_run(shared_provider), repeats)
        rows.append(
            {
                "scenario": f"mpeg4/{gov_name}",
                "governor": gov_name,
                "frames": num_frames,
                "scalar_wall_s": scalar_s,
                "thermal_wall_s": shared_s,
                "cold_thermal_wall_s": cold_s,
                "scalar_frames_per_s": num_frames / scalar_s,
                "thermal_frames_per_s": num_frames / shared_s,
                "cold_thermal_frames_per_s": num_frames / cold_s,
                "speedup": scalar_s / shared_s,
                "speedup_cold_tables": scalar_s / cold_s,
                **equivalence,
            }
        )
    return rows


def bench_jit_closed_loop(num_frames: int, repeats: int = 3) -> List[Dict[str, object]]:
    """Table engines vs the compiled (numba) kernel backend.

    mpeg4 x {ondemand, conservative, rl} on both the isothermal and the
    thermally-enabled cluster; the baseline is the engine the run would
    take without numba (``tablepath``), both sides pinned
    and fed the same shared precomputed tables.  Results must be
    *identical* (bit-identity is the compiled path's contract), not merely
    close.  Returns no rows when the kernels are not compiled (no numba,
    or ``REPRO_DISABLE_JIT`` set at import) — the suite records the skip as
    a note instead of fabricating numbers.
    """
    if not jitpath.compiled():
        return []
    rows: List[Dict[str, object]] = []
    application = mpeg4_application(num_frames=num_frames, seed=11)
    for thermal in (False, True):

        def cluster_factory(thermal=thermal):
            return build_a15_cluster(enable_thermal=thermal)

        shared_tables = tablepath.precompute_tables(
            cluster_factory(), application, SimulationConfig()
        )

        def shared_provider(cluster, app, config, tables=shared_tables):
            return tables

        for gov_name, gov_factory in TABLE_GOVERNORS.items():

            def baseline_run(gov_factory=gov_factory, cluster_factory=cluster_factory):
                governor = gov_factory()
                result = SimulationEngine(
                    cluster_factory(),
                    SimulationConfig(),
                    engine="tablepath",
                    table_provider=shared_provider,
                ).run(application, governor)
                return result, governor

            def jit_run(gov_factory=gov_factory, cluster_factory=cluster_factory):
                governor = gov_factory()
                result = SimulationEngine(
                    cluster_factory(),
                    SimulationConfig(),
                    engine="jitpath",
                    table_provider=shared_provider,
                ).run(application, governor)
                return result, governor

            baseline_pair = baseline_run()
            jit_pair = jit_run()
            equivalence = _check_closed_loop_equivalence(baseline_pair, jit_pair)
            if [r.energy_j for r in baseline_pair[0].records] != [
                r.energy_j for r in jit_pair[0].records
            ]:
                raise AssertionError("jit kernels produced different energies")
            baseline_s = _best_of(lambda: baseline_run(), repeats)
            jit_s = _best_of(lambda: jit_run(), repeats)
            mode = "thermal" if thermal else "iso"
            rows.append(
                {
                    "scenario": f"mpeg4-{mode}/{gov_name}",
                    "governor": gov_name,
                    "mode": mode,
                    "frames": num_frames,
                    "baseline_engine": "tablepath",
                    "baseline_wall_s": baseline_s,
                    "jit_wall_s": jit_s,
                    "baseline_frames_per_s": num_frames / baseline_s,
                    "jit_frames_per_s": num_frames / jit_s,
                    "speedup": baseline_s / jit_s,
                    "results_identical": True,
                    **equivalence,
                }
            )
    return rows


#: Note recorded in place of ``jit_closed_loop`` rows on numba-less runners.
JIT_SKIP_NOTE = (
    "skipped: compiled kernels unavailable "
    "(numba not importable — install the 'jit' extra — or REPRO_DISABLE_JIT set)"
)


def run_suite(num_frames: int, repeats: int, smoke: bool) -> Dict[str, object]:
    vectorized = bench_vectorized(num_frames, repeats)
    table = bench_table_closed_loop(num_frames, repeats)
    thermal = bench_thermal_closed_loop(num_frames, repeats)
    jit = bench_jit_closed_loop(num_frames, repeats)
    speedups = [row["speedup"] for row in vectorized]
    table_speedups = {row["governor"]: row["speedup"] for row in table}
    thermal_speedups = {row["governor"]: row["speedup"] for row in thermal}
    summary = {
        "vectorized_speedup_min": min(speedups),
        "vectorized_speedup_median": statistics.median(speedups),
        "vectorized_speedup_max": max(speedups),
        "table_closed_loop_speedup": table_speedups,
        "table_closed_loop_speedup_min": min(table_speedups.values()),
        "thermal_closed_loop_speedup": thermal_speedups,
        "thermal_closed_loop_speedup_min": min(thermal_speedups.values()),
    }
    if jit:
        jit_speedups = {row["scenario"]: row["speedup"] for row in jit}
        summary["jit_closed_loop_speedup"] = jit_speedups
        summary["jit_closed_loop_speedup_min"] = min(jit_speedups.values())
    results: Dict[str, object] = {
        "generated_by": "benchmarks/bench_fastpath.py",
        "mode": "smoke" if smoke else "full",
        "frames_per_scenario": num_frames,
        "repeats": repeats,
        "metadata": _run_metadata(),
        "vectorized_fast_path": vectorized,
        "table_closed_loop": table,
        "thermal_closed_loop": thermal,
        # Always a list (the regression gate indexes every section by rows);
        # the sibling note marks a deliberate skip, never silent truncation.
        "jit_closed_loop": jit,
        "summary": summary,
    }
    if not jit:
        results["jit_closed_loop_note"] = JIT_SKIP_NOTE
    return results


# -- pytest entry points (explicit: `pytest benchmarks/bench_fastpath.py`) -----
def test_bench_vectorized_speedup_and_equivalence():
    rows = bench_vectorized(num_frames=600, repeats=2)
    for row in rows:
        assert row["miss_sets_identical"]
        assert row["max_rel_energy_err"] <= 1e-9
    oracle_speedups = [r["speedup"] for r in rows if r["governor"] == "oracle"]
    print()
    for row in rows:
        print(
            f"{row['scenario']:24s} scalar {row['scalar_frames_per_s']:9.0f} f/s  "
            f"fast {row['fast_frames_per_s']:10.0f} f/s  ({row['speedup']:.1f}x)"
        )
    assert min(oracle_speedups) >= 3.0  # conservative floor for noisy CI boxes


def test_bench_table_closed_loop_speedup_and_equivalence():
    rows = bench_table_closed_loop(num_frames=600, repeats=2)
    print()
    for row in rows:
        print(
            f"{row['scenario']:24s} scalar {row['scalar_frames_per_s']:9.0f} f/s  "
            f"table {row['table_frames_per_s']:10.0f} f/s  "
            f"({row['speedup']:.1f}x shared, {row['speedup_cold_tables']:.1f}x cold)"
        )
    for row in rows:
        assert row["miss_sets_identical"]
        assert row["exploration_counts_identical"]
        if row["governor"] in ("rl", "proposed"):  # learners compare Q-tables
            assert row["qtables_identical"] is True
        assert row["max_rel_energy_err"] <= 1e-9
        # Conservative floors for noisy CI boxes; the tracked numbers in
        # BENCH_results.json carry the actual speedups (>= 3x per scenario
        # on the reference box).  The many-core learner's decision (a
        # predictor per core, the shared Q-table) is the same Python in
        # both engines and bounds its speedup: 600-frame runs read
        # 1.7x-4.0x on a 2-vCPU box, so its floor is 1.5x.
        assert row["speedup"] >= (1.5 if row["governor"] == "proposed" else 2.0)
    reactive = [r["speedup"] for r in rows if r["governor"] in ("ondemand", "conservative")]
    assert min(reactive) >= 3.0


def test_bench_thermal_closed_loop_speedup_and_equivalence():
    rows = bench_thermal_closed_loop(num_frames=600, repeats=2)
    print()
    for row in rows:
        print(
            f"{row['scenario']:24s} scalar {row['scalar_frames_per_s']:9.0f} f/s  "
            f"thermal {row['thermal_frames_per_s']:8.0f} f/s  "
            f"({row['speedup']:.1f}x shared, {row['speedup_cold_tables']:.1f}x cold)"
        )
    for row in rows:
        assert row["miss_sets_identical"]
        assert row["exploration_counts_identical"]
        if row["governor"] == "rl":  # the learning scenario compares Q-tables
            assert row["qtables_identical"] is True
        assert row["max_rel_energy_err"] <= 1e-9
        assert row["max_rel_temperature_err"] <= 1e-9
        # Conservative floors for noisy CI boxes; the tracked numbers in
        # BENCH_results.json carry the actual speedups (>= 3x per scenario
        # on the reference box).
        assert row["speedup"] >= 2.0
    reactive = [r["speedup"] for r in rows if r["governor"] in ("ondemand", "conservative")]
    assert min(reactive) >= 3.0


def test_bench_jit_closed_loop_speedup_and_identity():
    import pytest

    if not jitpath.compiled():
        pytest.skip("compiled kernels unavailable (no numba / REPRO_DISABLE_JIT)")
    rows = bench_jit_closed_loop(num_frames=600, repeats=2)
    print()
    for row in rows:
        print(
            f"{row['scenario']:24s} {row['baseline_engine']} "
            f"{row['baseline_frames_per_s']:9.0f} f/s  "
            f"jit {row['jit_frames_per_s']:10.0f} f/s  ({row['speedup']:.1f}x)"
        )
    assert rows, "compiled path available but produced no bench rows"
    for row in rows:
        assert row["results_identical"]
        assert row["miss_sets_identical"]
        assert row["exploration_counts_identical"]
        if row["governor"] == "rl":  # the learning scenario compares Q-tables
            assert row["qtables_identical"] is True
        # Acceptance floor: >= 2x over tablepath on the isothermal smoke
        # scenarios (post-warm-up, so compilation is never in the timing);
        # a conservative floor on the thermal rows absorbs CI noise.
        if row["mode"] == "iso":
            assert row["speedup"] >= 2.0
        else:
            assert row["speedup"] >= 1.5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_results.json", help="where to write the results"
    )
    parser.add_argument(
        "--frames", type=int, default=3000, help="frames per scenario (full mode)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--smoke", action="store_true", help="reduced scale for CI (600 frames)"
    )
    args = parser.parse_args()
    num_frames = 600 if args.smoke else args.frames

    results = run_suite(num_frames, args.repeats, args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    for row in results["vectorized_fast_path"]:
        print(
            f"  {row['scenario']:24s} {row['scalar_frames_per_s']:9.0f} -> "
            f"{row['fast_frames_per_s']:10.0f} frames/s  ({row['speedup']:.1f}x)"
        )
    for row in results["table_closed_loop"]:
        print(
            f"  {row['scenario']:24s} {row['scalar_frames_per_s']:9.0f} -> "
            f"{row['table_frames_per_s']:10.0f} frames/s  "
            f"({row['speedup']:.1f}x shared, {row['speedup_cold_tables']:.1f}x cold)"
        )
    for row in results["thermal_closed_loop"]:
        print(
            f"  thermal/{row['scenario']:16s} {row['scalar_frames_per_s']:9.0f} -> "
            f"{row['thermal_frames_per_s']:10.0f} frames/s  "
            f"({row['speedup']:.1f}x shared, {row['speedup_cold_tables']:.1f}x cold)"
        )
    if results["jit_closed_loop"]:
        for row in results["jit_closed_loop"]:
            print(
                f"  jit/{row['scenario']:20s} {row['baseline_frames_per_s']:9.0f} -> "
                f"{row['jit_frames_per_s']:10.0f} frames/s  "
                f"({row['speedup']:.1f}x over {row['baseline_engine']})"
            )
    else:
        print(f"  jit_closed_loop: {results['jit_closed_loop_note']}")


if __name__ == "__main__":
    main()
