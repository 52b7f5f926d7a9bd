"""Tests for the CI bench regression gate (benchmarks/check_bench_regression.py)."""

import importlib.util
import json
import os

import pytest

_GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "check_bench_regression.py",
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def results(
    fast=100_000.0, scalar=10_000.0, table_scalar=5_000.0, scenario="mpeg4/oracle"
):
    return {
        "vectorized_fast_path": [
            {
                "scenario": scenario,
                "fast_frames_per_s": fast,
                "scalar_frames_per_s": scalar,
            }
        ],
        "table_closed_loop": [
            {
                "scenario": "mpeg4/ondemand",
                "table_frames_per_s": 50_000.0,
                "cold_table_frames_per_s": 40_000.0,
                "scalar_frames_per_s": table_scalar,
            }
        ],
    }


class TestCompare:
    def test_identical_results_pass(self):
        assert gate.compare(results(), results(), tolerance=0.30) == []

    def test_within_tolerance_passes(self):
        current = results(fast=75_000.0)  # -25% with 30% tolerance
        assert gate.compare(current, results(), tolerance=0.30) == []

    def test_regression_beyond_tolerance_fails(self):
        current = results(fast=60_000.0)  # -40%
        failures = gate.compare(current, results(), tolerance=0.30)
        assert len(failures) == 1
        assert "mpeg4/oracle" in failures[0]
        assert "fast_frames_per_s" in failures[0]

    def test_faster_than_baseline_passes(self):
        assert gate.compare(results(fast=1e9), results(), tolerance=0.0) == []

    def test_every_gated_metric_checked(self):
        current = results(scalar=1.0, table_scalar=1.0)
        failures = gate.compare(current, results(), tolerance=0.30)
        assert len(failures) == 2
        assert any(f.startswith("vectorized_fast_path/") for f in failures)
        assert any(f.startswith("table_closed_loop/") for f in failures)
        assert all("scalar_frames_per_s" in f for f in failures)

    def test_missing_scenario_fails(self):
        current = results()
        current["vectorized_fast_path"] = []
        failures = gate.compare(current, results(), tolerance=0.30)
        assert any("missing from current results" in f for f in failures)

    def test_scenarios_only_in_current_are_ignored(self):
        baseline = results()
        current = results()
        current["vectorized_fast_path"].append(
            {"scenario": "new/thing", "fast_frames_per_s": 1.0, "scalar_frames_per_s": 1.0}
        )
        assert gate.compare(current, baseline, tolerance=0.30) == []


class TestMain:
    def _write(self, path, data):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def test_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        self._write(base, results())
        self._write(good, results())
        self._write(bad, results(fast=1.0))
        passing = gate.main([str(good), "--baseline", str(base)])
        assert passing == 0
        assert "PASS" in capsys.readouterr().out
        failing = gate.main([str(bad), "--baseline", str(base)])
        assert failing == 1
        assert "FAIL" in capsys.readouterr().err

    def test_tolerance_validated(self, tmp_path):
        path = tmp_path / "r.json"
        self._write(path, results())
        with pytest.raises(SystemExit):
            gate.main([str(path), "--baseline", str(path), "--tolerance", "1.5"])

    def test_committed_smoke_baseline_is_wellformed(self):
        baseline_path = os.path.join(
            os.path.dirname(_GATE_PATH), "BENCH_baseline_smoke.json"
        )
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert baseline["mode"] == "smoke"
        for section, metric in gate.GATED_METRICS:
            rows = baseline[section]
            if gate._section_skipped(baseline, section):
                # Optional-backend sections (jit_closed_loop on numba-less
                # baseline boxes) may be recorded empty, but only with an
                # explanatory <section>_note sibling.
                continue
            assert rows, f"baseline section {section} is empty"
            for row in rows:
                assert float(row[metric]) > 0
