"""Tests for the simulation engine, results, metrics and comparison."""

import pytest

from repro.errors import SimulationError
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor
from repro.sim.comparison import compare_to_oracle, pairwise_energy_saving
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.epoch import FrameRecord
from repro.sim.metrics import frequency_histogram, summarize_result
from repro.sim.results import SimulationResult
from repro.workload.video import mpeg4_application
from tests.conftest import make_constant_application, run_governors


class TestSimulationEngine:
    def test_produces_one_record_per_frame(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        result = engine.run(constant_application, PerformanceGovernor())
        assert result.num_frames == constant_application.num_frames
        assert all(isinstance(r, FrameRecord) for r in result.records)
        assert result.governor_name == "performance"
        assert result.application_name == constant_application.name

    def test_performance_governor_meets_all_deadlines(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        result = engine.run(constant_application, PerformanceGovernor())
        assert result.deadline_miss_ratio == 0.0
        assert all(r.operating_index == len(a15_cluster.vf_table) - 1 for r in result.records)

    def test_powersave_governor_misses_deadlines_on_heavy_load(self, a15_cluster):
        application = make_constant_application(num_frames=20, cycles_per_thread=4e7)
        engine = SimulationEngine(a15_cluster)
        result = engine.run(application, PowersaveGovernor())
        assert result.deadline_miss_ratio == 1.0
        assert result.normalized_performance > 1.0

    def test_oracle_beats_performance_governor_on_energy(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        performance = engine.run(constant_application, PerformanceGovernor())
        oracle = engine.run(constant_application, OracleGovernor())
        assert oracle.total_energy_j < performance.total_energy_j
        assert oracle.deadline_miss_ratio == 0.0

    def test_idle_until_deadline_pads_interval(self, a15_cluster, constant_application):
        padded = SimulationEngine(a15_cluster, SimulationConfig(idle_until_deadline=True)).run(
            constant_application, PerformanceGovernor()
        )
        assert all(
            r.interval_s >= constant_application.reference_time_s - 1e-12
            for r in padded.records
        )
        unpadded = SimulationEngine(a15_cluster, SimulationConfig(idle_until_deadline=False)).run(
            constant_application, PerformanceGovernor()
        )
        assert unpadded.total_time_s < padded.total_time_s

    def test_governor_overhead_charged_when_enabled(self, a15_cluster, constant_application):
        with_overhead = SimulationEngine(
            a15_cluster, SimulationConfig(charge_governor_overhead=True)
        ).run(constant_application, MultiCoreRLGovernor())
        assert with_overhead.total_overhead_s > 0.0
        without_overhead = SimulationEngine(
            a15_cluster, SimulationConfig(charge_governor_overhead=False)
        ).run(constant_application, MultiCoreRLGovernor())
        assert without_overhead.total_overhead_s == 0.0

    def test_reset_between_runs_gives_reproducible_results(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        first = engine.run(constant_application, OndemandGovernor())
        second = engine.run(constant_application, OndemandGovernor())
        assert first.total_energy_j == pytest.approx(second.total_energy_j)
        assert first.columns.frame_time_s == pytest.approx(
            second.columns.frame_time_s
        )

    @pytest.mark.parametrize("engine_name", ["auto", "scalar"])
    @pytest.mark.parametrize("governor_factory", [OndemandGovernor, RLGovernor])
    def test_noisy_sensor_reruns_are_identical(self, engine_name, governor_factory):
        # The sensor's noise stream restarts with the cluster, so a second
        # run on one noisy cluster repeats the first, as a fresh cluster does.
        application = mpeg4_application(num_frames=200, seed=4)
        engine = SimulationEngine(build_a15_cluster(sensor_noise_w=0.05), engine=engine_name)
        first = engine.run(application, governor_factory())
        second = engine.run(application, governor_factory())
        fresh = SimulationEngine(
            build_a15_cluster(sensor_noise_w=0.05), engine=engine_name
        ).run(application, governor_factory())
        assert len(set(first.columns.measured_power_w)) > 1
        assert second == first
        assert fresh == first

    def test_empty_application_rejected(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        with pytest.raises(Exception):
            engine.run(constant_application.truncated(0), PerformanceGovernor())


class TestSimulationResult:
    def _result(self):
        records = [
            FrameRecord(
                index=i,
                operating_index=5,
                frequency_mhz=700.0,
                cycles_per_core=(1e7,) * 4,
                busy_time_s=0.030 + 0.005 * (i % 3),
                overhead_time_s=0.001,
                frame_time_s=0.031 + 0.005 * (i % 3),
                interval_s=0.040,
                deadline_s=0.040,
                energy_j=0.05,
                average_power_w=1.25,
                measured_power_w=1.25,
                temperature_c=50.0,
                explored=i < 3,
            )
            for i in range(9)
        ]
        return SimulationResult(
            governor_name="test",
            application_name="app",
            reference_time_s=0.040,
            records=records,
        )

    def test_totals_and_normalisation(self):
        result = self._result()
        assert result.total_energy_j == pytest.approx(9 * 0.05)
        assert result.total_time_s == pytest.approx(9 * 0.040)
        assert result.average_power_w == pytest.approx(0.05 / 0.040)
        assert 0.8 < result.normalized_performance < 1.0
        assert result.deadline_miss_ratio == pytest.approx(3 / 9)

    def test_normalized_energy_requires_positive_oracle(self):
        result = self._result()
        oracle = SimulationResult("oracle", "app", 0.040, records=[])
        with pytest.raises(SimulationError):
            result.normalized_energy(oracle)

    def test_window_slicing(self):
        result = self._result()
        head = result.window(0, 3)
        assert head.num_frames == 3
        tail = result.window(6)
        assert tail.num_frames == 3
        assert head.governor_name == result.governor_name

    def test_invalid_reference_time_rejected(self):
        with pytest.raises(SimulationError):
            SimulationResult("x", "y", 0.0)


class TestMetrics:
    def test_summary_over_real_run(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        result = engine.run(constant_application, OndemandGovernor())
        summary = summarize_result(result)
        assert summary.num_frames == constant_application.num_frames
        assert summary.total_energy_j == pytest.approx(result.total_energy_j)
        assert summary.average_power_w == pytest.approx(result.average_power_w)
        assert 0.0 <= summary.deadline_miss_ratio <= 1.0
        assert summary.dvfs_changes >= 0

    def test_summary_of_empty_result(self):
        summary = summarize_result(SimulationResult("x", "y", 0.040))
        assert summary.num_frames == 0
        assert summary.total_energy_j == 0.0

    def test_frequency_histogram_counts_frames(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        result = engine.run(constant_application, PerformanceGovernor())
        histogram = frequency_histogram(result.records)
        assert sum(histogram.values()) == result.num_frames
        assert set(histogram) == {2000.0}

    def test_windows_partition_total_energy(self, a15_cluster, constant_application):
        engine = SimulationEngine(a15_cluster)
        result = engine.run(constant_application, OndemandGovernor())
        before = result.window(0, 10).total_energy_j
        after = result.window(10).total_energy_j
        assert before + after == pytest.approx(result.total_energy_j)


class TestResetRunsAndComparison:
    def test_reset_runs_equal_fresh_engine_runs(self, constant_application):
        # reset_cluster=True starts each run of a shared engine from the
        # cluster's initial state: every run equals one on a fresh engine.
        results = run_governors(
            constant_application, {"ondemand": OndemandGovernor, "oracle": OracleGovernor}
        )
        assert set(results) == {"ondemand", "oracle"}
        for name, governor in (("ondemand", OndemandGovernor), ("oracle", OracleGovernor)):
            fresh = SimulationEngine(build_a15_cluster()).run(constant_application, governor())
            assert results[name] == fresh

    def test_compare_to_oracle_rows(self, constant_application):
        results = run_governors(
            constant_application,
            {
                "ondemand": OndemandGovernor,
                "performance": PerformanceGovernor,
                "oracle": OracleGovernor,
            },
        )
        rows = compare_to_oracle(results, display_names={"ondemand": "Linux Ondemand [5]"})
        names = {row.methodology for row in rows}
        assert "Linux Ondemand [5]" in names
        assert "oracle" not in names
        assert all(row.normalized_energy > 0 for row in rows)

    def test_compare_requires_oracle_key(self, constant_application):
        results = run_governors(constant_application, {"ondemand": OndemandGovernor})
        with pytest.raises(SimulationError):
            compare_to_oracle(results)

    def test_pairwise_energy_saving(self, constant_application):
        results = run_governors(
            constant_application,
            {"performance": PerformanceGovernor, "oracle": OracleGovernor},
        )
        saving = pairwise_energy_saving(results, candidate_key="oracle", baseline_key="performance")
        assert saving > 0.0
        with pytest.raises(SimulationError):
            pairwise_energy_saving(results, "missing", "performance")

    def test_one_engine_runs_each_application(
        self, constant_application, short_fft_application
    ):
        engine = SimulationEngine(build_a15_cluster())
        applications = (constant_application, short_fft_application)
        results = [
            engine.run(application, OndemandGovernor(), reset_cluster=True)
            for application in applications
        ]
        assert [result.application_name for result in results] == [
            application.name for application in applications
        ]
        assert results[1] == SimulationEngine(build_a15_cluster()).run(
            short_fft_application, OndemandGovernor()
        )
