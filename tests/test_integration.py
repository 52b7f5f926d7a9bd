"""Integration tests: full closed-loop runs across modules.

These tests exercise the complete stack (workload model → simulation engine →
governor → platform → metrics) on short runs and check the system-level
behaviours the paper relies on.
"""

import pytest

from repro.governors import (
    MultiCoreDVFSGovernor,
    OndemandGovernor,
    OracleGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    ShenRLGovernor,
)
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm import MultiCoreRLGovernor, RLGovernor, RLGovernorConfig
from repro.sim import SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.parsec import parsec_application
from repro.workload.video import h264_football_application
from tests.conftest import run_governors


@pytest.fixture(scope="module")
def football_runs():
    """One shared comparison run used by several assertions (kept short)."""
    application = h264_football_application(num_frames=700, seed=23)
    return run_governors(
        application,
        {
            "ondemand": OndemandGovernor,
            "performance": PerformanceGovernor,
            "proposed": MultiCoreRLGovernor,
            "multicore_dvfs": MultiCoreDVFSGovernor,
            "oracle": OracleGovernor,
        },
    )


class TestGovernorEnergyOrdering:
    def test_oracle_is_the_energy_lower_bound(self, football_runs):
        oracle = football_runs["oracle"]
        for name, result in football_runs.items():
            if name == "oracle":
                continue
            assert result.total_energy_j > oracle.total_energy_j

    def test_performance_governor_is_the_most_expensive(self, football_runs):
        performance = football_runs["performance"]
        for name, result in football_runs.items():
            if name == "performance":
                continue
            assert result.total_energy_j < performance.total_energy_j

    def test_proposed_saves_energy_versus_ondemand(self, football_runs):
        assert (
            football_runs["proposed"].total_energy_j
            < football_runs["ondemand"].total_energy_j
        )

    def test_oracle_meets_every_deadline(self, football_runs):
        assert football_runs["oracle"].deadline_miss_ratio == 0.0

    def test_proposed_performance_is_closest_to_requirement(self, football_runs):
        proposed_gap = abs(1.0 - football_runs["proposed"].normalized_performance)
        ondemand_gap = abs(1.0 - football_runs["ondemand"].normalized_performance)
        performance_gap = abs(1.0 - football_runs["performance"].normalized_performance)
        assert proposed_gap < ondemand_gap
        assert proposed_gap < performance_gap

    def test_learning_governor_converges_and_stops_exploring(self, football_runs):
        proposed = football_runs["proposed"]
        assert 0 < proposed.exploration_count < proposed.num_frames / 2
        late_window = proposed.window(proposed.num_frames - 200)
        assert sum(1 for r in late_window.records if r.explored) == 0

    def test_learning_phase_runs_hotter_than_steady_state(self, football_runs):
        """Exploration costs energy: the early window burns more power than steady state."""
        proposed = football_runs["proposed"]
        boundary = max(proposed.exploration_count, 50)
        early = proposed.window(0, boundary)
        late = proposed.window(proposed.num_frames - 2 * boundary)
        assert early.average_power_w > late.average_power_w * 0.95


class TestPowersaveBehaviour:
    def test_powersave_underperforms_on_heavy_workloads(self):
        application = h264_football_application(num_frames=100, seed=3)
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(application, PowersaveGovernor())
        assert result.normalized_performance > 1.5
        assert result.deadline_miss_ratio > 0.9


class TestDifferentWorkloadClasses:
    @pytest.mark.parametrize(
        "application_builder",
        [
            lambda: fft_application(num_frames=250, seed=2),
            lambda: parsec_application("blackscholes", num_frames=250, seed=2),
            lambda: parsec_application("bodytrack", num_frames=250, seed=2),
        ],
    )
    def test_rl_governor_handles_workload(self, application_builder):
        application = application_builder()
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(application, MultiCoreRLGovernor())
        # The governor must be sane on every workload class: mostly meeting
        # deadlines without pinning the cluster at either extreme.
        assert result.deadline_miss_ratio < 0.5
        mean_index = sum(r.operating_index for r in result.records) / result.num_frames
        assert 0.5 < mean_index < 18.0

    def test_shen_baseline_runs_on_fft(self):
        application = fft_application(num_frames=250, seed=4)
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(application, ShenRLGovernor())
        assert result.exploration_count > 0
        assert result.deadline_miss_ratio < 0.5


class TestSeedReproducibility:
    def test_same_seed_same_results(self):
        application = h264_football_application(num_frames=200, seed=6)
        engine = SimulationEngine(build_a15_cluster())
        first, second = (
            engine.run(application, MultiCoreRLGovernor(config), reset_cluster=True)
            for config in (RLGovernorConfig(seed=1), RLGovernorConfig(seed=1))
        )
        assert first.total_energy_j == pytest.approx(second.total_energy_j)
        assert first.exploration_count == second.exploration_count

    def test_different_agent_seeds_explore_differently(self):
        application = h264_football_application(num_frames=200, seed=6)
        engine = SimulationEngine(build_a15_cluster())
        first, second = (
            engine.run(application, MultiCoreRLGovernor(config), reset_cluster=True)
            for config in (RLGovernorConfig(seed=1), RLGovernorConfig(seed=2))
        )
        first_actions = [r.operating_index for r in first.records[:100]]
        second_actions = [r.operating_index for r in second.records[:100]]
        assert first_actions != second_actions


class TestSingleVsMultiCoreFormulation:
    def test_both_formulations_learn_sane_policies(self):
        application = h264_football_application(num_frames=400, seed=17)
        results = run_governors(application, {"single": RLGovernor, "multi": MultiCoreRLGovernor})
        single, multi = results["single"], results["multi"]
        for result in (single, multi):
            assert result.deadline_miss_ratio < 0.5
            assert result.normalized_performance < 1.2
        # Energy of the two formulations is in the same ballpark.
        assert abs(single.total_energy_j - multi.total_energy_j) < 0.3 * single.total_energy_j
