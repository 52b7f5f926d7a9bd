"""Unit tests for the learning governors: the proposed RTM and the learning baselines."""

from dataclasses import fields

import pytest

from repro.campaign import governor_factory
from repro.errors import ConfigurationError
from repro.governors.multicore_dvfs import MultiCoreDVFSGovernor, MultiCoreDVFSParameters
from repro.governors.shen_rl import ShenRLGovernor
from repro.rtm.exploration import ExponentialPolicy, UniformPolicy
from repro.rtm.governor import EpochObservation
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.overhead import OverheadModel
from repro.rtm.qlearning import QLearningParameters
from repro.rtm.rewards import RewardParameters
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.rtm.state import WorkloadNormalisation


def make_observation(busy_time_s, operating_index, epoch_index=0, reference_time_s=0.040,
                     cycles_per_core=(2e7, 1.5e7, 1.5e7, 1.8e7), overhead=0.0005):
    return EpochObservation(
        epoch_index=epoch_index,
        cycles_per_core=cycles_per_core,
        busy_time_s=busy_time_s,
        interval_s=max(busy_time_s, reference_time_s),
        reference_time_s=reference_time_s,
        operating_index=operating_index,
        energy_j=0.08,
        measured_power_w=2.0,
        overhead_time_s=overhead,
    )


class TestRLGovernorSetup:
    def test_first_decision_is_fastest_point(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        assert governor.decide(None) == platform_info.num_actions - 1

    def test_accessors_raise_before_setup(self):
        governor = RLGovernor()
        with pytest.raises(ConfigurationError):
            _ = governor.agent
        with pytest.raises(ConfigurationError):
            _ = governor.predictor
        with pytest.raises(ConfigurationError):
            _ = governor.slack_tracker

    def test_state_space_dimensions_follow_config(self, platform_info, requirement_25fps):
        governor = RLGovernor(RLGovernorConfig(workload_levels=3, slack_levels=4))
        governor.setup(platform_info, requirement_25fps)
        assert governor.state_space.num_states == 12
        assert governor.agent.qtable.num_actions == platform_info.num_actions

    def test_epd_policy_by_default_upd_when_configured(self, platform_info, requirement_25fps):
        epd = RLGovernor()
        epd.setup(platform_info, requirement_25fps)
        assert isinstance(epd.agent.policy, ExponentialPolicy)
        upd = RLGovernor(RLGovernorConfig(use_exponential_exploration=False))
        upd.setup(platform_info, requirement_25fps)
        assert isinstance(upd.agent.policy, UniformPolicy)
        assert "upd" in upd.name

    def test_setup_resets_learning_state(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        governor.decide(None)
        governor.decide(make_observation(0.030, 18))
        governor.setup(platform_info, requirement_25fps)
        assert governor.exploration_count == 0
        assert governor.reward_history == []


class TestRLGovernorBehaviour:
    def _drive(self, governor, platform_info, requirement, epochs, busy_for_index):
        """Drive the governor closed-loop with a synthetic execution model."""
        index = governor.decide(None)
        for epoch in range(epochs):
            busy = busy_for_index(index)
            observation = make_observation(busy, index, epoch_index=epoch)
            index = governor.decide(observation)
        return index

    def test_learns_to_slow_down_when_overperforming(self, platform_info, requirement_25fps):
        """A constant light workload should end up well below the maximum frequency."""
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        table = platform_info.vf_table
        demand = 2.0e7  # needs only 500 MHz for a 40 ms budget

        final_index = self._drive(
            governor, platform_info, requirement_25fps, epochs=250,
            busy_for_index=lambda i: demand / table[i].frequency_hz,
        )
        # After learning, the governor should not sit at the fastest point...
        assert final_index < platform_info.num_actions - 1
        # ...and the chosen point should still meet the deadline.
        assert table[final_index].time_for_cycles(demand) <= requirement_25fps.tref_s

    def test_reward_history_and_slack_tracking_populate(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        index = governor.decide(None)
        for epoch in range(10):
            index = governor.decide(make_observation(0.030, index, epoch_index=epoch))
        assert len(governor.reward_history) == 10
        assert governor.slack_tracker.epochs == 10
        assert governor.predictor.last_prediction is not None

    def test_overhead_reported_each_epoch(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        governor.decide(None)
        assert governor.processing_overhead_s > 0.0

    def test_exploration_phase_eventually_ends(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        table = platform_info.vf_table
        demand = 2.5e7
        self._drive(
            governor, platform_info, requirement_25fps, epochs=400,
            busy_for_index=lambda i: demand / table[i].frequency_hz,
        )
        assert governor.agent.is_exploiting
        assert 0 < governor.exploration_count < 400

    def test_describe_mentions_policy(self, platform_info, requirement_25fps):
        governor = RLGovernor()
        governor.setup(platform_info, requirement_25fps)
        assert "EPD" in governor.describe()


class TestMultiCoreRLGovernor:
    def test_per_core_predictors_created(self, platform_info, requirement_25fps):
        governor = MultiCoreRLGovernor()
        governor.setup(platform_info, requirement_25fps)
        assert len(governor.core_predictors) == platform_info.num_cores

    def test_no_single_predictor_is_built(self, platform_info, requirement_25fps):
        # Only the per-core predictors are read, so no cluster-wide one exists.
        governor = MultiCoreRLGovernor()
        governor.setup(platform_info, requirement_25fps)
        assert governor._predictor is None
        with pytest.raises(ConfigurationError):
            _ = governor.predictor

    def test_round_robin_core_rotates(self, platform_info, requirement_25fps):
        governor = MultiCoreRLGovernor()
        governor.setup(platform_info, requirement_25fps)
        index = governor.decide(None)
        assert governor.round_robin_core == 0
        index = governor.decide(make_observation(0.030, index, epoch_index=0))
        assert governor.round_robin_core == 1
        governor.decide(make_observation(0.030, index, epoch_index=1))
        assert governor.round_robin_core == 2

    def test_total_share_mode_uses_equation_7_state_space(self, platform_info, requirement_25fps):
        governor = MultiCoreRLGovernor(RLGovernorConfig(use_total_share_normalisation=True))
        governor.setup(platform_info, requirement_25fps)
        assert governor.state_space.normalisation is WorkloadNormalisation.TOTAL_SHARE
        default = MultiCoreRLGovernor()
        default.setup(platform_info, requirement_25fps)
        assert default.state_space.normalisation is WorkloadNormalisation.CAPACITY

    def test_accessor_raises_before_setup(self):
        with pytest.raises(ConfigurationError):
            _ = MultiCoreRLGovernor().core_predictors

    @staticmethod
    def _drive(platform_info, requirement, cycles_seq):
        governor = MultiCoreRLGovernor()
        governor.setup(platform_info, requirement)
        actions = [governor.decide(None)]
        for epoch, cycles in enumerate(cycles_seq):
            obs = make_observation(0.030, actions[-1], epoch_index=epoch, cycles_per_core=cycles)
            actions.append(governor.decide(obs))
        actuals = [[r.actual for r in p.records] for p in governor.core_predictors]
        return actions, actuals

    def test_missing_cores_read_as_idle(self, platform_info, requirement_25fps):
        short = [(2e7 + 1e6 * k, 1.5e7 - 1e5 * k) for k in range(6)]
        padded = [c + (0.0, 0.0) for c in short]
        actions, actuals = self._drive(platform_info, requirement_25fps, short)
        assert (actions, actuals) == self._drive(platform_info, requirement_25fps, padded)
        assert actuals[2] == actuals[3] == [0.0] * 5

    def test_extra_cores_are_ignored(self, platform_info, requirement_25fps):
        cycles = [(2e7 + 1e6 * k, 1.5e7, 1.6e7, 1.8e7) for k in range(6)]
        wide = [c + (1e6, 2e6) for c in cycles]  # below the max: same critical path
        assert self._drive(platform_info, requirement_25fps, wide) == self._drive(
            platform_info, requirement_25fps, cycles
        )


class TestShenRLGovernor:
    def test_uses_uniform_exploration(self, platform_info, requirement_25fps):
        governor = ShenRLGovernor()
        governor.setup(platform_info, requirement_25fps)
        assert isinstance(governor.agent.policy, UniformPolicy)
        assert governor.name == "shen-rl-upd"

    def test_respects_custom_base_config(self, platform_info, requirement_25fps):
        governor = ShenRLGovernor(RLGovernorConfig(workload_levels=3, slack_levels=3))
        governor.setup(platform_info, requirement_25fps)
        assert governor.state_space.num_states == 9

    def test_registry_factory_passes_every_config_field_through(self):
        """Every ``RLGovernorConfig`` field reaches ``shen-upd``; only EPD is switched off."""
        kwargs = {
            "workload_levels": 4,
            "slack_levels": 3,
            "ewma_gamma": 0.45,
            "slack_window": None,
            "learning": QLearningParameters(learning_rate=0.3, discount=0.2),
            "reward": RewardParameters(slack_weight=2.0),
            "exploration_beta": 3.0,
            "use_exponential_exploration": True,
            "use_total_share_normalisation": True,
            "overhead": OverheadModel(learning_processing_s=1.0e-3),
            "convergence_window": 7,
            "seed": 11,
        }
        assert set(kwargs) == {f.name for f in fields(RLGovernorConfig)}
        config = governor_factory("shen-upd")(**kwargs).config
        assert config.use_exponential_exploration is False
        defaults = RLGovernorConfig()
        for name, value in kwargs.items():
            if name != "use_exponential_exploration":
                assert value != getattr(defaults, name), name  # a dropped field shows
                assert getattr(config, name) == value, name


class TestMultiCoreDVFSGovernor:
    def test_starts_at_maximum_and_learns_tables(self, platform_info, requirement_25fps):
        governor = MultiCoreDVFSGovernor()
        governor.setup(platform_info, requirement_25fps)
        index = governor.decide(None)
        assert index == platform_info.num_actions - 1
        for epoch in range(5):
            index = governor.decide(make_observation(0.020, index, epoch_index=epoch))
        assert governor.exploration_count > 0

    def test_panic_on_miss_selects_maximum(self, platform_info, requirement_25fps):
        governor = MultiCoreDVFSGovernor()
        governor.setup(platform_info, requirement_25fps)
        governor.decide(None)
        missed = make_observation(0.050, 10)  # busy > Tref
        assert governor.decide(missed) == platform_info.num_actions - 1

    def test_learned_bins_stop_counting_as_exploration(self, platform_info, requirement_25fps):
        governor = MultiCoreDVFSGovernor(MultiCoreDVFSParameters(min_visits=1, workload_bins=1))
        governor.setup(platform_info, requirement_25fps)
        index = governor.decide(None)
        for epoch in range(12):
            index = governor.decide(make_observation(0.020, index, epoch_index=epoch))
        early_explorations = governor.exploration_count
        for epoch in range(12, 40):
            index = governor.decide(make_observation(0.020, index, epoch_index=epoch))
        # Once every per-core bin is trusted, no further epochs count as learning.
        assert governor.exploration_count == early_explorations

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiCoreDVFSParameters(target_utilisation=0.0)
        with pytest.raises(ConfigurationError):
            MultiCoreDVFSParameters(frequency_margin=0.5)
        with pytest.raises(ConfigurationError):
            MultiCoreDVFSParameters(table_decay=1.5)
