"""Unit tests for the exploration policies (eq. 2) and the ε schedule (eq. 6)."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.platform.odroid_xu3 import A15_VF_TABLE
from repro.rtm.exploration import EpsilonSchedule, ExponentialPolicy, UniformPolicy

FREQUENCIES = A15_VF_TABLE.frequencies_hz


class TestUniformPolicy:
    def test_probabilities_are_uniform(self):
        probabilities = UniformPolicy().probabilities(19, FREQUENCIES, slack=0.3)
        assert len(probabilities) == 19
        assert all(p == pytest.approx(1.0 / 19.0) for p in probabilities)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_sampling_covers_action_space(self):
        policy = UniformPolicy()
        rng = random.Random(0)
        samples = {policy.sample(19, FREQUENCIES, 0.0, rng) for _ in range(500)}
        assert len(samples) > 12

    def test_invalid_action_count_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformPolicy().probabilities(0, [], 0.0)


class TestExponentialPolicy:
    def test_probabilities_sum_to_one(self):
        policy = ExponentialPolicy(beta=12.0)
        for slack in (-0.4, -0.1, 0.0, 0.1, 0.4):
            probabilities = policy.probabilities(19, FREQUENCIES, slack)
            assert sum(probabilities) == pytest.approx(1.0)
            assert all(p >= 0.0 for p in probabilities)

    def test_positive_slack_favours_low_frequencies(self):
        probabilities = ExponentialPolicy(beta=12.0).probabilities(19, FREQUENCIES, slack=0.4)
        assert probabilities[0] > probabilities[-1]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_negative_slack_favours_high_frequencies(self):
        probabilities = ExponentialPolicy(beta=12.0).probabilities(19, FREQUENCIES, slack=-0.4)
        assert probabilities[-1] > probabilities[0]
        assert probabilities == sorted(probabilities)

    def test_near_zero_slack_is_nearly_uniform(self):
        """The paper: 'For values of L close to zero, the EP are almost uniform.'"""
        probabilities = ExponentialPolicy(beta=12.0).probabilities(19, FREQUENCIES, slack=0.005)
        assert max(probabilities) / min(probabilities) < 1.2

    def test_beta_controls_concentration(self):
        weak = ExponentialPolicy(beta=2.0).probabilities(19, FREQUENCIES, slack=0.3)
        strong = ExponentialPolicy(beta=20.0).probabilities(19, FREQUENCIES, slack=0.3)
        assert max(strong) > max(weak)

    def test_sampling_respects_bias(self):
        policy = ExponentialPolicy(beta=12.0)
        rng = random.Random(1)
        samples = [policy.sample(19, FREQUENCIES, slack=0.4, rng=rng) for _ in range(400)]
        assert sum(samples) / len(samples) < 9.0  # biased towards low indices

    def test_frequency_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialPolicy().probabilities(5, FREQUENCIES, 0.1)

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialPolicy(beta=-1.0)


class TestEpsilonSchedule:
    def test_decay_follows_equation_6(self):
        schedule = EpsilonSchedule(initial_epsilon=0.9, alpha=0.25)
        expected = 0.9 * math.exp(-0.25 * (1.0 - 0.9))
        assert schedule.update(reward=1.0, confirmed=True) == pytest.approx(expected)

    def test_no_decay_on_negative_reward(self):
        schedule = EpsilonSchedule(initial_epsilon=0.9, alpha=0.25)
        schedule.update(reward=-0.5, confirmed=True)
        assert schedule.epsilon == pytest.approx(0.9)

    def test_no_decay_without_confirmation(self):
        schedule = EpsilonSchedule(initial_epsilon=0.9, alpha=0.25)
        schedule.update(reward=1.0, confirmed=False)
        assert schedule.epsilon == pytest.approx(0.9)

    def test_unconditional_mode_decays_always(self):
        schedule = EpsilonSchedule(initial_epsilon=0.9, alpha=0.25, decay_on_any_reward=True)
        schedule.update(reward=-1.0, confirmed=False)
        assert schedule.epsilon < 0.9

    def test_epsilon_never_drops_below_floor(self):
        schedule = EpsilonSchedule(initial_epsilon=0.5, alpha=1.0, minimum_epsilon=0.05)
        for _ in range(200):
            schedule.update(reward=1.0, confirmed=True)
        assert schedule.epsilon == pytest.approx(0.05)
        assert schedule.is_exploiting

    def test_should_explore_probability_matches_epsilon(self):
        schedule = EpsilonSchedule(initial_epsilon=0.5, alpha=0.25)
        rng = random.Random(0)
        draws = [schedule.should_explore(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(0.5, abs=0.05)

    def test_should_explore_false_once_exploiting(self):
        schedule = EpsilonSchedule(initial_epsilon=0.02, alpha=0.5, minimum_epsilon=0.02)
        assert schedule.is_exploiting
        rng = random.Random(0)
        assert not any(schedule.should_explore(rng) for _ in range(100))

    def test_reset_restores_initial_value(self):
        schedule = EpsilonSchedule(initial_epsilon=0.8, alpha=0.5)
        schedule.update(1.0)
        schedule.reset()
        assert schedule.epsilon == pytest.approx(0.8)

    def test_stored_exploiting_flag_follows_update_and_reset(self):
        schedule = EpsilonSchedule(initial_epsilon=0.5, alpha=1.0, minimum_epsilon=0.05)
        assert not schedule.is_exploiting
        while not schedule.is_exploiting:
            assert schedule.epsilon > schedule.minimum_epsilon
            schedule.update(reward=1.0, confirmed=True)
        assert schedule.epsilon == schedule.minimum_epsilon
        schedule.update(reward=-1.0, confirmed=False)
        assert schedule.is_exploiting
        schedule.reset()
        assert not schedule.is_exploiting and schedule.epsilon == 0.5

    def test_flag_set_from_the_start_when_initial_equals_floor(self):
        schedule = EpsilonSchedule(initial_epsilon=0.3, alpha=0.5, minimum_epsilon=0.3)
        assert schedule.is_exploiting
        schedule.update(reward=1.0, confirmed=True)
        assert schedule.is_exploiting and schedule.epsilon == 0.3
        schedule.reset()
        assert schedule.is_exploiting

    def test_zero_epsilon_exploits_from_the_start(self):
        schedule = EpsilonSchedule(initial_epsilon=0.0, alpha=0.5, minimum_epsilon=0.0)
        assert schedule.is_exploiting
        assert not schedule.should_explore(random.Random(0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EpsilonSchedule(initial_epsilon=1.5)
        with pytest.raises(ConfigurationError):
            EpsilonSchedule(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EpsilonSchedule(initial_epsilon=0.5, minimum_epsilon=0.9)
