"""Property-based tests (hypothesis) on the core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.odroid_xu3 import A15_VF_TABLE
from repro.platform.power import PowerModel
from repro.platform.sensors import EnergyMeter
from repro.rtm.exploration import EpsilonSchedule, ExponentialPolicy, UniformPolicy
from repro.rtm.prediction import EWMAPredictor
from repro.rtm.qlearning import QLearningAgent, QLearningParameters
from repro.rtm.qtable import QTable
from repro.rtm.rewards import SlackTracker, compute_reward
from repro.rtm.state import Discretizer, StateSpace, WorkloadRangeTracker
from repro.workload.threads import DominantThreadSplit, EvenSplit, ImbalancedSplit

FREQUENCIES = A15_VF_TABLE.frequencies_hz

# Strategies kept modest so the suite stays fast.
positive_cycles = st.floats(min_value=0.0, max_value=1e10, allow_nan=False, allow_infinity=False)
slacks = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


class TestDiscretizerProperties:
    @given(value=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), levels=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_level_always_in_range(self, value, levels):
        discretizer = Discretizer(-1.0, 1.0, levels)
        assert 0 <= discretizer.level(value) < levels

    @given(levels=st.integers(2, 10), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_level_is_monotone_in_value(self, levels, data):
        discretizer = Discretizer(0.0, 1.0, levels)
        first = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        second = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        low, high = min(first, second), max(first, second)
        assert discretizer.level(low) <= discretizer.level(high)


class TestStateSpaceProperties:
    @given(workload=st.floats(0.0, 1.0, allow_nan=False), slack=slacks)
    @settings(max_examples=80, deadline=None)
    def test_state_index_always_valid(self, workload, slack):
        space = StateSpace()
        index = space.state_index(workload, slack)
        assert 0 <= index < space.num_states
        workload_level, slack_level = space.decompose(index)
        assert 0 <= workload_level < space.workload_levels
        assert 0 <= slack_level < space.slack_levels


class TestWorkloadRangeTrackerProperties:
    @given(values=st.lists(positive_cycles, min_size=1, max_size=30), probe=positive_cycles)
    @settings(max_examples=60, deadline=None)
    def test_normalised_value_always_in_unit_interval(self, values, probe):
        tracker = WorkloadRangeTracker()
        for value in values:
            tracker.observe(value)
        assert 0.0 <= tracker.normalise(probe) <= 1.0

    @given(values=st.lists(positive_cycles, min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_observed_extremes_map_inside_bounds(self, values):
        tracker = WorkloadRangeTracker()
        for value in values:
            tracker.observe(value)
        low, high = tracker.bounds
        assert low <= min(values) and max(values) <= high


class TestEWMAProperties:
    @given(values=st.lists(st.floats(1.0, 1e9, allow_nan=False), min_size=1, max_size=50),
           gamma=st.floats(0.05, 1.0, exclude_min=False))
    @settings(max_examples=60, deadline=None)
    def test_prediction_bounded_by_observed_range(self, values, gamma):
        """An EWMA is a convex combination of its inputs: it can never leave their range."""
        predictor = EWMAPredictor(gamma=gamma)
        for value in values:
            prediction = predictor.observe(value)
            assert min(values) - 1e-6 <= prediction <= max(values) + 1e-6


class TestQTableProperties:
    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 4), st.floats(-5, 5, allow_nan=False)),
            min_size=1,
            max_size=60,
        ),
        learning_rate=st.floats(0.05, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_values_stay_within_target_envelope(self, updates, learning_rate):
        """Q-values are convex combinations of 0 and the targets seen, so they stay bounded.

        With no discount the agent's eq. (3) target is the pay-off itself.
        """
        agent = QLearningAgent(
            10,
            5,
            action_frequencies_hz=FREQUENCIES[:5],
            parameters=QLearningParameters(learning_rate=learning_rate, discount=0.0),
        )
        table = agent.qtable
        targets = [t for _, _, t in updates]
        for state, action, target in updates:
            agent.update(state, action, target, next_state=state)
        lower, upper = min(0.0, min(targets)), max(0.0, max(targets))
        for state in range(10):
            for action in range(5):
                assert lower - 1e-9 <= table.get(state, action) <= upper + 1e-9

    @given(st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_best_action_always_valid(self, num_states, num_actions):
        table = QTable(num_states, num_actions)
        for state in range(num_states):
            assert 0 <= table.best_action(state) < num_actions


class TestPolicyProperties:
    @given(slack=slacks, beta=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_epd_is_a_probability_distribution(self, slack, beta):
        probabilities = ExponentialPolicy(beta=beta).probabilities(19, FREQUENCIES, slack)
        assert abs(sum(probabilities) - 1.0) < 1e-9
        assert all(p >= 0.0 for p in probabilities)

    @given(slack=slacks, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_sampling_returns_valid_action(self, slack, seed):
        rng = random.Random(seed)
        for policy in (ExponentialPolicy(), UniformPolicy()):
            action = policy.sample(19, FREQUENCIES, slack, rng)
            assert 0 <= action < 19


class TestEpsilonScheduleProperties:
    @given(rewards=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_epsilon_is_monotone_non_increasing_and_bounded(self, rewards):
        schedule = EpsilonSchedule(initial_epsilon=0.9, alpha=0.3, minimum_epsilon=0.02)
        previous = schedule.epsilon
        for reward in rewards:
            current = schedule.update(reward, confirmed=True)
            assert current <= previous + 1e-12
            assert 0.02 - 1e-12 <= current <= 0.9 + 1e-12
            previous = current


class TestRewardProperties:
    @given(slack=slacks, delta=st.floats(-0.5, 0.5, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_sign_matches_requirement_satisfaction(self, slack, delta):
        reward = compute_reward(slack, 0.0)
        if slack < 0:
            # Missing the budget is never rewarded.
            assert reward <= 0.0
        if 0.0 <= slack <= 0.2:
            # Meeting the requirement near the target slack is rewarded;
            # extreme over-performance (slack near 1) is deliberately
            # penalised, so it is excluded from the positivity claim.
            assert reward > 0.0

    @given(
        executions=st.lists(st.floats(0.0, 0.2, allow_nan=False), min_size=1, max_size=60),
        window=st.one_of(st.none(), st.integers(1, 20)),
    )
    @settings(max_examples=50, deadline=None)
    def test_average_slack_bounded_by_instantaneous_extremes(self, executions, window):
        tracker = SlackTracker(reference_time_s=0.040, window=window)
        instantaneous = []
        for execution in executions:
            tracker.update(execution)
            instantaneous.append((0.040 - execution) / 0.040)
        assert min(instantaneous) - 1e-9 <= tracker.average_slack <= max(instantaneous) + 1e-9


class TestThreadSplitProperties:
    @given(
        total=st.floats(0.0, 1e9, allow_nan=False),
        threads=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_splits_conserve_work_and_stay_non_negative(self, total, threads, seed):
        rng = random.Random(seed)
        for model in (EvenSplit(), ImbalancedSplit(0.3), DominantThreadSplit()):
            split = model.split(total, threads, rng)
            assert len(split) == threads
            assert all(share >= 0.0 for share in split)
            assert abs(sum(split) - total) <= 1e-6 * max(1.0, total)


class TestEnergyBookkeepingProperties:
    @given(
        intervals=st.lists(
            st.tuples(st.floats(0.0, 10.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_meter_total_is_sum_of_interval_energies(self, intervals):
        meter = EnergyMeter()
        expected = 0.0
        for power, duration in intervals:
            meter.add_interval(power, duration)
            expected += power * duration
        assert meter.energy_j >= 0.0
        assert abs(meter.energy_j - expected) <= 1e-9 + 1e-9 * expected

    @given(utilisation=st.floats(0.0, 1.0, allow_nan=False), index=st.integers(0, 18),
           temperature=st.floats(25.0, 95.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_power_model_always_positive_and_monotone_in_utilisation(self, utilisation, index, temperature):
        model = PowerModel()
        point = A15_VF_TABLE[index]
        dynamic_w = model.dynamic_power_w(point, utilisation)
        static_w = model.static_power_w(point, temperature)
        assert dynamic_w > 0.0
        assert static_w > 0.0
        assert model.core_power_w(point, utilisation, temperature) == dynamic_w + static_w
        assert model.dynamic_power_w(point, 1.0) >= model.dynamic_power_w(point, utilisation) - 1e-12
