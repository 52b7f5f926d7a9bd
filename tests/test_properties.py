"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.odroid_xu3 import A15_VF_TABLE
from repro.platform.power import PowerModel
from repro.rtm.exploration import EpsilonSchedule, ExponentialPolicy, UniformPolicy
from repro.rtm.prediction import EWMAPredictor, EWMAVectorPredictor
from repro.rtm.qlearning import QLearningAgent, QLearningParameters
from repro.rtm.qtable import QTable
from repro.rtm.rewards import RewardParameters, SlackTracker, compute_reward
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


def _history(predictor):
    """A predictor's records and window statistics, floats as hex strings."""
    records = [(r.epoch_index, r.predicted.hex(), r.actual.hex()) for r in predictor.records]
    windows = [(0, None), (0, 3), (2, 9), (5, None), (-1, 2), (4, 2), (40, None)]
    stats = [predictor.misprediction_stats(first, last) for first, last in windows]
    return records, [
        (
            s.num_epochs,
            s.mean_absolute_relative_error.hex(),
            s.max_absolute_relative_error.hex(),
            s.underprediction_fraction.hex(),
        )
        for s in stats
    ]


#: Per-core workloads: zeros are common (idle cores, the 0-actual error branch).
core_cycles = st.one_of(st.just(0.0), st.floats(0.0, 1e9, allow_nan=False))


class TestEWMAVectorProperties:
    """The many-core learner's vector EWMA equals one ``EWMAPredictor`` per core,
    bit for bit: every prediction, each core's records and its windowed
    misprediction statistics, through resets of single cores."""

    @given(
        num_cores=st.integers(1, 5),
        gamma=st.floats(0.05, 1.0),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_vector_equals_one_predictor_per_core(self, num_cores, gamma, data):
        vector = EWMAVectorPredictor(num_cores, gamma=gamma)
        predictors = [EWMAPredictor(gamma=gamma) for _ in range(num_cores)]
        steps = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("observe"), st.lists(core_cycles, min_size=num_cores, max_size=num_cores)),
                    st.tuples(st.just("reset"), st.integers(0, num_cores - 1)),
                ),
                max_size=40,
            )
        )
        for kind, argument in steps:
            if kind == "observe":
                predictions = vector.observe(tuple(argument))
                expected = [p.observe(value) for p, value in zip(predictors, argument)]
                assert [float(x).hex() for x in predictions] == [float(x).hex() for x in expected]
            else:
                vector.core(argument).reset()
                predictors[argument].reset()
        for core, predictor in enumerate(predictors):
            view = vector.core(core)
            assert _history(view) == _history(predictor), core

    @pytest.mark.parametrize("row", [(1.0, -1.0, 2.0), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_rejects_a_negative_workload_or_a_row_of_the_wrong_width(self, row):
        vector = EWMAVectorPredictor(3)
        with pytest.raises(ValueError):
            vector.observe(row)
        assert vector.observe((1.0, 2.0, 3.0)) == [1.0, 2.0, 3.0]
        assert vector.core(0).records == []


edge_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, math.nan)),
    st.floats(-3.0, 3.0, allow_nan=False),
)


class TestClampsMatchTheBuiltins:
    """The per-epoch clamps written as comparisons return what the
    ``max``/``min`` builtins they replace return, bit for bit, ``-0.0``
    and NaN included."""

    @given(values=st.lists(positive_cycles, min_size=1, max_size=5), probe=positive_cycles)
    @settings(max_examples=80, deadline=None)
    def test_range_tracker_normalise(self, values, probe):
        tracker = WorkloadRangeTracker()
        for value in values:
            tracker.observe(value)
        low, high = tracker.bounds
        expected = 0.5 if high <= low else max(0.0, min(1.0, (probe - low) / (high - low)))
        assert tracker.normalise(probe).hex() == expected.hex()

    @given(busy=edge_floats, interval=st.floats(0.001, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_observed_load(self, busy, interval):
        from repro.governors.base import observed_load
        from repro.rtm.governor import EpochObservation

        observation = EpochObservation(0, (1.0,), busy, interval, 1.0, 0, 0.0, 0.0)
        expected = max(0.0, min(1.0, busy / interval))
        assert observed_load(observation).hex() == expected.hex()

    @given(average=edge_floats, delta=st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_compute_reward(self, average, delta):
        p = RewardParameters()
        if average < 0.0:
            slack_term = -p.miss_penalty_weight * (-average)
        else:
            excess = max(0.0, average - p.target_slack)
            slack_term = p.slack_weight * (1.0 - p.overperformance_penalty * excess)
        expected = slack_term + p.delta_weight * delta
        reward = compute_reward(average, delta, p)
        assert reward.hex() == expected.hex()

    @given(power=st.floats(0.0, 10.0), resolution=st.sampled_from((0.0, 0.005, 0.25)))
    @settings(max_examples=80, deadline=None)
    def test_sensor_floor(self, power, resolution):
        from repro.platform.sensors import PowerSensor

        sensor = PowerSensor(resolution_w=resolution)
        measured = power if resolution == 0 else round(power / resolution) * resolution
        assert sensor.measure_w(power, 1.0).hex() == max(0.0, measured).hex()


class TestExponentialPolicyExponents:
    """EPD's stored ``-beta * (f / f_max)`` gives the probabilities of the
    whole eq.-2 expression, bit for bit, across calls with other frequency
    lists and after ``beta`` changes."""

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from((FREQUENCIES, FREQUENCIES[:5], [1.0, 3.0, 2.0])),
                st.sampled_from((0.0, 6.0, 12.0)),
                slacks,
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_probabilities_equal_the_whole_expression(self, calls):
        policy = ExponentialPolicy()
        for frequencies, beta, slack in calls:
            policy.beta = beta
            f_max = max(frequencies)
            weights = [math.exp(-beta * (f / f_max) * slack) for f in frequencies]
            total = 0
            for weight in weights:
                total += weight
            expected = [w / total for w in weights]
            got = policy.probabilities(len(frequencies), list(frequencies), slack)
            assert [x.hex() for x in got] == [x.hex() for x in expected]


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

    @given(
        initial=st.floats(0.0, 1.0, allow_nan=False),
        floor_share=st.floats(0.0, 1.0, allow_nan=False),
        alpha=st.floats(0.05, 3.0, allow_nan=False),
        operations=st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.floats(-1.0, 1.0, allow_nan=False), st.booleans()),
            ),
            max_size=60,
        ),
        any_reward=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_stored_exploiting_flag_tracks_epsilon(
        self, initial, floor_share, alpha, operations, any_reward
    ):
        """Through construction, ``update`` and ``reset`` (``None``), the
        stored flag equals ``epsilon <= minimum_epsilon``; a floor share of
        1 makes the floor the initial value."""
        schedule = EpsilonSchedule(
            initial_epsilon=initial,
            alpha=alpha,
            minimum_epsilon=initial * floor_share,
            decay_on_any_reward=any_reward,
        )
        assert schedule.is_exploiting == (schedule.epsilon <= schedule.minimum_epsilon)
        for operation in operations:
            if operation is None:
                schedule.reset()
            else:
                schedule.update(*operation)
            assert schedule.is_exploiting == (schedule.epsilon <= schedule.minimum_epsilon)


def _bits(rows):
    """Rows of floats as hex strings, so ``-0.0`` and ``0.0`` differ."""
    return [[value.hex() for value in row] for row in rows]


class TestBootstrapProperties:
    """``QLearningAgent.update`` bootstraps from the next row's memoised
    greedy cell; every new Q-value is bit-identical to a ``max(row)``
    bootstrap.  Values come from a few levels, both zeros among them, so
    ties (signed-zero ties too) are common.  Rewards exclude ``-0.0``,
    which :func:`compute_reward` never returns (see below): that is the
    one reward for which the sign of a zero bootstrap would show."""

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 4),
                st.sampled_from((-1.0, -0.5, 0.0, -0.0, 0.5, 1.0)),
                st.integers(0, 2),
                st.booleans(),
            ),
            min_size=1,
            max_size=80,
        ),
        learning_rate=st.sampled_from((1.0, 0.5, 0.25)),
        discount=st.sampled_from((0.0, 0.4, 0.5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_update_equals_a_max_bootstrap(self, steps, learning_rate, discount):
        agent = QLearningAgent(
            num_states=3,
            num_actions=5,
            action_frequencies_hz=FREQUENCIES[:5],
            parameters=QLearningParameters(learning_rate=learning_rate, discount=discount),
        )
        reference = [[0.0] * 5 for _ in range(3)]
        for state, action, value, next_state, overwrite in steps:
            if overwrite:
                agent.qtable.set(state, action, value)
                reference[state][action] = value
                continue
            reward = 0.0 if value.hex() == (-0.0).hex() else value
            target = reward + discount * max(reference[next_state])
            expected = (1.0 - learning_rate) * reference[state][action] + learning_rate * target
            reference[state][action] = expected
            assert agent.update(state, action, reward, next_state).hex() == expected.hex()
        assert _bits(agent.qtable._values) == _bits(reference)

    @given(
        average=st.floats(-2.0, 2.0, allow_nan=False),
        delta=st.floats(-2.0, 2.0, allow_nan=False),
        instantaneous=st.one_of(st.none(), st.floats(-2.0, 2.0, allow_nan=False)),
    )
    @settings(max_examples=200, deadline=None)
    def test_compute_reward_never_returns_negative_zero(self, average, delta, instantaneous):
        reward = compute_reward(average, delta, instantaneous_slack=instantaneous)
        assert reward.hex() != (-0.0).hex()


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
