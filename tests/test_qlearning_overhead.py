"""Unit tests for the Q-learning agent, overhead model and convergence detector."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.platform.odroid_xu3 import A15_VF_TABLE
from repro.rtm.exploration import UniformPolicy
from repro.rtm.overhead import ConvergenceDetector, OverheadModel
from repro.rtm.qlearning import QLearningAgent, QLearningParameters

FREQUENCIES = A15_VF_TABLE.frequencies_hz


def make_agent(**overrides) -> QLearningAgent:
    parameters = QLearningParameters(**overrides)
    return QLearningAgent(
        num_states=25,
        num_actions=len(FREQUENCIES),
        action_frequencies_hz=FREQUENCIES,
        parameters=parameters,
        seed=1,
    )


class TestQLearningParameters:
    def test_defaults_are_valid(self):
        parameters = QLearningParameters()
        assert 0 < parameters.learning_rate <= 1
        assert 0 <= parameters.discount < 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            QLearningParameters(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            QLearningParameters(discount=1.0)


class TestQLearningAgent:
    def test_update_applies_bellman_equation(self):
        agent = make_agent(learning_rate=0.5, discount=0.4)
        agent.qtable.set(3, 2, 1.0)
        agent.qtable.set(4, 7, 2.0)
        target = 0.7 + 0.4 * 2.0
        new_value = agent.update(state=3, action=2, reward=0.7, next_state=4)
        assert new_value == pytest.approx(0.5 * 1.0 + 0.5 * target)
        assert agent.update_count == 1

    def test_repeated_updates_converge_to_fixed_point(self):
        agent = make_agent(learning_rate=0.5, discount=0.0)
        for _ in range(100):
            agent.update(state=0, action=0, reward=1.0, next_state=0)
        assert agent.qtable.get(0, 0) == pytest.approx(1.0, rel=1e-3)

    def test_greedy_learning_prefers_higher_reward_action(self):
        agent = make_agent(learning_rate=0.5, discount=0.0)
        for _ in range(30):
            agent.update(0, 5, reward=1.0, next_state=0)
            agent.update(0, 15, reward=0.2, next_state=0)
        assert agent.greedy_action(0) == 5

    def test_select_action_explores_then_exploits(self):
        agent = make_agent(initial_epsilon=1.0, minimum_epsilon=0.01)
        action, explored = agent.select_action(state=0, slack=0.3)
        assert explored
        assert agent.exploration_draws == 1
        # Force the schedule to the floor (ε and its stored flag, as an
        # external writer of ε must) and confirm greedy selection.
        schedule = agent.epsilon_schedule
        schedule._epsilon = schedule.minimum_epsilon
        schedule.is_exploiting = True
        agent.qtable.set(0, 4, 5.0)
        action, explored = agent.select_action(state=0, slack=0.3)
        assert not explored
        assert action == 4

    def test_exploration_phase_length_tracks_exploitation_start(self):
        agent = make_agent(initial_epsilon=0.9, epsilon_alpha=1.5, minimum_epsilon=0.05)
        for i in range(200):
            agent.select_action(state=0, slack=0.1)
            agent.update(0, agent.greedy_action(0), reward=1.0, next_state=0)
            if agent.epsilon_schedule.is_exploiting and agent.exploration_phase_length < 200:
                break
        assert agent.epsilon_schedule.is_exploiting
        assert agent.exploration_phase_length < 200

    def test_policy_change_flag(self):
        agent = make_agent(learning_rate=1.0, discount=0.0)
        agent.update(0, 3, reward=5.0, next_state=0)
        assert agent.last_update_changed_policy
        agent.update(0, 3, reward=5.0, next_state=0)
        assert not agent.last_update_changed_policy

    def test_reset_learning_state_keeps_q_values(self):
        agent = make_agent()
        agent.update(0, 0, 1.0, 0)
        agent.select_action(0, 0.1)
        learnt = agent.qtable.get(0, 0)
        agent.reset_learning_state()
        assert agent.exploration_draws == 0
        assert agent.update_count == 0
        assert agent.qtable.get(0, 0) == pytest.approx(learnt)

    def test_frequency_count_must_match_actions(self):
        with pytest.raises(ConfigurationError):
            QLearningAgent(num_states=5, num_actions=3, action_frequencies_hz=[1e9])

    def test_custom_policy_is_used(self):
        agent = QLearningAgent(
            num_states=5,
            num_actions=len(FREQUENCIES),
            action_frequencies_hz=FREQUENCIES,
            policy=UniformPolicy(),
            seed=0,
        )
        assert isinstance(agent.policy, UniformPolicy)


def _highest_index_argmax(row) -> int:
    best = max(row)
    return max(index for index, value in enumerate(row) if value == best)


class TestCachedArgmax:
    """``update`` keeps the Q-table's memoised argmax equal to a fresh scan.

    Seeded random sequences of ``update`` and ``QTable.set`` on a small
    table whose values come from a few dyadic levels, so ties are common and
    exact.  The test also asserts
    that each sequence hit the cases the incremental rule distinguishes:
    a tie with the greedy cell, a greedy cell that decreased, and an update
    whose next state is its own state.
    """

    @pytest.mark.parametrize("learning_rate, discount", [(1.0, 0.0), (0.5, 0.0), (1.0, 0.5)])
    @pytest.mark.parametrize("seed", range(6))
    def test_best_action_matches_a_fresh_scan_after_every_step(
        self, seed, learning_rate, discount
    ):
        rng = random.Random(seed)
        num_states, num_actions = 3, 4
        agent = QLearningAgent(
            num_states=num_states,
            num_actions=num_actions,
            action_frequencies_hz=FREQUENCIES[:num_actions],
            parameters=QLearningParameters(learning_rate=learning_rate, discount=discount),
            seed=seed,
        )
        table = agent.qtable
        levels = (-1.0, -0.5, 0.0, 0.5, 1.0)
        seen = {"tie": 0, "greedy_decreased": 0, "self_loop": 0}
        for _ in range(400):
            state = rng.randrange(num_states)
            action = rng.randrange(num_actions)
            operation = rng.random()
            if operation < 0.7:
                next_state = state if rng.random() < 0.3 else rng.randrange(num_states)
                greedy_before = _highest_index_argmax(table.row(state))
                old_value = table.get(state, action)
                agent.update(state, action, rng.choice(levels), next_state)
                row = table.row(state)
                greedy_after = _highest_index_argmax(row)
                assert agent.last_update_changed_policy == (greedy_after != greedy_before)
                seen["self_loop"] += next_state == state
                seen["greedy_decreased"] += (
                    action == greedy_before and row[action] < old_value
                )
                seen["tie"] += action != greedy_before and row[action] == row[greedy_before]
            else:
                table.set(state, action, rng.choice(levels))
            for row_index in range(num_states):
                assert table.best_action(row_index) == _highest_index_argmax(
                    table.row(row_index)
                )
        assert all(count > 0 for count in seen.values()), seen


def _bootstrap_agent(learning_rate: float = 1.0, discount: float = 0.5) -> QLearningAgent:
    return QLearningAgent(
        num_states=3,
        num_actions=5,
        action_frequencies_hz=FREQUENCIES[:5],
        parameters=QLearningParameters(learning_rate=learning_rate, discount=discount),
    )


def _max_bootstrap_value(agent: QLearningAgent, state, action, reward, next_state) -> float:
    """The new Q-value of eq. (3) with the bootstrap read as ``max(row)``."""
    parameters = agent.parameters
    target = reward + parameters.discount * max(agent.qtable.row(next_state))
    old_value = agent.qtable.get(state, action)
    return (1.0 - parameters.learning_rate) * old_value + parameters.learning_rate * target


class TestGreedyBootstrap:
    """``update`` bootstraps from the next row's greedy cell, which holds ``max(row)``.

    Each case compares the float bit for bit (``float.hex`` tells the two
    zeros apart) with the value a ``max(row)`` bootstrap gives.
    """

    @pytest.mark.parametrize(
        "next_row",
        [
            (1.0, 3.0, 3.0, 2.0, -1.0),
            (3.0, 3.0, 3.0, 3.0, 3.0),
            (-2.0, -1.0, -1.0, -1.5, -1.0),
            (0.0, -0.0, -1.0, 0.0, -0.0),
        ],
        ids=["inner-tie", "all-equal", "negative-tie", "signed-zero-tie"],
    )
    def test_rows_with_ties(self, next_row):
        agent = _bootstrap_agent()
        for action, value in enumerate(next_row):
            agent.qtable.set(2, action, value)
        agent.qtable.best_action(2)  # memoise the highest-index argmax
        assert agent.qtable._best_action_cache[2] >= 0
        for reward in (0.75, -0.25, 0.0):
            expected = _max_bootstrap_value(agent, 0, 1, reward, 2)
            assert agent.update(0, 1, reward, 2).hex() == expected.hex()

    def test_an_unknown_cache_entry_is_scanned(self):
        agent = _bootstrap_agent()
        agent.qtable.set(1, 0, 4.0)
        agent.qtable.set(1, 3, 4.0)
        assert agent.qtable._best_action_cache[1] == -1
        expected = _max_bootstrap_value(agent, 0, 2, 1.0, 1)
        assert agent.update(0, 2, 1.0, 1).hex() == expected.hex()
        assert agent.qtable._best_action_cache[1] == 3

    def test_after_set_lowers_the_greedy_cell(self):
        agent = _bootstrap_agent()
        agent.qtable.set(1, 4, 5.0)
        agent.update(0, 0, 1.0, 1)  # memoises action 4 of row 1
        assert agent.qtable._best_action_cache[1] == 4
        agent.qtable.set(1, 4, -5.0)  # the memoised cell is no longer the maximum
        agent.qtable.set(1, 2, 0.5)
        expected = _max_bootstrap_value(agent, 0, 0, 1.0, 1)
        assert agent.update(0, 0, 1.0, 1).hex() == expected.hex()
        assert expected == 1.0 + 0.5 * 0.5

    def test_self_loop_reads_the_row_before_the_write(self):
        agent = _bootstrap_agent(learning_rate=0.5, discount=0.4)
        agent.qtable.set(0, 3, 2.0)
        expected = _max_bootstrap_value(agent, 0, 3, 1.0, 0)
        assert agent.update(0, 3, 1.0, 0).hex() == expected.hex()
        assert expected == 0.5 * 2.0 + 0.5 * (1.0 + 0.4 * 2.0)


class TestOverheadModel:
    def test_learning_costs_more_than_exploitation(self):
        overhead = OverheadModel()
        assert overhead.epoch_overhead_s(learning=True) > overhead.epoch_overhead_s(learning=False)

    def test_transition_latency_added(self):
        overhead = OverheadModel()
        base = overhead.epoch_overhead_s(learning=False)
        assert overhead.epoch_overhead_s(learning=False, transition_latency_s=1e-4) == pytest.approx(
            base + 1e-4
        )

    def test_overhead_is_small_fraction_of_frame_period(self):
        """The RTM's per-epoch cost must be negligible against a 40 ms frame."""
        overhead = OverheadModel()
        assert overhead.epoch_overhead_s(learning=True, transition_latency_s=1e-4) < 0.002

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            OverheadModel(sensor_sampling_s=-1.0)
        with pytest.raises(ValueError):
            OverheadModel().epoch_overhead_s(learning=True, transition_latency_s=-1.0)


class TestConvergenceDetector:
    def test_converges_after_stable_window(self):
        detector = ConvergenceDetector(window=5)
        for _ in range(4):
            detector.observe(action=7, explored=False)
        assert not detector.has_converged
        detector.observe(action=7, explored=False)
        assert detector.has_converged
        assert detector.converged_epoch == 0

    def test_exploration_resets_progress(self):
        detector = ConvergenceDetector(window=3)
        detector.observe(3, explored=False)
        detector.observe(3, explored=True)
        detector.observe(3, explored=False)
        detector.observe(3, explored=False)
        assert not detector.has_converged
        detector.observe(3, explored=False)
        assert detector.has_converged

    def test_policy_changes_block_convergence(self):
        detector = ConvergenceDetector(window=3, track_action_range=False)
        for _ in range(3):
            detector.observe(2, explored=False, policy_changed=True)
        assert not detector.has_converged
        for _ in range(3):
            detector.observe(2, explored=False, policy_changed=False)
        assert detector.has_converged

    def test_action_range_criterion(self):
        detector = ConvergenceDetector(window=4, tolerance=1)
        for action in (5, 6, 5, 6):
            detector.observe(action, explored=False)
        assert detector.has_converged
        wide = ConvergenceDetector(window=4, tolerance=1)
        for action in (5, 9, 5, 9):
            wide.observe(action, explored=False)
        assert not wide.has_converged

    def test_converged_epoch_accounts_for_window(self):
        detector = ConvergenceDetector(window=3)
        detector.observe(1, explored=True)
        detector.observe(1, explored=True)
        for _ in range(3):
            detector.observe(1, explored=False)
        assert detector.converged_epoch == 2

    def test_reset(self):
        detector = ConvergenceDetector(window=2)
        detector.observe(1, False)
        detector.observe(1, False)
        detector.reset()
        assert not detector.has_converged

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ConvergenceDetector(window=0)
        with pytest.raises(ConfigurationError):
            ConvergenceDetector(tolerance=-1)
