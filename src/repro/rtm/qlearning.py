"""Q-learning agent implementing the paper's learning rule (eq. 3).

The agent owns the Q-table, the exploration policy and the ε schedule, and
exposes exactly the two operations the RTM performs, in this order, at each
decision epoch; every learning governor calls them:

* :meth:`QLearningAgent.update` — apply the Bellman optimality update for
  the previous state-action pair given the observed pay-off and the
  predicted next state, then decay ε (:meth:`EpsilonSchedule.update`);
* :meth:`QLearningAgent.select_action` — choose the action for the next
  epoch, either by exploiting the greedy policy or by sampling the
  exploration policy (EPD or UPD), as :meth:`EpsilonSchedule.should_explore`
  draws.

``update`` keeps the Q-table's memoised per-row argmax current, so the
greedy lookup is usually a list index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rtm.exploration import (
    ActionSelectionPolicy,
    EpsilonSchedule,
    ExponentialPolicy,
)
from repro.rtm.qtable import QTable


@dataclass
class QLearningParameters:
    """Hyper-parameters of the Q-learning agent.

    Attributes
    ----------
    learning_rate:
        The alpha of eq. (3): how far each update moves the Q-value towards
        its target.
    discount:
        The gamma of eq. (3): weight of the bootstrapped next-state value.
    initial_epsilon / epsilon_alpha / minimum_epsilon:
        Parameters of the ε schedule (eq. 6).
    epsilon_decay_on_any_reward:
        If True the schedule decays every epoch (conventional behaviour,
        used by the UPD baseline); if False it decays only on positive
        pay-offs (the reward-coupled behaviour of the proposed approach).
    initial_q_value:
        Optimistic initial Q-value; zero by default.
    """

    learning_rate: float = 0.5
    discount: float = 0.4
    initial_epsilon: float = 0.9
    epsilon_alpha: float = 0.25
    minimum_epsilon: float = 0.02
    epsilon_decay_on_any_reward: bool = False
    initial_q_value: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must lie in [0, 1)")

    def make_schedule(self) -> EpsilonSchedule:
        """Build the ε schedule described by these parameters."""
        return EpsilonSchedule(
            initial_epsilon=self.initial_epsilon,
            alpha=self.epsilon_alpha,
            minimum_epsilon=self.minimum_epsilon,
            decay_on_any_reward=self.epsilon_decay_on_any_reward,
        )


class QLearningAgent:
    """Tabular Q-learning with pluggable exploration policy.

    Two per-epoch reads are plain attributes that the learning calls keep
    current, so a governor reads each at the cost of an attribute load
    (code that writes the agent's state from outside, the jitpath
    write-back, sets them too):

    ``exploration_phase_length``
        Number of decision epochs spent in the exploration phase, the
        paper's learning period: the epochs before the ε schedule has
        decayed to its floor and the RTM switches to pure exploitation.
        While the phase is still running it counts every
        :meth:`select_action` so far.
    ``last_update_changed_policy``
        True if the most recent :meth:`update` changed its state's greedy
        action.
    """

    def __init__(
        self,
        num_states: int,
        num_actions: int,
        action_frequencies_hz: Sequence[float],
        parameters: Optional[QLearningParameters] = None,
        policy: Optional[ActionSelectionPolicy] = None,
        seed: int = 0,
        qtable: Optional[QTable] = None,
    ) -> None:
        if len(action_frequencies_hz) != num_actions:
            raise ConfigurationError(
                "action_frequencies_hz must contain one frequency per action"
            )
        self.parameters = parameters or QLearningParameters()
        self.policy = policy or ExponentialPolicy()
        self.qtable = qtable or QTable(
            num_states, num_actions, initial_value=self.parameters.initial_q_value
        )
        if self.qtable.num_states != num_states or self.qtable.num_actions != num_actions:
            raise ConfigurationError("provided Q-table does not match the state/action sizes")
        self.action_frequencies_hz = list(action_frequencies_hz)
        self.epsilon_schedule = self.parameters.make_schedule()
        self._rng = random.Random(seed)
        self._exploration_draws = 0
        self._update_count = 0
        self._selection_count = 0
        self._exploitation_start: Optional[int] = None
        self.exploration_phase_length = 0
        self.last_update_changed_policy = False

    # -- statistics -----------------------------------------------------------------
    @property
    def exploration_draws(self) -> int:
        """Number of explorative (policy-sampled) action selections so far."""
        return self._exploration_draws

    @property
    def update_count(self) -> int:
        """Number of Bellman updates applied so far."""
        return self._update_count

    @property
    def epsilon(self) -> float:
        """Current exploration probability."""
        return self.epsilon_schedule.epsilon

    # -- learning -----------------------------------------------------------------------
    def update(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        progress_reward: Optional[float] = None,
    ) -> float:
        """Apply the Bellman optimality update of eq. (3) and decay ε.

        The ε decay (eq. 6) is gated on the epoch having *confirmed* the
        learnt policy: the pay-off was positive and the action agreed (within
        one table step) with the state's greedy action — see
        :class:`~repro.rtm.exploration.EpsilonSchedule`.

        Parameters
        ----------
        reward:
            Pay-off used for the Bellman update (may include per-frame miss
            penalties).
        progress_reward:
            Pay-off used to gate the ε decay; defaults to ``reward``.  The
            RTM passes the average-slack pay-off here so that a single
            mispredicted frame does not stall the exploration schedule while
            still being punished in the Q-values.

        Returns the new Q-value of (state, action).
        """
        qtable = self.qtable
        values = qtable._values
        row = values[state]
        # Greedy reads on this path take the memoised argmax from the list,
        # or a scan that memoises it (QTable.best_action without the call
        # and its range check).
        best_action_cache = qtable._best_action_cache
        greedy_before = best_action_cache[state]
        if greedy_before < 0:
            greedy_before = qtable._scan_best_action(state)
        # The bootstrap maximum is read before the write (state may be
        # next_state), from the next row's memoised argmax: that cell holds
        # a value equal to max(row).  The two reads can differ only in the
        # sign of a zero maximum, and reward + discount * (+-0.0) is the same
        # float for every reward but -0.0, which compute_reward never
        # returns with positive weights; so every target is bit-identical.
        next_greedy = best_action_cache[next_state]
        if next_greedy < 0:
            next_greedy = qtable._scan_best_action(next_state)
        target = reward + self.parameters.discount * values[next_state][next_greedy]
        learning_rate = self.parameters.learning_rate
        old_value = row[action]
        new_value = (1.0 - learning_rate) * old_value + learning_rate * target
        row[action] = new_value
        # Keep the memoised argmax (highest-index tie-break) current: it can
        # only move to the written cell, unless that cell was the greedy one
        # and dropped, which rescans the row.
        greedy_after = greedy_before
        if action != greedy_before:
            best_value = row[greedy_before]
            if new_value > best_value or (new_value == best_value and action > greedy_before):
                greedy_after = best_action_cache[state] = action
        elif new_value < old_value:
            greedy_after = qtable._scan_best_action(state)
        self.last_update_changed_policy = greedy_after != greedy_before
        self._update_count += 1
        self.epsilon_schedule.update(
            reward if progress_reward is None else progress_reward,
            -1 <= action - greedy_before <= 1,
        )
        return new_value

    # -- action selection ------------------------------------------------------------------
    def select_action(self, state: int, slack: float) -> Tuple[int, bool]:
        """Choose the action for ``state`` given the current slack.

        Returns ``(action_index, explored)`` where ``explored`` is True when
        the action came from the exploration policy rather than the greedy
        Q-table lookup (the row's memoised argmax).
        """
        schedule = self.epsilon_schedule
        if self._exploitation_start is None:
            if schedule.is_exploiting:
                self._exploitation_start = self._selection_count
            else:
                self.exploration_phase_length = self._selection_count + 1
        self._selection_count += 1
        qtable = self.qtable
        explore = schedule.should_explore(self._rng)
        if explore:
            action = self.policy.sample(
                qtable.num_actions, self.action_frequencies_hz, slack, self._rng
            )
            self._exploration_draws += 1
        else:
            action = qtable._best_action_cache[state]
            if action < 0:
                action = qtable._scan_best_action(state)
        # QTable.record_visit's increment, inline: the method call's range
        # check adds about 0.1 us to every decide() of the replay benchmark.
        qtable._visit_counts[state][action] += 1
        return action, explore

    def greedy_action(self, state: int) -> int:
        """The current greedy action for ``state`` (no exploration, no bookkeeping)."""
        return self.qtable.best_action(state)

    def reset_learning_state(self) -> None:
        """Reset ε and the exploration counters but keep the learnt Q-values.

        This supports the learning-transfer scenario of the paper's
        reference [12]: a table learnt for one application can be reused for
        another while restarting the exploration schedule.
        """
        self.epsilon_schedule.reset()
        self._exploration_draws = 0
        self._update_count = 0
        self._selection_count = 0
        self._exploitation_start = None
        self.exploration_phase_length = 0
        self.last_update_changed_policy = False
