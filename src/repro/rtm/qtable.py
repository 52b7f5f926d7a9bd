"""Q-table: the look-up table at the heart of the paper's RTM.

The table has one row per discrete system state (workload level x slack
level) and one column per V-F action.  Its size |S| x |A| is deliberately
kept small (the paper discretises into N = 5 levels) because it determines
the learning overhead; the many-core formulation shares a single table
between all cores for the same reason.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, StateSpaceError


class QTable:
    """A dense table of Q-values over (state, action) pairs."""

    def __init__(self, num_states: int, num_actions: int, initial_value: float = 0.0) -> None:
        if num_states < 1 or num_actions < 1:
            raise ConfigurationError("QTable requires at least one state and one action")
        self._num_states = num_states
        self._num_actions = num_actions
        self._values: List[List[float]] = [
            [initial_value] * num_actions for _ in range(num_states)
        ]
        self._visit_counts: List[List[int]] = [
            [0] * num_actions for _ in range(num_states)
        ]
        # Memoised highest-tie argmax per row (-1 = unknown).  A row's greedy
        # action only changes when the row is written, so set() invalidates
        # the entry and QLearningAgent.update refreshes it from the cell it
        # wrote.
        self._best_action_cache: List[int] = [-1] * num_states

    # -- size ---------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of rows (discrete system states)."""
        return self._num_states

    @property
    def num_actions(self) -> int:
        """Number of columns (V-F actions)."""
        return self._num_actions

    @property
    def size(self) -> int:
        """Total number of state-action pairs |S| x |A|."""
        return self._num_states * self._num_actions

    # -- access ----------------------------------------------------------------------
    def _check(self, state: int, action: Optional[int] = None) -> None:
        if not 0 <= state < self._num_states:
            raise StateSpaceError(f"state {state} out of range 0..{self._num_states - 1}")
        if action is not None and not 0 <= action < self._num_actions:
            raise StateSpaceError(f"action {action} out of range 0..{self._num_actions - 1}")

    def get(self, state: int, action: int) -> float:
        """Q-value of (state, action)."""
        self._check(state, action)
        return self._values[state][action]

    def set(self, state: int, action: int, value: float) -> None:
        """Overwrite the Q-value of (state, action)."""
        self._check(state, action)
        self._values[state][action] = value
        self._best_action_cache[state] = -1

    def row(self, state: int) -> Tuple[float, ...]:
        """All action values for ``state``."""
        self._check(state)
        return tuple(self._values[state])

    def best_action(self, state: int) -> int:
        """Index of the best action for ``state``.

        Ties are broken towards the highest-index (fastest) action, which is
        the performance-safe choice before any learning has happened.

        The result is memoised until the row is next written.
        """
        self._check(state)
        cached = self._best_action_cache[state]
        return cached if cached >= 0 else self._scan_best_action(state)

    def _scan_best_action(self, state: int) -> int:
        """Scan ``state``'s row for its highest-index argmax and memoise it."""
        row = self._values[state]
        action = len(row) - 1 - row[::-1].index(max(row))
        self._best_action_cache[state] = action
        return action

    # -- learning bookkeeping ------------------------------------------------------------
    def record_visit(self, state: int, action: int) -> None:
        """Record that (state, action) was selected (for coverage statistics)."""
        self._check(state, action)
        self._visit_counts[state][action] += 1

    def visit_count(self, state: int, action: int) -> int:
        """How many times (state, action) has been selected."""
        self._check(state, action)
        return self._visit_counts[state][action]

    def __repr__(self) -> str:
        return f"QTable({self._num_states} states x {self._num_actions} actions)"
