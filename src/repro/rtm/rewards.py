"""Reward and slack-ratio computation (the paper's eqs. 4 and 5).

The RTM's pay-off for an action is a linear function of the *average slack
ratio* L and its change since the previous decision epoch:

    R_i = a * L_i + b * dL          (eq. 4)

where the average slack ratio accumulates the per-epoch slacks since the
application declared its current reference time:

    L_i = 1 / (D * Tref) * sum_{t=0..i} (Tref - T_t - T_OVH)     (eq. 5)

A positive L means the application has been finishing its frames early
(over-performing, wasting energy head-room); a negative L means it has been
missing its budget.  Rewarding increases in L when L is negative and
penalising large positive L pushes the learnt policy towards "just fast
enough".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro._compat import left_sum
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RewardParameters:
    """Constants of the reward function (the paper's predetermined ``a`` and ``b``).

    Attributes
    ----------
    slack_weight:
        The constant ``a`` scaling the slack-dependent term.
    delta_weight:
        The constant ``b`` multiplying the change in slack dL.
    miss_penalty_weight:
        Multiplier on negative slack (deadline misses); larger values make
        deadline violations dominate the pay-off, which is what steers the
        learnt policy away from too-slow operating points.
    overperformance_penalty:
        Penalty per unit of slack above ``target_slack`` — this is what makes
        running needlessly fast (energy-wasteful) unattractive, so the greedy
        policy settles on the *slowest* deadline-meeting action.
    target_slack:
        The slack level the RTM should converge to; slightly positive so that
        small mispredictions do not immediately cause deadline misses.
    """

    slack_weight: float = 1.0
    delta_weight: float = 0.3
    miss_penalty_weight: float = 3.0
    overperformance_penalty: float = 5.0
    target_slack: float = 0.08

    def __post_init__(self) -> None:
        if self.overperformance_penalty < 0:
            raise ConfigurationError("overperformance_penalty must be non-negative")
        if self.miss_penalty_weight < 0:
            raise ConfigurationError("miss_penalty_weight must be non-negative")


def compute_reward(
    average_slack: float,
    slack_delta: float,
    parameters: RewardParameters = RewardParameters(),
    instantaneous_slack: Optional[float] = None,
) -> float:
    """Compute the pay-off R_i for a decision epoch (eq. 4, shaped).

    The pay-off follows the paper's form ``R = a * f(L) + b * dL`` with a
    piecewise slack term ``f(L)``:

    * ``L < 0`` (deadline budget exceeded): strongly negative,
      ``-miss_penalty_weight * |L|`` — actions causing misses are penalised;
    * ``L >= 0`` (budget met): positive, peaking at ``target_slack`` and
      decreasing by ``overperformance_penalty`` per unit of excess slack —
      actions that merely meet the requirement beat actions that race ahead.

    When the epoch's own (instantaneous) slack is supplied and is negative —
    the frame itself missed its deadline even though the running average is
    still healthy — the miss penalty is applied to that deficit as well.
    This is the paper's observation that under-prediction "results in a
    deadline miss by the frames" which video decoders punish by dropping the
    frame: an action must not rely on accumulated slack to excuse a missed
    frame.

    The positive/negative sign of the pay-off is what the ε schedule
    (eq. 6) keys its decay on: epochs whose actions met the requirement are
    learning progress.
    """
    p = parameters
    if average_slack < 0.0:
        slack_term = -p.miss_penalty_weight * (-average_slack)
    else:
        excess = max(0.0, average_slack - p.target_slack)
        slack_term = p.slack_weight * (1.0 - p.overperformance_penalty * excess)
    reward = slack_term + p.delta_weight * slack_delta
    if instantaneous_slack is not None and instantaneous_slack < 0.0:
        reward -= p.miss_penalty_weight * (-instantaneous_slack)
    return reward


class SlackTracker:
    """Maintains the running average slack ratio L of eq. (5).

    The tracker is fed the per-epoch execution time ``T_i`` (critical-path
    time of the frame) and the overhead ``T_OVH`` charged to the epoch, and
    maintains both the instantaneous and the running-average slack ratios.
    Each :meth:`update` computes the epoch's instantaneous slack ratio and
    the change in L once; the properties return the stored values, so a
    governor reads them every epoch at the cost of an attribute load.  An
    engine that computes the epochs elsewhere (the jitpath kernel) hands
    the tracker its final state through :meth:`restore`, which derives the
    same stored values.

    Parameters
    ----------
    reference_time_s:
        The per-frame reference time ``Tref``.
    window:
        Number of most recent epochs the average runs over.  ``None``
        reproduces eq. (5) literally (average since the application start);
        a finite window keeps L responsive to the governor's recent actions,
        which is what gives the Q-learning update a usable per-action credit
        signal on long runs (see DESIGN.md, "deviations").
    """

    def __init__(self, reference_time_s: float, window: Optional[int] = None) -> None:
        if reference_time_s <= 0:
            raise ConfigurationError("reference_time_s must be positive")
        if window is not None and window < 1:
            raise ConfigurationError("window must be >= 1 when given")
        self.reference_time_s = reference_time_s
        self.window = window
        # Windowed mode keeps only the last `window` slacks (deque, so the
        # per-epoch average needs no slice allocation); cumulative mode
        # (window=None, eq. 5 literally) maintains a running left-to-right
        # sum, which is bit-identical to re-summing the full history while
        # avoiding the O(epochs) rescan every update.
        self._slacks_s: "deque[float]" = deque(maxlen=window)
        self._running_sum = 0.0
        self._epochs = 0
        self._history: List[float] = []
        self._last_average = 0.0
        self._slack_delta = 0.0
        self._last_instantaneous_slack = 0.0

    # -- updates -------------------------------------------------------------------
    def update(self, execution_time_s: float, overhead_time_s: float = 0.0) -> float:
        """Add one epoch's observation and return the new average slack ratio L_i."""
        if execution_time_s < 0 or overhead_time_s < 0:
            raise ValueError("times must be non-negative")
        reference = self.reference_time_s
        slack = reference - execution_time_s - overhead_time_s
        slacks = self._slacks_s
        slacks.append(slack)
        epochs = self._epochs + 1
        self._epochs = epochs
        if self.window is None:
            self._running_sum += slack
            average = self._running_sum / (epochs * reference)
        else:
            average = left_sum(slacks) / (len(slacks) * reference)
        self._history.append(average)
        self._slack_delta = average if epochs == 1 else average - self._last_average
        self._last_instantaneous_slack = slack / reference
        self._last_average = average
        return average

    def restore(
        self, slacks_s: Sequence[float], history: List[float], running_sum: float
    ) -> None:
        """Adopt the state after ``len(history)`` epochs computed elsewhere.

        ``slacks_s`` are the most recent per-epoch slacks in seconds (at
        most ``window`` of them are kept), ``history`` the average slack
        ratio after every epoch and ``running_sum`` the cumulative slack sum
        of the unwindowed mode.  The stored reads are derived exactly as
        :meth:`update` would have left them.
        """
        self._slacks_s = deque(slacks_s, maxlen=self.window)
        self._running_sum = running_sum
        self._epochs = len(history)
        self._history = history
        if not history:
            self._last_average = 0.0
            self._slack_delta = 0.0
            self._last_instantaneous_slack = 0.0
            return
        average = history[-1]
        self._last_average = average
        self._slack_delta = average if len(history) == 1 else average - history[-2]
        self._last_instantaneous_slack = self._slacks_s[-1] / self.reference_time_s

    # -- reads -----------------------------------------------------------------------
    @property
    def epochs(self) -> int:
        """Number of epochs observed since the last reset (the ``D`` of eq. 5)."""
        return self._epochs

    @property
    def last_instantaneous_slack(self) -> float:
        """Slack ratio of the most recent epoch alone (0 before any update)."""
        return self._last_instantaneous_slack

    @property
    def average_slack(self) -> float:
        """The current average slack ratio L (0 before any update)."""
        return self._last_average

    @property
    def slack_delta(self) -> float:
        """Change in the average slack ratio over the last epoch (the dL of eq. 4).

        After the first epoch this is L itself (the change from no history).
        """
        return self._slack_delta

    @property
    def history(self) -> List[float]:
        """Average slack ratio after each epoch (used for the Fig. 3 series)."""
        return list(self._history)

    def reset(self, reference_time_s: float = 0.0) -> None:
        """Clear the history; optionally change the reference time."""
        if reference_time_s > 0:
            self.reference_time_s = reference_time_s
        self._slacks_s.clear()
        self._running_sum = 0.0
        self._epochs = 0
        self._history.clear()
        self._last_average = 0.0
        self._slack_delta = 0.0
        self._last_instantaneous_slack = 0.0
