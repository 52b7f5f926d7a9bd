"""Action-selection policies and the exploration/exploitation schedule.

Two exploration policies are provided:

* :class:`UniformPolicy` — the conventional uniform random selection (UPD)
  used by the baseline RL power managers the paper compares against
  (Shen et al., TODAES'13);
* :class:`ExponentialPolicy` — the paper's Exponential Probability
  Distribution (EPD, eq. 2), which biases the random draw towards operating
  points that are sensible for the *current slack*: with positive slack
  (over-performing) lower frequencies are favoured, with negative slack
  (missing the budget) higher frequencies are favoured, and with slack near
  zero the distribution is nearly uniform.

The transition from exploration to exploitation is governed by the greedy
parameter ε, decayed according to the paper's eq. (6); the decay is applied
on epochs that produced a positive pay-off, which is what lets the
EPD-guided learner (whose informed draws earn positive pay-offs sooner)
reach the exploitation phase in fewer explorations — the effect measured in
Table II.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

from repro._compat import left_sum
from repro.errors import ConfigurationError


class ActionSelectionPolicy(ABC):
    """Samples an exploratory action index given the current slack."""

    name: str = "policy"

    @abstractmethod
    def probabilities(self, num_actions: int, frequencies_hz: Sequence[float], slack: float) -> List[float]:
        """Return the selection probability of every action (sums to 1)."""

    def sample(
        self,
        num_actions: int,
        frequencies_hz: Sequence[float],
        slack: float,
        rng: random.Random,
    ) -> int:
        """Draw an action index from :meth:`probabilities`."""
        probabilities = self.probabilities(num_actions, frequencies_hz, slack)
        draw = rng.random()
        cumulative = 0.0
        for action, probability in enumerate(probabilities):
            cumulative += probability
            if draw <= cumulative:
                return action
        return num_actions - 1


class UniformPolicy(ActionSelectionPolicy):
    """Uniform probability distribution over actions (the UPD baseline)."""

    name = "upd"

    def probabilities(self, num_actions: int, frequencies_hz: Sequence[float], slack: float) -> List[float]:
        if num_actions < 1:
            raise ConfigurationError("num_actions must be >= 1")
        return [1.0 / num_actions] * num_actions


class ExponentialPolicy(ActionSelectionPolicy):
    """The paper's Exponential Probability Distribution (eq. 2).

    The probability of action ``a`` with (normalised) frequency ``F_a`` is

        p(a)  proportional to  lambda * exp(-beta * F_a * L)

    so that the sign of the slack L steers the draw: positive slack
    (over-performing) concentrates probability on low frequencies, negative
    slack on high frequencies, and L ≈ 0 recovers an (almost) uniform
    distribution governed by ``lambda`` alone.

    Parameters
    ----------
    beta:
        Sensitivity of the distribution to the slack; larger values
        concentrate the draw more sharply.
    """

    name = "epd"

    def __init__(self, beta: float = 6.0) -> None:
        if beta < 0:
            raise ConfigurationError(f"beta must be non-negative, got {beta}")
        self.beta = beta

    def probabilities(self, num_actions: int, frequencies_hz: Sequence[float], slack: float) -> List[float]:
        if num_actions < 1:
            raise ConfigurationError("num_actions must be >= 1")
        if len(frequencies_hz) != num_actions:
            raise ConfigurationError("frequencies_hz must have one entry per action")
        f_max = max(frequencies_hz)
        if f_max <= 0:
            raise ConfigurationError("frequencies must be positive")
        weights = [
            math.exp(-self.beta * (f / f_max) * slack) for f in frequencies_hz
        ]
        total = left_sum(weights)
        return [w / total for w in weights]


@dataclass
class EpsilonSchedule:
    """Greedy-parameter schedule controlling exploration vs. exploitation.

    ε is the probability of taking an explorative (policy-sampled) action;
    ``1 - ε`` is the probability of exploiting the greedy Q-table action.
    The decay follows the paper's eq. (6),

        ε_{i+1} = ε_i * exp(-alpha * (1 - ε_i)),

    applied on epochs whose decision *confirmed the learnt knowledge*: the
    pay-off was positive (the performance requirement was met) and the
    action taken agreed with the state's current greedy action.  Epochs with
    negative pay-off, or whose explorative action contradicts what the table
    currently believes is best, leave ε unchanged — the learner still has
    something to find out.

    This gating is what produces the paper's Table II effect: the
    slack-informed EPD concentrates its explorative draws on the actions
    that are (close to) best for the current state, so its explorations keep
    confirming the table and ε decays quickly; uniform (UPD) exploration
    scatters its draws over all 19 operating points, rarely confirms, and
    therefore needs substantially more explorative epochs before it reaches
    pure exploitation.

    Attributes
    ----------
    initial_epsilon:
        Starting exploration probability.
    alpha:
        The learning factor of eq. (6).
    minimum_epsilon:
        Floor below which ε is considered fully decayed (pure exploitation).
    decay_on_any_reward:
        If True, decay on every epoch regardless of the pay-off sign or
        confirmation (the conventional unconditional schedule, available for
        ablations).
    """

    initial_epsilon: float = 0.9
    alpha: float = 0.25
    minimum_epsilon: float = 0.01
    decay_on_any_reward: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_epsilon <= 1.0:
            raise ConfigurationError("initial_epsilon must lie in [0, 1]")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if not 0.0 <= self.minimum_epsilon <= self.initial_epsilon:
            raise ConfigurationError("minimum_epsilon must lie in [0, initial_epsilon]")
        self._epsilon = self.initial_epsilon

    @property
    def epsilon(self) -> float:
        """Current exploration probability."""
        return self._epsilon

    @property
    def is_exploiting(self) -> bool:
        """True once ε has decayed to (or below) its floor."""
        return self._epsilon <= self.minimum_epsilon

    def should_explore(self, rng: random.Random) -> bool:
        """Draw the explore-vs-exploit decision for this epoch."""
        if self.is_exploiting:
            return False
        return rng.random() < self._epsilon

    def update(self, reward: float, confirmed: bool = True) -> float:
        """Decay ε according to eq. (6) and return the new value.

        Parameters
        ----------
        reward:
            The pay-off of the finished epoch.
        confirmed:
            True when the epoch's action agreed with the state's current
            greedy action (learnt knowledge was confirmed rather than
            contradicted).
        """
        if self.decay_on_any_reward or (reward > 0.0 and confirmed):
            decayed = self._epsilon * math.exp(-self.alpha * (1.0 - self._epsilon))
            self._epsilon = max(self.minimum_epsilon, decayed)
        return self._epsilon

    def reset(self) -> None:
        """Return ε to its initial value."""
        self._epsilon = self.initial_epsilon
