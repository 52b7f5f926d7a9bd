"""UPD-exploration Q-learning baseline (Shen et al., TODAES 2013) — the paper's ref. [21].

Shen et al.'s autonomous power manager uses the same model-free Q-learning
machinery as the proposed RTM, but explores with the conventional **uniform
probability distribution** over actions instead of the paper's
slack-informed exponential distribution (EPD).  The paper's Table II
measures exactly this difference: with uniform exploration the learner needs
substantially more explorative decision epochs before its policy settles.

Implementation-wise this baseline is therefore the proposed
:class:`~repro.rtm.rl_governor.RLGovernor` with the exploration policy
swapped for :class:`~repro.rtm.exploration.UniformPolicy`: its config is the
given one with ``use_exponential_exploration`` turned off, and every other
field (EWMA prediction, state space, slack window, Bellman update, reward)
passes through unchanged, which isolates the exploration-policy effect the
paper reports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig


class ShenRLGovernor(RLGovernor):
    """Q-learning DVFS governor with uniform (UPD) exploration."""

    name = "shen-rl-upd"

    def __init__(self, config: Optional[RLGovernorConfig] = None) -> None:
        base = config or RLGovernorConfig()
        super().__init__(replace(base, use_exponential_exploration=False))
        self.name = "shen-rl-upd"

    def describe(self) -> str:
        return (
            "shen-rl-upd: Q-learning RTM with uniform-probability (UPD) exploration "
            "(Shen et al., TODAES'13)"
        )
