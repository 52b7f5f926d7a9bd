"""DVFS actuator with transition-cost modelling.

Changing the operating point of a real cluster is not free: the PLL must
re-lock and the voltage regulator must slew, which costs both time and a
small amount of energy.  The paper accounts for this in its overhead term
``T_OVH`` (eq. 5) and in the "learning overhead" evaluation (Table III), so
the actuator records every transition along with its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro._compat import SLOTS
from repro.errors import ConfigurationError, InvalidOperatingPointError
from repro.platform.vf_table import OperatingPoint, VFTable


@dataclass(frozen=True, **SLOTS)
class DVFSTransition:
    """A single recorded operating-point change."""

    timestamp_s: float
    from_index: int
    to_index: int
    latency_s: float
    energy_j: float


@dataclass
class DVFSActuator:
    """Applies operating-point requests to a cluster's V-F domain.

    Parameters
    ----------
    table:
        The cluster's operating-point table.
    transition_latency_s:
        Time for which execution stalls while the PLL/regulator settle.
        The XU3's cpufreq driver reports ~100 microseconds; we default to
        that.
    transition_energy_j:
        Fixed energy cost per transition (regulator switching losses).
    initial_index:
        Operating-point index selected at construction time.
    """

    table: VFTable
    transition_latency_s: float = 100e-6
    transition_energy_j: float = 1.0e-4
    initial_index: Optional[int] = None
    _current_index: int = field(init=False)
    _transitions: List[DVFSTransition] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.transition_latency_s < 0 or self.transition_energy_j < 0:
            raise ConfigurationError("DVFS transition costs must be non-negative")
        if self.initial_index is None:
            self._current_index = len(self.table) - 1
        else:
            if not 0 <= self.initial_index < len(self.table):
                raise InvalidOperatingPointError(
                    f"initial index {self.initial_index} out of range"
                )
            self._current_index = self.initial_index

    # -- state ----------------------------------------------------------------
    @property
    def current_index(self) -> int:
        """Index of the currently applied operating point."""
        return self._current_index

    @property
    def current_point(self) -> OperatingPoint:
        """The currently applied operating point."""
        return self.table[self._current_index]

    @property
    def transitions(self) -> List[DVFSTransition]:
        """All transitions applied so far, in order."""
        return list(self._transitions)

    @property
    def total_transition_time_s(self) -> float:
        """Cumulative stall time spent in transitions."""
        return sum(t.latency_s for t in self._transitions)

    @property
    def total_transition_energy_j(self) -> float:
        """Cumulative energy spent in transitions."""
        return sum(t.energy_j for t in self._transitions)

    # -- actions ----------------------------------------------------------------
    def request(self, index: int, timestamp_s: float = 0.0) -> DVFSTransition:
        """Request operating point ``index``; returns the transition record.

        Requesting the already-active index is a no-op with zero cost (and is
        not recorded as a transition), matching cpufreq behaviour.
        """
        if not 0 <= index < len(self.table):
            raise InvalidOperatingPointError(
                f"operating-point index {index} out of range (0..{len(self.table) - 1})"
            )
        if index == self._current_index:
            return DVFSTransition(
                timestamp_s=timestamp_s,
                from_index=index,
                to_index=index,
                latency_s=0.0,
                energy_j=0.0,
            )
        transition = DVFSTransition(
            timestamp_s=timestamp_s,
            from_index=self._current_index,
            to_index=index,
            latency_s=self.transition_latency_s,
            energy_j=self.transition_energy_j,
        )
        self._transitions.append(transition)
        self._current_index = index
        return transition

    def absorb_transitions(
        self, transitions: List[DVFSTransition], final_index: int
    ) -> None:
        """Append externally computed transition records and set the final point.

        Used by the engines that bypass the cluster model, which derive the
        per-frame transitions of a run rather than making per-frame
        :meth:`request` calls, then hand the records over
        so ``transitions`` / ``total_transition_*`` report the same
        values a scalar run would.
        """
        if not 0 <= final_index < len(self.table):
            raise InvalidOperatingPointError(f"index {final_index} out of range")
        self._transitions.extend(transitions)
        self._current_index = final_index

    def reset(self, index: Optional[int] = None) -> None:
        """Clear transition history and optionally jump to ``index`` at no cost."""
        self._transitions.clear()
        if index is not None:
            if not 0 <= index < len(self.table):
                raise InvalidOperatingPointError(f"index {index} out of range")
            self._current_index = index
