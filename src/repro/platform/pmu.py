"""Performance-monitoring unit (PMU) model.

The paper's state representation is driven by the CPU cycle count read from
the A15's PMU at each decision epoch.  This module models the counters a
governor actually reads: a free-running cycle counter plus instruction and
idle-cycle counters, with explicit sample/delta semantics so governors see
per-epoch deltas just as a real governor computes them from successive
register reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro._compat import SLOTS

#: A run's totals for one core: ``(busy_cycles, busy_s, idle_cycles, idle_s)``.
RunTotals = Tuple[float, float, float, float]


@dataclass(frozen=True, **SLOTS)
class PMUSample:
    """A snapshot of the PMU counters at a point in time.

    Attributes
    ----------
    timestamp_s:
        Platform time at which the sample was taken.
    cycles:
        Busy (instruction-executing) cycles accumulated since reset.
    idle_cycles:
        Cycles during which the core was clocked but idle.
    instructions:
        Retired instructions since reset.
    """

    timestamp_s: float
    cycles: float
    idle_cycles: float
    instructions: float

    def delta(self, earlier: "PMUSample") -> "PMUSample":
        """Return the counter deltas between this sample and an earlier one."""
        if earlier.timestamp_s > self.timestamp_s:
            raise ValueError("delta requires the earlier sample first")
        return PMUSample(
            timestamp_s=self.timestamp_s - earlier.timestamp_s,
            cycles=self.cycles - earlier.cycles,
            idle_cycles=self.idle_cycles - earlier.idle_cycles,
            instructions=self.instructions - earlier.instructions,
        )

    @property
    def total_cycles(self) -> float:
        """Busy plus idle cycles."""
        return self.cycles + self.idle_cycles

    @property
    def utilisation(self) -> float:
        """Fraction of cycles spent busy; 0 if no cycles elapsed."""
        total = self.total_cycles
        if total <= 0:
            return 0.0
        return self.cycles / total


class PerformanceMonitoringUnit:
    """Accumulating cycle/instruction counters for a single core.

    The platform's execution model calls :meth:`account_busy` /
    :meth:`account_idle` as work is executed; governors call
    :meth:`sample` to take snapshots and compute deltas themselves (as the
    paper's RTM does at each decision epoch).
    """

    def __init__(self) -> None:
        self._cycles = 0.0
        self._idle_cycles = 0.0
        self._instructions = 0.0
        self._time_s = 0.0
        self._pending: Optional[Callable[[], RunTotals]] = None

    # -- accounting (called by the platform) ---------------------------------
    def account_busy(self, cycles: float, duration_s: float, instructions: float = 0.0) -> None:
        """Record ``cycles`` of busy execution taking ``duration_s`` seconds."""
        if self._pending is not None:
            self._settle()
        if cycles < 0 or duration_s < 0 or instructions < 0:
            raise ValueError("PMU accounting values must be non-negative")
        self._cycles += cycles
        self._instructions += instructions if instructions > 0 else cycles
        self._time_s += duration_s

    def account_idle(self, cycles: float, duration_s: float) -> None:
        """Record ``cycles`` of idle (clocked but not executing) time."""
        if self._pending is not None:
            self._settle()
        if cycles < 0 or duration_s < 0:
            raise ValueError("PMU accounting values must be non-negative")
        self._idle_cycles += cycles
        self._time_s += duration_s

    def account_run(self, totals: Callable[[], RunTotals]) -> None:
        """Record a whole run whose totals are computed when first needed.

        ``totals()`` returns ``(busy_cycles, busy_s, idle_cycles, idle_s)``.
        Before the counters are next read or changed it is called and
        recorded as :meth:`account_busy`, then :meth:`account_idle` when
        ``idle_s > 0``; a :meth:`reset` drops it uncalled.  The engines
        that run a trace without the cluster model credit each core this
        way, so a campaign that never reads a PMU never adds its totals.
        """
        if self._pending is not None:
            self._settle()
        self._pending = totals

    def _settle(self) -> None:
        totals, self._pending = self._pending, None
        busy_cycles, busy_s, idle_cycles, idle_s = totals()
        self.account_busy(busy_cycles, busy_s)
        if idle_s > 0:
            self.account_idle(idle_cycles, idle_s)

    # -- reads (called by governors) ------------------------------------------
    def sample(self) -> PMUSample:
        """Take a snapshot of the current counter values."""
        if self._pending is not None:
            self._settle()
        return PMUSample(
            timestamp_s=self._time_s,
            cycles=self._cycles,
            idle_cycles=self._idle_cycles,
            instructions=self._instructions,
        )

    def reset(self) -> None:
        """Zero all counters (as on a PMU counter reset)."""
        self._pending = None
        self._cycles = 0.0
        self._idle_cycles = 0.0
        self._instructions = 0.0
        self._time_s = 0.0

    @property
    def busy_cycles(self) -> float:
        """Busy cycles accumulated since the last reset."""
        if self._pending is not None:
            self._settle()
        return self._cycles

    @property
    def idle_cycles(self) -> float:
        """Idle cycles accumulated since the last reset."""
        if self._pending is not None:
            self._settle()
        return self._idle_cycles

    @property
    def elapsed_time_s(self) -> float:
        """Wall-clock time accumulated since the last reset."""
        if self._pending is not None:
            self._settle()
        return self._time_s
