"""Discretised state space of the Q-learning run-time manager.

The paper's Q-table rows are system states formed from the *predicted
workload* (CPU cycle count) and the *current performance* (average slack
ratio L), each discretised into N levels (N = 5 after design-space
exploration).  The many-core formulation (eq. 7) normalises the per-core
predicted workload by the total predicted workload before discretisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro._compat import left_sum
from repro.errors import ConfigurationError, StateSpaceError


class WorkloadNormalisation(enum.Enum):
    """How a raw predicted cycle count is normalised before discretisation.

    CAPACITY
        Divide by the per-core cycle capacity within ``Tref`` at the fastest
        operating point, giving an absolute load fraction in [0, 1].  This is
        the natural choice for single-agent control of one shared V-F domain.
    TOTAL_SHARE
        Divide by the *total* predicted workload over all cores (the paper's
        eq. 7), giving each core's share of the cluster's work.  This is what
        the paper's many-core formulation uses together with the shared
        Q-table and round-robin updates.
    """

    CAPACITY = "capacity"
    TOTAL_SHARE = "total_share"


@dataclass(frozen=True)
class Discretizer:
    """Maps a bounded continuous value to one of ``levels`` integer levels.

    Values outside ``[lower, upper]`` are clamped to the boundary levels,
    mirroring how a real governor saturates its observation range.
    """

    lower: float
    upper: float
    levels: int

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {self.levels}")
        if not self.upper > self.lower:
            raise ConfigurationError(
                f"upper bound must exceed lower bound, got [{self.lower}, {self.upper}]"
            )

    def level(self, value: float) -> int:
        """Return the level index (0-based) for ``value``."""
        if value != value:  # NaN guard
            raise StateSpaceError("cannot discretise NaN")
        span = self.upper - self.lower
        fraction = (value - self.lower) / span
        index = int(fraction * self.levels)
        return max(0, min(self.levels - 1, index))

    def midpoint(self, level: int) -> float:
        """Return the representative (mid-range) value of ``level``."""
        if not 0 <= level < self.levels:
            raise StateSpaceError(f"level {level} out of range 0..{self.levels - 1}")
        step = (self.upper - self.lower) / self.levels
        return self.lower + (level + 0.5) * step


class WorkloadRangeTracker:
    """Running pre-characterisation of an application's workload range.

    The paper sizes its Q-table by "discretising the range of workloads ...
    into N levels" based on a pre-characterisation (design-space
    exploration) of each application.  We perform that characterisation
    online: the tracker records the smallest and largest workloads observed
    so far and maps new values onto the resulting range, so the N workload
    levels always span the application's actual dynamic range rather than
    the platform's full capacity.

    Parameters
    ----------
    margin:
        Fractional head-room added above/below the observed extremes so that
        values slightly outside the seen range still map inside [0, 1].
    """

    def __init__(self, margin: float = 0.05) -> None:
        if margin < 0:
            raise ConfigurationError("margin must be non-negative")
        self.margin = margin
        self._low: float = float("inf")
        self._high: float = float("-inf")
        self._cached_bounds: Optional[Tuple[float, float]] = None

    @property
    def has_observations(self) -> bool:
        """True once at least one workload value has been recorded."""
        return self._low <= self._high

    @property
    def bounds(self) -> Tuple[float, float]:
        """The (low, high) bounds of the characterised range including margin.

        Recomputed only when an observation widened the range: the tracker
        is read every decision epoch but the extremes settle within the
        first few, so the margin arithmetic is cached.
        """
        cached = self._cached_bounds
        if cached is not None:
            return cached
        if not self.has_observations:
            return (0.0, 1.0)
        span = max(self._high - self._low, 1e-9)
        bounds = (self._low - self.margin * span, self._high + self.margin * span)
        self._cached_bounds = bounds
        return bounds

    def observe(self, value: float) -> None:
        """Record one observed workload value."""
        if value < 0:
            raise StateSpaceError("workload values must be non-negative")
        if value < self._low:
            self._low = value
            self._cached_bounds = None
        if value > self._high:
            self._high = value
            self._cached_bounds = None

    def normalise(self, value: float) -> float:
        """Map ``value`` onto [0, 1] relative to the characterised range.

        Before any observation has been recorded (and whenever the range has
        collapsed to a point) every value maps to the middle of the range.
        """
        if not self.has_observations:
            return 0.5
        low, high = self.bounds
        if high <= low:
            return 0.5
        fraction = (value - low) / (high - low)
        return max(0.0, min(1.0, fraction))

    def reset(self) -> None:
        """Forget the characterised range."""
        self._low = float("inf")
        self._high = float("-inf")
        self._cached_bounds = None


class StateSpace:
    """The (workload level, slack level) state space of the Q-table.

    Parameters
    ----------
    workload_levels:
        Number of discretisation levels N for the (normalised) predicted
        cycle count; the paper uses 5.
    slack_levels:
        Number of discretisation levels for the average slack ratio L; the
        paper uses the same N.
    slack_bounds:
        Saturation range for the slack ratio.  A slack of -0.5 means frames
        are overrunning their budget by 50%; +0.5 means they finish in half
        the budget.
    normalisation:
        How raw predicted cycle counts are normalised (see
        :class:`WorkloadNormalisation`).
    """

    def __init__(
        self,
        workload_levels: int = 5,
        slack_levels: int = 5,
        slack_bounds: Tuple[float, float] = (-0.5, 0.5),
        normalisation: WorkloadNormalisation = WorkloadNormalisation.CAPACITY,
    ) -> None:
        self.workload_discretizer = Discretizer(0.0, 1.0, workload_levels)
        self.slack_discretizer = Discretizer(slack_bounds[0], slack_bounds[1], slack_levels)
        self.normalisation = normalisation
        # state_index() runs once per decision epoch; the discretizer
        # constants are hoisted so the mapping is pure local arithmetic
        # (same subtraction/division/int truncation as Discretizer.level).
        self._slack_levels = self.slack_discretizer.levels
        self._w_lower = self.workload_discretizer.lower
        self._w_span = self.workload_discretizer.upper - self.workload_discretizer.lower
        self._w_levels = self.workload_discretizer.levels
        self._s_lower = self.slack_discretizer.lower
        self._s_span = self.slack_discretizer.upper - self.slack_discretizer.lower
        self._s_levels = self.slack_discretizer.levels

    # -- size ----------------------------------------------------------------------
    @property
    def workload_levels(self) -> int:
        """Number of workload discretisation levels."""
        return self.workload_discretizer.levels

    @property
    def slack_levels(self) -> int:
        """Number of slack discretisation levels."""
        return self.slack_discretizer.levels

    @property
    def num_states(self) -> int:
        """Total number of discrete states (Q-table rows)."""
        return self.workload_levels * self.slack_levels

    # -- normalisation -----------------------------------------------------------------
    def normalise_workload(
        self,
        predicted_cycles: float,
        capacity_cycles: float,
        all_core_predictions: Sequence[float] = (),
    ) -> float:
        """Normalise a raw predicted cycle count into [0, 1].

        Parameters
        ----------
        predicted_cycles:
            Predicted cycle count of the core being controlled this epoch.
        capacity_cycles:
            Per-core cycle capacity within ``Tref`` at the fastest operating
            point (used by CAPACITY normalisation).
        all_core_predictions:
            Predicted cycle counts of every core (used by TOTAL_SHARE
            normalisation, eq. 7).
        """
        if predicted_cycles < 0:
            raise StateSpaceError("predicted cycles must be non-negative")
        if self.normalisation is WorkloadNormalisation.CAPACITY:
            if capacity_cycles <= 0:
                raise StateSpaceError("capacity_cycles must be positive for CAPACITY normalisation")
            return min(1.0, predicted_cycles / capacity_cycles)
        total = left_sum(all_core_predictions)
        if total <= 0:
            return 0.0
        return min(1.0, predicted_cycles / total)

    # -- state indexing -----------------------------------------------------------------
    def state_index(self, normalised_workload: float, slack: float) -> int:
        """Map (normalised workload, slack ratio) to a Q-table row index.

        Inlines :meth:`Discretizer.level` for both axes (identical
        arithmetic, hoisted constants) — this runs once per decision epoch.
        """
        if normalised_workload != normalised_workload or slack != slack:  # NaN guard
            raise StateSpaceError("cannot discretise NaN")
        workload_level = int(
            (normalised_workload - self._w_lower) / self._w_span * self._w_levels
        )
        if workload_level < 0:
            workload_level = 0
        elif workload_level >= self._w_levels:
            workload_level = self._w_levels - 1
        slack_level = int((slack - self._s_lower) / self._s_span * self._s_levels)
        if slack_level < 0:
            slack_level = 0
        elif slack_level >= self._s_levels:
            slack_level = self._s_levels - 1
        return workload_level * self._slack_levels + slack_level

    def decompose(self, state_index: int) -> Tuple[int, int]:
        """Inverse of :meth:`state_index`: return (workload level, slack level)."""
        if not 0 <= state_index < self.num_states:
            raise StateSpaceError(
                f"state index {state_index} out of range 0..{self.num_states - 1}"
            )
        return divmod(state_index, self.slack_levels)

    def __repr__(self) -> str:
        return (
            f"StateSpace({self.workload_levels}x{self.slack_levels} levels, "
            f"normalisation={self.normalisation.value})"
        )
