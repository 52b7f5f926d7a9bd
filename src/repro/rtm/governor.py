"""Governor interface shared by the proposed RTM and all baseline governors.

A governor is the decision-making component of the paper's run-time layer:
at every decision epoch it is shown what happened during the previous epoch
(cycle counts from the PMU, execution time, energy, the operating point in
force) and must choose the operating-point index for the next epoch.

The same interface is implemented by the paper's proposed RL governor
(:class:`repro.rtm.rl_governor.RLGovernor` and
:class:`repro.rtm.multicore.MultiCoreRLGovernor`) and by every baseline in
:mod:`repro.governors`, so the simulation engine and the experiments treat
them interchangeably.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro._compat import SLOTS
from repro.errors import GovernorError
from repro.platform.vf_table import VFTable
from repro.workload.application import Application, PerformanceRequirement


@dataclass(frozen=True)
class PlatformInfo:
    """Static description of the platform a governor controls.

    Attributes
    ----------
    num_cores:
        Number of cores in the controlled cluster.
    vf_table:
        The cluster's operating-point table (the action space).
    """

    num_cores: int
    vf_table: VFTable

    @property
    def num_actions(self) -> int:
        """Number of selectable operating points."""
        return len(self.vf_table)

    def capacity_cycles(self, reference_time_s: float) -> float:
        """Per-core cycle capacity within ``reference_time_s`` at the fastest point."""
        return self.vf_table.max_point.frequency_hz * reference_time_s


@dataclass(**SLOTS)
class EpochObservation:
    """Everything a governor may observe about the epoch that just finished.

    An observation is valid only for the duration of the ``decide()`` call
    it is passed to: the engines' hot loops reuse one instance and assign
    its fields in place between epochs (it is deliberately not frozen), so
    a governor must extract the values it needs inside ``decide()`` rather
    than retain the object, and must not write to it.

    Attributes
    ----------
    epoch_index:
        Zero-based index of the finished decision epoch (= frame index).
    cycles_per_core:
        Busy cycles executed by each core during the epoch (PMU deltas).
    busy_time_s:
        Execution time of the frame's critical path (the quantity compared
        against ``Tref`` for the performance requirement).
    interval_s:
        Full duration of the epoch including idle padding and DVFS stalls.
    reference_time_s:
        The per-frame performance requirement ``Tref``.
    operating_index:
        Operating-point index that was in force during the epoch.
    energy_j:
        Energy consumed during the epoch (as the governor would compute from
        the power sensor and execution time).
    measured_power_w:
        Power reported by the on-board sensor for the epoch.
    overhead_time_s:
        Governor overhead charged to this epoch (sensor access, processing,
        DVFS transition) — the paper's ``T_OVH`` contribution.
    throttle_events:
        Number of thermal-model steps during the epoch that ended at or
        above the throttle threshold (always 0 with the thermal model
        disabled).  Before this field, a throttling decision taken
        mid-epoch was invisible to the observation and a thermally-aware
        governor could not react to it.
    """

    epoch_index: int
    cycles_per_core: Tuple[float, ...]
    busy_time_s: float
    interval_s: float
    reference_time_s: float
    operating_index: int
    energy_j: float
    measured_power_w: float
    overhead_time_s: float = 0.0
    throttle_events: int = 0

    @property
    def met_deadline(self) -> bool:
        """True when the frame finished within its reference time."""
        return self.busy_time_s <= self.reference_time_s + 1e-12


@dataclass(**SLOTS)
class FrameHint:
    """Perfect knowledge of the upcoming frame.

    Only the Oracle governor uses this; online governors must ignore it.
    The simulation engine always passes it so that the engine code does not
    need to special-case the Oracle.  Like :class:`EpochObservation`, a hint
    is valid only inside the ``decide()`` call it is passed to — the engines
    reuse one instance and assign its fields in place between frames.
    """

    cycles_per_core: Tuple[float, ...]
    deadline_s: float

    @property
    def max_cycles(self) -> float:
        """Largest per-core cycle demand of the upcoming frame."""
        return max(self.cycles_per_core)


class Governor(ABC):
    """Abstract DVFS governor driven once per decision epoch."""

    #: Human-readable governor name used in reports and result tables.
    name: str = "governor"

    #: Decision-processing time charged as overhead to the epoch whose
    #: operating point the last ``decide()`` chose (seconds).  A plain
    #: attribute: simple heuristic governors are essentially free and keep
    #: this class default; learning governors write their
    #: :class:`~repro.rtm.overhead.OverheadModel`'s value on the instance in
    #: every ``decide()``.  The closed-loop engines read it once per frame,
    #: right after ``decide()``.
    processing_overhead_s: float = 0.0

    def __init__(self) -> None:
        self._platform: Optional[PlatformInfo] = None
        self._requirement: Optional[PerformanceRequirement] = None

    # -- lifecycle -------------------------------------------------------------
    def setup(self, platform: PlatformInfo, requirement: PerformanceRequirement) -> None:
        """Bind the governor to a platform and an application requirement.

        Subclasses that override this must call ``super().setup(...)``.
        """
        self._platform = platform
        self._requirement = requirement

    @property
    def platform(self) -> PlatformInfo:
        """The platform this governor controls (raises if :meth:`setup` not called)."""
        if self._platform is None:
            raise GovernorError(f"governor {self.name!r} used before setup()")
        return self._platform

    @property
    def requirement(self) -> PerformanceRequirement:
        """The application requirement (raises if :meth:`setup` not called)."""
        if self._requirement is None:
            raise GovernorError(f"governor {self.name!r} used before setup()")
        return self._requirement

    # -- per-epoch decision -------------------------------------------------------
    @abstractmethod
    def decide(
        self,
        previous: Optional[EpochObservation],
        hint: Optional[FrameHint] = None,
    ) -> int:
        """Choose the operating-point index for the next epoch.

        Parameters
        ----------
        previous:
            Observation of the epoch that just finished, or ``None`` at the
            very first epoch.
        hint:
            Perfect knowledge of the upcoming frame; only the Oracle may use
            it.
        """

    # -- fast-path capability probe -------------------------------------------------
    def static_schedule(self, application: Application) -> Optional[List[int]]:
        """Per-frame operating-point indices, when they are knowable up front.

        A governor whose decisions do not depend on run-time observations
        (the pinned Linux policies, or the Oracle with its perfect per-frame
        knowledge) can compute its entire schedule from the application
        alone.  Returning that schedule lets the simulation engine replace
        the frame-by-frame closed loop with the static-schedule engine in
        :mod:`repro.sim.fastpath`.

        Closed-loop governors must return ``None`` (the default), which
        keeps them on the scalar engine.  Called after :meth:`setup`.
        """
        return None

    # -- optional reporting hooks -------------------------------------------------
    #: Number of explorative decisions taken so far.  A plain attribute,
    #: like ``processing_overhead_s``: non-learning governors keep this
    #: class default of 0, learning governors write their count on the
    #: instance in every ``decide()``.  The closed-loop engines read it
    #: once per frame, right after ``decide()``, and flag the frame as
    #: explored when it grew.
    exploration_count: int = 0

    @property
    def converged_epoch(self) -> Optional[int]:
        """Epoch at which learning converged, if the governor learns and has converged."""
        return None

    def decision_state(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of the governor's decision-relevant state.

        The parity harness (:mod:`repro.testing.parity`) captures this after
        a run and diffs it across engine backends: two backends that fed the
        governor bit-identical observations must leave it in bit-identical
        state.  The base snapshot covers the reporting hooks every governor
        has; governors with internal decision state (learnt Q-tables,
        threshold hold counters) override this, call ``super()`` first, and
        extend the dict — values must stay JSON scalars / lists / dicts and
        must be deterministic for a deterministic run.
        """
        return {
            "governor": self.name,
            "exploration_count": self.exploration_count,
            "converged_epoch": self.converged_epoch,
        }

    def describe(self) -> str:
        """One-line description used in reports."""
        return self.name
