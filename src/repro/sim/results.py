"""Simulation result container and the paper's normalisations.

:class:`SimulationResult` holds a run's per-frame data in one place: a
:class:`~repro.sim.epoch.FrameColumns` (every engine's output, and every
result loaded through the result store or
:meth:`SimulationResult.from_dict`).  A list of
:class:`~repro.sim.epoch.FrameRecord` objects is accepted as an input form
and gathered into columns once.  The aggregate properties read the
columns, :meth:`~SimulationResult.to_arrays` exposes them to
array-oriented consumers (metrics, reporting, plotting), and
``result.records`` hands out a fresh tuple of records on each call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.platform.energy import EnergyAccount
from repro.sim.epoch import FRAME_COLUMN_NAMES, FrameColumns, FrameRecord


class SimulationResult:
    """Complete outcome of running one governor over one application.

    Attributes
    ----------
    governor_name / application_name:
        Identification of the run.
    reference_time_s:
        The per-frame performance requirement the run was executed against.
    columns:
        The run's per-frame data, one :class:`~repro.sim.epoch.FrameColumns`
        column per :class:`~repro.sim.epoch.FrameRecord` field.  Callers
        must not mutate the column lists.
    records:
        One :class:`~repro.sim.epoch.FrameRecord` per decision epoch, built
        from the columns as a new tuple on every access.  It is a snapshot:
        it cannot be appended to or assigned into, so it can never go out
        of step with the columns.
    exploration_count:
        Number of explorative decisions the governor reported.
    converged_epoch:
        Epoch at which the governor's learning converged (``None`` for
        non-learning governors or unconverged runs).
    engine_used:
        Name of the engine that produced this result (``"fastpath"``,
        ``"jitpath"``, ``"tablepath"`` or ``"scalar"``; results saved by
        earlier releases may carry a retired name such as
        ``"thermalpath"``, and still load).  Stamped by
        :meth:`~repro.sim.engine.SimulationEngine.run`; empty for results
        built by hand or by calling an engine module directly.
    """

    __slots__ = (
        "governor_name",
        "application_name",
        "reference_time_s",
        "exploration_count",
        "converged_epoch",
        "engine_used",
        "_columns",
    )

    def __init__(
        self,
        governor_name: str,
        application_name: str,
        reference_time_s: float,
        records: Optional[Sequence[FrameRecord]] = None,
        exploration_count: int = 0,
        converged_epoch: Optional[int] = None,
        columns: Optional[FrameColumns] = None,
        engine_used: str = "",
    ) -> None:
        if reference_time_s <= 0:
            raise SimulationError("reference_time_s must be positive")
        if records is not None and columns is not None:
            raise SimulationError("pass either records or columns, not both")
        self.governor_name = governor_name
        self.application_name = application_name
        self.reference_time_s = reference_time_s
        self.exploration_count = exploration_count
        self.converged_epoch = converged_epoch
        self.engine_used = engine_used
        if columns is None:
            columns = FrameColumns.from_records(records or ())
        self._columns = columns

    # -- per-frame data -----------------------------------------------------------
    @property
    def records(self) -> Tuple[FrameRecord, ...]:
        """Per-frame records, materialised from the columns on each call."""
        return self._columns.materialize()

    @property
    def columns(self) -> FrameColumns:
        """The columnar per-frame data (never ``None``)."""
        return self._columns

    def to_arrays(self) -> Dict[str, Any]:
        """The run as one array (NumPy when available, list otherwise) per field.

        Keys are the :class:`~repro.sim.epoch.FrameRecord` field names;
        ``cycles_per_core`` is a 2-D ``(num_frames, num_cores)`` array.  This
        is the accessor array-oriented consumers (metrics, reporting,
        plotting) should use instead of looping over ``records``.
        """
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - exercised on numpy-less installs
            np = None
        columns = self._columns
        arrays: Dict[str, Any] = {}
        for name in FRAME_COLUMN_NAMES:
            column = getattr(columns, name)
            arrays[name] = np.asarray(column) if np is not None else list(column)
        return arrays

    # -- totals ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of simulated decision epochs."""
        return len(self._columns)

    @property
    def total_energy_j(self) -> float:
        """Total energy over the run."""
        return sum(self._columns.energy_j)

    @property
    def total_time_s(self) -> float:
        """Total wall-clock time of the run (sum of epoch intervals)."""
        return sum(self._columns.interval_s)

    @property
    def average_power_w(self) -> float:
        """Mean power over the run."""
        total_time = self.total_time_s
        if total_time <= 0:
            return 0.0
        return self.total_energy_j / total_time

    @property
    def frame_times_s(self) -> List[float]:
        """Per-frame execution times (busy + overhead)."""
        return list(self._columns.frame_time_s)

    @property
    def average_frame_time_s(self) -> float:
        """Mean per-frame execution time."""
        frame_times = self.frame_times_s
        if not frame_times:
            return 0.0
        return sum(frame_times) / len(frame_times)

    # -- the paper's normalised metrics ----------------------------------------------
    @property
    def normalized_performance(self) -> float:
        """Average frame time / Tref (Table I definition: >1 under-performs, <1 over-performs)."""
        return self.average_frame_time_s / self.reference_time_s

    def normalized_energy(self, oracle: "SimulationResult") -> float:
        """This run's energy divided by the Oracle run's energy (Table I definition)."""
        oracle_energy = oracle.total_energy_j
        if oracle_energy <= 0:
            raise SimulationError("oracle energy must be positive for normalisation")
        return self.total_energy_j / oracle_energy

    @property
    def deadline_miss_ratio(self) -> float:
        """Fraction of frames that missed their deadline."""
        frame_times = self._columns.frame_time_s
        if not frame_times:
            return 0.0
        misses = sum(
            1
            for frame_time, deadline in zip(frame_times, self._columns.deadline_s)
            if frame_time > deadline + 1e-12
        )
        return misses / len(frame_times)

    @property
    def mean_slack_ratio(self) -> float:
        """Mean per-frame slack ratio."""
        frame_times = self._columns.frame_time_s
        if not frame_times:
            return 0.0
        total = sum(
            (deadline - frame_time) / deadline if deadline > 0 else 0.0
            for frame_time, deadline in zip(frame_times, self._columns.deadline_s)
        )
        return total / len(frame_times)

    @property
    def total_overhead_s(self) -> float:
        """Total governor overhead charged over the run."""
        return sum(self._columns.overhead_time_s)

    def energy_account(self) -> EnergyAccount:
        """Export the run as an :class:`~repro.platform.energy.EnergyAccount`."""
        return EnergyAccount(
            total_energy_j=self.total_energy_j,
            total_time_s=self.total_time_s,
            frame_times_s=self.frame_times_s,
            reference_time_s=self.reference_time_s,
        )

    # -- legacy JSON blob --------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Read a result of the legacy JSON blob, as a columnar result.

        Results are written only as store records
        (:mod:`repro.campaign.store`); this reads the per-frame row dicts
        earlier releases saved.  Each frame is validated by
        :meth:`~repro.sim.epoch.FrameColumns.from_dicts`.
        """
        return cls(
            governor_name=data["governor_name"],
            application_name=data["application_name"],
            reference_time_s=data["reference_time_s"],
            columns=FrameColumns.from_dicts(data.get("records", [])),
            exploration_count=data.get("exploration_count", 0),
            converged_epoch=data.get("converged_epoch"),
            engine_used=data.get("engine_used", ""),
        )

    # -- slicing ------------------------------------------------------------------------
    def window(self, first_frame: int, last_frame: Optional[int] = None) -> "SimulationResult":
        """A copy restricted to frames ``[first_frame, last_frame)`` (for phase analysis)."""
        subset = [
            r
            for r in self.records
            if r.index >= first_frame and (last_frame is None or r.index < last_frame)
        ]
        return SimulationResult(
            governor_name=self.governor_name,
            application_name=self.application_name,
            reference_time_s=self.reference_time_s,
            records=subset,
            exploration_count=self.exploration_count,
            converged_epoch=self.converged_epoch,
            engine_used=self.engine_used,
        )

    # -- equality (matches the former dataclass semantics) -------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        mine, theirs = self._columns, other._columns
        return (
            self.governor_name == other.governor_name
            and self.application_name == other.application_name
            and self.reference_time_s == other.reference_time_s
            and self.exploration_count == other.exploration_count
            and self.converged_epoch == other.converged_epoch
            and all(
                getattr(mine, name) == getattr(theirs, name)
                for name in FRAME_COLUMN_NAMES
            )
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.governor_name!r} on {self.application_name!r}, "
            f"{self.num_frames} frames, {self.total_energy_j:.2f} J)"
        )
