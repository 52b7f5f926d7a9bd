"""Simulation result container and the paper's normalisations.

:class:`SimulationResult` is backed by either a list of
:class:`~repro.sim.epoch.FrameRecord` objects (the scalar engine's output)
or by :class:`~repro.sim.epoch.FrameColumns` columnar storage (the
vectorised and table-driven engines' output, and every result loaded
through the result store or :meth:`SimulationResult.from_dict`).  Either
way the public API is the same: ``result.records`` always yields records
(materialised lazily from columns on first access), the aggregate
properties read whichever backing store is cheaper, and :meth:`to_arrays`
exposes the run as columns for array-oriented consumers (metrics,
reporting, plotting).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

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
    records:
        One :class:`~repro.sim.epoch.FrameRecord` per decision epoch.  When
        the result was built from columns (engine output or a loaded
        store) the records are materialised on first access, at
        which point the record list becomes the single source of truth (the
        columns are dropped, so in-place edits are reflected by every
        aggregate, exactly as with a plain record list).  Nothing in the
        library reads ``records`` on the save, load or summary paths, so a
        columnar result stays columnar unless a caller asks for records.
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
        "_records",
        "_columns",
    )

    def __init__(
        self,
        governor_name: str,
        application_name: str,
        reference_time_s: float,
        records: Optional[List[FrameRecord]] = None,
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
        self._columns = columns
        # The passed-in list is stored as-is (not copied) so callers that
        # append to `result.records` after construction keep working.
        self._records: Optional[List[FrameRecord]] = (
            records if records is not None else (None if columns is not None else [])
        )

    # -- backing stores ---------------------------------------------------------
    @property
    def records(self) -> List[FrameRecord]:
        """Per-frame records, materialised from columns on first access.

        Materialisation hands authority over to the record list: the
        columnar store is dropped so any caller mutation of the list (or of
        individual entries) is reflected by every aggregate, matching the
        semantics of a result constructed from records directly.
        """
        if self._records is None:
            self._records = self._columns.materialize()
            self._columns = None
        return self._records

    @property
    def columns(self) -> Optional[FrameColumns]:
        """The columnar backing store, if still authoritative.

        ``None`` for record-built results and for columnar results whose
        ``records`` have been materialised (authority moves to the list).
        """
        return self._columns

    def _column(self, name: str) -> Optional[Sequence]:
        """The named column when the columnar store is authoritative."""
        columns = self._columns
        if columns is None:
            return None
        return getattr(columns, name)

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
        arrays: Dict[str, Any] = {}
        for name in FRAME_COLUMN_NAMES:
            column = self._column(name)
            if column is None:
                column = [getattr(record, name) for record in self.records]
            arrays[name] = np.asarray(column) if np is not None else list(column)
        return arrays

    # -- totals ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of simulated decision epochs."""
        columns = self._columns
        if columns is not None:
            return len(columns)
        return len(self.records)

    @property
    def total_energy_j(self) -> float:
        """Total energy over the run."""
        column = self._column("energy_j")
        if column is not None:
            return sum(column)
        return sum(r.energy_j for r in self.records)

    @property
    def total_time_s(self) -> float:
        """Total wall-clock time of the run (sum of epoch intervals)."""
        column = self._column("interval_s")
        if column is not None:
            return sum(column)
        return sum(r.interval_s for r in self.records)

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
        column = self._column("frame_time_s")
        if column is not None:
            return list(column)
        return [r.frame_time_s for r in self.records]

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
        frame_times = self._column("frame_time_s")
        deadlines = self._column("deadline_s")
        if frame_times is not None and deadlines is not None:
            if not frame_times:
                return 0.0
            misses = sum(
                1
                for frame_time, deadline in zip(frame_times, deadlines)
                if frame_time > deadline + 1e-12
            )
            return misses / len(frame_times)
        if not self.records:
            return 0.0
        misses = sum(1 for r in self.records if not r.met_deadline)
        return misses / len(self.records)

    @property
    def mean_slack_ratio(self) -> float:
        """Mean per-frame slack ratio."""
        frame_times = self._column("frame_time_s")
        deadlines = self._column("deadline_s")
        if frame_times is not None and deadlines is not None:
            if not frame_times:
                return 0.0
            total = sum(
                (deadline - frame_time) / deadline if deadline > 0 else 0.0
                for frame_time, deadline in zip(frame_times, deadlines)
            )
            return total / len(frame_times)
        if not self.records:
            return 0.0
        return sum(r.slack_ratio for r in self.records) / len(self.records)

    @property
    def total_overhead_s(self) -> float:
        """Total governor overhead charged over the run."""
        column = self._column("overhead_time_s")
        if column is not None:
            return sum(column)
        return sum(r.overhead_time_s for r in self.records)

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
        subset: Sequence[FrameRecord] = [
            r
            for r in self.records
            if r.index >= first_frame and (last_frame is None or r.index < last_frame)
        ]
        return SimulationResult(
            governor_name=self.governor_name,
            application_name=self.application_name,
            reference_time_s=self.reference_time_s,
            records=list(subset),
            exploration_count=self.exploration_count,
            converged_epoch=self.converged_epoch,
            engine_used=self.engine_used,
        )

    # -- equality (matches the former dataclass semantics) -------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.governor_name == other.governor_name
            and self.application_name == other.application_name
            and self.reference_time_s == other.reference_time_s
            and self.exploration_count == other.exploration_count
            and self.converged_epoch == other.converged_epoch
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.governor_name!r} on {self.application_name!r}, "
            f"{self.num_frames} frames, {self.total_energy_j:.2f} J)"
        )
