"""Simulation result container and the paper's normalisations.

:class:`SimulationResult` holds a run's per-frame data in one place: a
:class:`~repro.sim.epoch.FrameColumns` (every engine's output, and every
result loaded through the result store).  A list of
:class:`~repro.sim.epoch.FrameRecord` objects is accepted as an input form
and gathered into columns once.  ``result.records`` hands out a fresh
tuple of records on each call.  Nothing here reads or writes a file: the
result store (:mod:`repro.campaign.store`) owns every on-disk form.

A run's aggregates have one definition and one summation order:
:func:`~repro.sim.metrics.summarize_result`, which adds in ``numpy.sum``'s
pairwise order because that is the order stored ``metrics`` hold (see
:mod:`repro.sim.metrics`).  It runs once per result, on first use, and is
kept as :attr:`SimulationResult.summary`.  The aggregate
properties (totals, means, the deadline-miss ratio) return its fields,
and the paper's normalisations are formed from them, so a property of a
reloaded result equals the ``metrics`` its store record holds, bit for
bit.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim import metrics
from repro.sim.epoch import FRAME_COLUMN_NAMES, FrameColumns, FrameRecord


def _same_column(mine: Sequence[Any], theirs: Sequence[Any]) -> bool:
    """Value equality of two columns, whether each is a list or an ``array('d')``."""
    if type(mine) is type(theirs):
        return mine == theirs
    return list(mine) == list(theirs)


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
        must not mutate the columns.
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
    summary:
        The run's :class:`~repro.sim.metrics.MetricsSummary`, computed by
        :func:`~repro.sim.metrics.summarize_result` on first use and kept.
        Every aggregate property reads it.
    """

    __slots__ = (
        "governor_name",
        "application_name",
        "reference_time_s",
        "exploration_count",
        "converged_epoch",
        "engine_used",
        "_columns",
        "_summary",
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
        self._summary: Optional[metrics.MetricsSummary] = None

    # -- per-frame data -----------------------------------------------------------
    @property
    def records(self) -> Tuple[FrameRecord, ...]:
        """Per-frame records, materialised from the columns on each call."""
        return self._columns.materialize()

    @property
    def columns(self) -> FrameColumns:
        """The columnar per-frame data (never ``None``)."""
        return self._columns

    # -- aggregates -------------------------------------------------------------
    @property
    def summary(self) -> metrics.MetricsSummary:
        """The run's aggregates, summarised once (see :mod:`repro.sim.metrics`)."""
        if self._summary is None:
            self._summary = metrics.summarize_result(self)
        return self._summary

    @property
    def num_frames(self) -> int:
        """Number of simulated decision epochs."""
        return len(self._columns)

    @property
    def total_energy_j(self) -> float:
        """Total energy over the run."""
        return self.summary.total_energy_j

    @property
    def total_time_s(self) -> float:
        """Total wall-clock time of the run (sum of epoch intervals)."""
        return self.summary.total_time_s

    @property
    def average_power_w(self) -> float:
        """Mean power over the run."""
        return self.summary.average_power_w

    @property
    def average_frame_time_s(self) -> float:
        """Mean per-frame execution time."""
        return self.summary.average_frame_time_s

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
        return self.summary.deadline_miss_ratio

    @property
    def mean_slack_ratio(self) -> float:
        """Mean per-frame slack ratio."""
        return self.summary.mean_slack_ratio

    @property
    def total_overhead_s(self) -> float:
        """Total governor overhead charged over the run."""
        return self.summary.total_overhead_s

    # -- slicing ------------------------------------------------------------------------
    def window(self, first_frame: int, last_frame: Optional[int] = None) -> "SimulationResult":
        """A copy restricted to frames ``[first_frame, last_frame)`` (for phase analysis).

        Keeps, in order, the frames whose ``index`` value lies in the range,
        by slicing each column; no ``FrameRecord`` is built.
        """
        columns = self._columns
        keep = [
            position
            for position, index in enumerate(columns.index)
            if index >= first_frame and (last_frame is None or index < last_frame)
        ]
        contiguous = bool(keep) and keep[-1] - keep[0] + 1 == len(keep)
        rows = slice(keep[0], keep[-1] + 1) if contiguous else None
        subset = {}
        for name in FRAME_COLUMN_NAMES:
            column = getattr(columns, name)
            subset[name] = column[rows] if contiguous else [column[i] for i in keep]
        return SimulationResult(
            governor_name=self.governor_name,
            application_name=self.application_name,
            reference_time_s=self.reference_time_s,
            columns=FrameColumns(**subset),
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
                _same_column(getattr(mine, name), getattr(theirs, name))
                for name in FRAME_COLUMN_NAMES
            )
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.governor_name!r} on {self.application_name!r}, "
            f"{self.num_frames} frames, {self.total_energy_j:.2f} J)"
        )
