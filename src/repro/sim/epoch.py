"""Per-epoch (per-frame) simulation records and their columnar storage."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro._compat import SLOTS
from repro.errors import SimulationError


@dataclass(frozen=True, **SLOTS)
class FrameRecord:
    """Everything measured about one decision epoch of a simulation run.

    Attributes
    ----------
    index:
        Frame / decision-epoch index.
    operating_index:
        Operating-point index in force during the epoch.
    frequency_mhz:
        Frequency of that operating point, in MHz (for reporting).
    cycles_per_core:
        Busy cycles executed by each core.
    busy_time_s:
        Critical-path execution time of the frame (excludes overhead).
    overhead_time_s:
        Governor overhead charged to the epoch (processing + sensor access +
        DVFS transition latency), the paper's per-epoch ``T_OVH``.
    frame_time_s:
        ``busy_time_s + overhead_time_s`` — the time compared against the
        deadline.
    interval_s:
        Full wall-clock duration of the epoch including idle padding.
    deadline_s:
        The frame's deadline (``Tref``).
    energy_j:
        Energy consumed during the epoch.
    average_power_w:
        True average power over the epoch.
    measured_power_w:
        Power as reported by the on-board sensor.
    temperature_c:
        Junction temperature at the end of the epoch.
    explored:
        True if the governor reported this epoch's action as explorative.
    """

    index: int
    operating_index: int
    frequency_mhz: float
    cycles_per_core: Tuple[float, ...]
    busy_time_s: float
    overhead_time_s: float
    frame_time_s: float
    interval_s: float
    deadline_s: float
    energy_j: float
    average_power_w: float
    measured_power_w: float
    temperature_c: float
    explored: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrameRecord":
        """Read one frame dict of the legacy JSON blob."""
        fields = dict(data)
        fields["cycles_per_core"] = tuple(fields["cycles_per_core"])
        return cls(**fields)

    @property
    def met_deadline(self) -> bool:
        """True when the frame (including overhead) finished within its deadline."""
        return self.frame_time_s <= self.deadline_s + 1e-12

    @property
    def slack_ratio(self) -> float:
        """Per-frame slack ratio ``(Tref - frame_time) / Tref``."""
        if self.deadline_s <= 0:
            return 0.0
        return (self.deadline_s - self.frame_time_s) / self.deadline_s

    @property
    def max_cycles(self) -> float:
        """Largest per-core cycle count in the epoch."""
        return max(self.cycles_per_core)

    @property
    def total_cycles(self) -> float:
        """Total cycles over all cores in the epoch."""
        return sum(self.cycles_per_core)


#: Column names of :class:`FrameColumns`, in :class:`FrameRecord` field order.
FRAME_COLUMN_NAMES: Tuple[str, ...] = (
    "index",
    "operating_index",
    "frequency_mhz",
    "cycles_per_core",
    "busy_time_s",
    "overhead_time_s",
    "frame_time_s",
    "interval_s",
    "deadline_s",
    "energy_j",
    "average_power_w",
    "measured_power_w",
    "temperature_c",
    "explored",
)

#: Read a frame dict's / a record's values as one row in
#: :data:`FRAME_COLUMN_NAMES` order.
_dict_row = itemgetter(*FRAME_COLUMN_NAMES)
_record_row = attrgetter(*FRAME_COLUMN_NAMES)
_CYCLES = FRAME_COLUMN_NAMES.index("cycles_per_core")


def _complete_frame(frame: Mapping[str, Any]) -> Mapping[str, Any]:
    """``frame`` with its one defaulted field filled in; unknown fields raise."""
    unknown = set(frame).difference(FRAME_COLUMN_NAMES)
    if unknown:
        raise TypeError(f"unexpected frame field(s): {sorted(map(str, unknown))}")
    if "explored" in frame:
        return frame  # a required field is missing: reading the row raises KeyError
    return {**frame, "explored": False}


class FrameColumns:
    """Column-oriented storage of a run's per-frame records.

    Holds one plain-Python sequence per :class:`FrameRecord` field, all of
    equal length.  It is the one backing store of
    :class:`~repro.sim.results.SimulationResult`: the fast engines produce
    their results in this form so that no ``FrameRecord`` is allocated
    inside (or right after) the hot loop, the scalar engine's records are
    gathered with :meth:`from_records` once at the end of a run, and
    records are materialised only when a caller reads ``result.records``;
    totals, metrics and reports read the columns directly.  Persistence
    stays columnar too: the result store (:mod:`repro.campaign.store`)
    writes and reads frames as columns, and a legacy JSON blob's frame
    dicts are gathered back with :meth:`from_dicts`, so a save/load round
    trip allocates no ``FrameRecord`` either.

    Columns are stored as lists of native Python scalars (``cycles_per_core``
    as a list of per-core tuples), which keeps the container picklable for
    the campaign process-pool backend and keeps ``sum()``/comparison
    semantics bit-identical to iterating materialised records.

    A deferred instance (:meth:`from_deferred`) postpones even building the
    lists: a lazily loaded result store decodes a record's frames only
    when a column is first read, so consumers that never touch a result's
    columns (summaries from cached metrics) never pay the decode.  The
    laziness is invisible: every accessor, ``len()``, pickling and record
    materialisation produce exactly what an eager instance would.
    """

    __slots__ = tuple(FRAME_COLUMN_NAMES) + ("_loader",)

    def __init__(
        self,
        index: Sequence[int],
        operating_index: Sequence[int],
        frequency_mhz: Sequence[float],
        cycles_per_core: Sequence[Tuple[float, ...]],
        busy_time_s: Sequence[float],
        overhead_time_s: Sequence[float],
        frame_time_s: Sequence[float],
        interval_s: Sequence[float],
        deadline_s: Sequence[float],
        energy_j: Sequence[float],
        average_power_w: Sequence[float],
        measured_power_w: Sequence[float],
        temperature_c: Sequence[float],
        explored: Sequence[bool],
    ) -> None:
        self.index = list(index)
        self.operating_index = list(operating_index)
        self.frequency_mhz = list(frequency_mhz)
        self.cycles_per_core = list(cycles_per_core)
        self.busy_time_s = list(busy_time_s)
        self.overhead_time_s = list(overhead_time_s)
        self.frame_time_s = list(frame_time_s)
        self.interval_s = list(interval_s)
        self.deadline_s = list(deadline_s)
        self.energy_j = list(energy_j)
        self.average_power_w = list(average_power_w)
        self.measured_power_w = list(measured_power_w)
        self.temperature_c = list(temperature_c)
        self.explored = list(explored)
        length = len(self.index)
        for name in FRAME_COLUMN_NAMES:
            if len(getattr(self, name)) != length:
                raise SimulationError(
                    f"frame column {name!r} has {len(getattr(self, name))} entries, "
                    f"expected {length}"
                )

    @classmethod
    def from_deferred(cls, loader) -> "FrameColumns":
        """Defer column construction until a column is first read.

        ``loader()`` must return a mapping with one entry per
        :data:`FRAME_COLUMN_NAMES` name, each an equal-length list that
        the caller owns outright and never mutates afterwards (the columns
        are adopted without a copy or re-validation).  It runs at most
        once — on the first column access (or on pickling) every column is
        filled in and the instance becomes indistinguishable from an eager
        one, with zero per-access overhead from then on.
        """
        self = cls.__new__(cls)
        self._loader = loader
        return self

    @classmethod
    def from_dicts(cls, frames: Iterable[Mapping[str, Any]]) -> "FrameColumns":
        """Gather the frame dicts of a legacy JSON blob into columns.

        As strict as :meth:`FrameRecord.from_dict` is on each frame: a
        missing field (only ``explored`` has a default, ``False``), an
        unknown field or a ``cycles_per_core`` that is not a sequence
        raises ``KeyError`` or ``TypeError``.  A bad frame therefore never
        yields a silently shorter or dropped column.
        """
        width = len(FRAME_COLUMN_NAMES)
        rows = []
        for frame in frames:
            if len(frame) != width:
                frame = _complete_frame(frame)
            rows.append(_dict_row(frame))
        return cls._from_rows(rows)

    @classmethod
    def from_records(cls, records: Iterable[FrameRecord]) -> "FrameColumns":
        """Gather records into columns (the inverse of :meth:`materialize`)."""
        return cls._from_rows([_record_row(record) for record in records])

    @classmethod
    def _from_rows(cls, rows: List[Tuple[Any, ...]]) -> "FrameColumns":
        if not rows:
            return cls(*[()] * len(FRAME_COLUMN_NAMES))
        columns = list(zip(*rows))
        columns[_CYCLES] = [tuple(cycles) for cycles in columns[_CYCLES]]
        return cls(*columns)

    def _materialise_columns(self) -> None:
        loader = self._loader
        if loader is None:
            return
        self._loader = None
        columns = loader()
        for name in FRAME_COLUMN_NAMES:
            setattr(self, name, columns[name])

    def __getattr__(self, name: str):
        # Reached only for unset slots: the first column read of a deferred
        # instance (eager instances have every column slot filled).
        if name in FRAME_COLUMN_NAMES:
            try:
                self._materialise_columns()
            except AttributeError:
                raise AttributeError(name) from None
            return getattr(self, name)
        raise AttributeError(name)

    def __getstate__(self) -> Dict[str, Any]:
        # Deferred loaders are closures over store internals: materialise
        # before pickling so the wire format is always the plain columns.
        if getattr(self, "_loader", None) is not None:
            self._materialise_columns()
        return {name: getattr(self, name) for name in FRAME_COLUMN_NAMES}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.index)

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Each frame as a row of values in :data:`FRAME_COLUMN_NAMES` order."""
        return zip(
            self.index,
            self.operating_index,
            self.frequency_mhz,
            self.cycles_per_core,
            self.busy_time_s,
            self.overhead_time_s,
            self.frame_time_s,
            self.interval_s,
            self.deadline_s,
            self.energy_j,
            self.average_power_w,
            self.measured_power_w,
            self.temperature_c,
            self.explored,
        )

    def materialize(self) -> Tuple[FrameRecord, ...]:
        """Materialise every record (one allocation per frame, outside any hot loop)."""
        return tuple(starmap(FrameRecord, self.rows()))
