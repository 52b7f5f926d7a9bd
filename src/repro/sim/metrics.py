"""A run's aggregate metrics as one :class:`MetricsSummary`.

The :class:`~repro.sim.results.SimulationResult` properties are the one
Python definition of every aggregate; :func:`summarize_result` builds a
summary from them, reading the three aggregates the result has no
property for (mean frequency, exploration epochs, DVFS changes) from its
columns.

When NumPy is installed, :func:`summarize_result` instead reduces the
columns with ``np.sum``/``np.count_nonzero``.  ``np.sum`` is pairwise, so
its sums differ from the properties' in the last digits.  That reduction
stays only because stored bytes pin it: the result store writes this
summary into every record's ``metrics``, and the e2ebench digest checks
its ``total_energy_j`` exactly.  Replacing it with the Python summary is
a declared wire-format change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.sim.epoch import DEADLINE_TOLERANCE_S, FrameRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (results -> metrics)
    from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate statistics of one simulation run."""

    num_frames: int
    total_energy_j: float
    total_time_s: float
    average_power_w: float
    average_frame_time_s: float
    average_frequency_mhz: float
    deadline_miss_ratio: float
    mean_slack_ratio: float
    total_overhead_s: float
    exploration_epochs: int
    dvfs_changes: int


def summarize_result(result: "SimulationResult") -> MetricsSummary:
    """Compute a :class:`MetricsSummary` for a whole simulation result.

    Reads the result's columns and never materialises a ``FrameRecord``.
    ``np.asarray`` of an ``array('d')`` column is a zero-copy view of its
    buffer; a list column is copied, as before.  Either way the values and
    the summation order are the same.
    """
    num = result.num_frames
    if num == 0:
        return MetricsSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    columns = result.columns
    try:
        import numpy as np
    except ImportError:
        operating = columns.operating_index
        return MetricsSummary(
            num_frames=num,
            total_energy_j=result.total_energy_j,
            total_time_s=result.total_time_s,
            average_power_w=result.average_power_w,
            average_frame_time_s=result.average_frame_time_s,
            average_frequency_mhz=sum(columns.frequency_mhz) / num,
            deadline_miss_ratio=result.deadline_miss_ratio,
            mean_slack_ratio=result.mean_slack_ratio,
            total_overhead_s=result.total_overhead_s,
            exploration_epochs=sum(1 for explored in columns.explored if explored),
            dvfs_changes=sum(
                1 for earlier, later in zip(operating, operating[1:]) if earlier != later
            ),
        )
    frame_times = np.asarray(columns.frame_time_s)
    deadlines = np.asarray(columns.deadline_s)
    operating = np.asarray(columns.operating_index)
    total_energy = float(np.sum(np.asarray(columns.energy_j)))
    total_time = float(np.sum(np.asarray(columns.interval_s)))
    misses = int(np.count_nonzero(frame_times > deadlines + DEADLINE_TOLERANCE_S))
    positive_deadlines = deadlines > 0
    slack_ratios = np.where(
        positive_deadlines,
        (deadlines - frame_times) / np.where(positive_deadlines, deadlines, 1.0),
        0.0,
    )
    return MetricsSummary(
        num_frames=num,
        total_energy_j=total_energy,
        total_time_s=total_time,
        average_power_w=total_energy / total_time if total_time > 0 else 0.0,
        average_frame_time_s=float(np.sum(frame_times)) / num,
        average_frequency_mhz=float(np.sum(np.asarray(columns.frequency_mhz))) / num,
        deadline_miss_ratio=misses / num,
        mean_slack_ratio=float(np.sum(slack_ratios)) / num,
        total_overhead_s=float(np.sum(np.asarray(columns.overhead_time_s))),
        exploration_epochs=int(np.count_nonzero(np.asarray(columns.explored))),
        dvfs_changes=int(np.count_nonzero(operating[1:] != operating[:-1])),
    )


def frequency_histogram(records: Sequence[FrameRecord]) -> Dict[float, int]:
    """Histogram of operating frequencies (MHz) over the records.

    Useful for inspecting which operating points a governor settled on.
    """
    histogram: Dict[float, int] = {}
    for record in records:
        histogram[record.frequency_mhz] = histogram.get(record.frequency_mhz, 0) + 1
    return dict(sorted(histogram.items()))

