"""A run's aggregate metrics as one :class:`MetricsSummary`.

:func:`summarize_result` is the one definition of a run's aggregates.
:class:`~repro.sim.results.SimulationResult` calls it once, keeps the
summary as ``result.summary`` and answers every aggregate property from
it; the result store writes it into every record's ``metrics``.

Each float column is added in one order, :func:`pairwise_sum`: the
pairwise order of ``numpy.sum``.  The summary was first taken with numpy,
so that is the order every stored ``metrics`` value and the e2ebench
digest hold; any other order would move them in the last digits.  It is
plain float ``+`` in Python, so one result gives one summary on every
interpreter, with or without numpy installed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, gt, ne
from typing import TYPE_CHECKING, Dict, Sequence

from repro.sim.epoch import DEADLINE_TOLERANCE_S, FrameRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (results -> metrics)
    from repro.sim.results import SimulationResult

#: numpy's pairwise-summation block: up to this many values are added in
#: eight interleaved lanes, longer runs are split in two.
_BLOCK = 128


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum ``values`` in exactly the order ``numpy.sum`` adds a float64 vector.

    numpy adds fewer than 8 values left to right from ``0.0``; up to 128
    in eight interleaved accumulators combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` plus a
    left-to-right tail; and longer runs as the sum of two halves split at
    ``n // 2`` rounded down to a multiple of 8.  The reduction starts from
    ``0.0``, so an all-``-0.0`` input sums to ``0.0``.  Every addition is
    an explicit float ``+``: the builtin ``sum()`` of floats is compensated
    from Python 3.12 and would not match.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, count: int) -> float:
    """numpy's pairwise order over ``values[start:start + count]``."""
    if count < 8:
        total = 0.0
        for value in values[start : start + count]:
            total += value
        return total
    if count <= _BLOCK:
        stop = start + count - count % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        rows = iter(values[start + 8 : stop])
        for a0, a1, a2, a3, a4, a5, a6, a7 in zip(*[rows] * 8):
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[stop : start + count]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, count - half)


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


def _floats(column: Sequence[float]) -> Sequence[float]:
    """``column`` with every value a float: an ``array('d')`` as it is."""
    return column if type(column) is array else array("d", column)


def summarize_result(result: "SimulationResult") -> MetricsSummary:
    """Compute a :class:`MetricsSummary` for a whole simulation result.

    Reads the result's columns and never materialises a ``FrameRecord``.
    A float column that is a list (it holds an int or a bool) is read as
    floats, so it sums as the float64 column the stored sums are defined
    on.
    """
    num = result.num_frames
    if num == 0:
        return MetricsSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    columns = result.columns
    frame_times = _floats(columns.frame_time_s)
    deadlines = _floats(columns.deadline_s)
    operating = columns.operating_index
    total_energy = pairwise_sum(_floats(columns.energy_j))
    total_time = pairwise_sum(_floats(columns.interval_s))
    late = map(add, deadlines, repeat(DEADLINE_TOLERANCE_S))
    misses = sum(map(gt, frame_times, late))
    slack_ratios = [
        (deadline - frame_time) / deadline if deadline > 0 else 0.0
        for frame_time, deadline in zip(frame_times, deadlines)
    ]
    return MetricsSummary(
        num_frames=num,
        total_energy_j=total_energy,
        total_time_s=total_time,
        average_power_w=total_energy / total_time if total_time > 0 else 0.0,
        average_frame_time_s=pairwise_sum(frame_times) / num,
        average_frequency_mhz=pairwise_sum(_floats(columns.frequency_mhz)) / num,
        deadline_miss_ratio=misses / num,
        mean_slack_ratio=pairwise_sum(slack_ratios) / num,
        total_overhead_s=pairwise_sum(_floats(columns.overhead_time_s)),
        exploration_epochs=sum(map(bool, columns.explored)),
        dvfs_changes=sum(map(ne, operating, islice(operating, 1, None))),
    )


def frequency_histogram(records: Sequence[FrameRecord]) -> Dict[float, int]:
    """Histogram of operating frequencies (MHz) over the records.

    Useful for inspecting which operating points a governor settled on.
    """
    histogram: Dict[float, int] = {}
    for record in records:
        histogram[record.frequency_mhz] = histogram.get(record.frequency_mhz, 0) + 1
    return dict(sorted(histogram.items()))

