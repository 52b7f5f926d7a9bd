"""Voltage-frequency operating-point tables.

The ODROID-XU3's A15 cluster exposes 19 operating performance points (OPPs)
from 200 MHz to 2000 MHz in 100 MHz steps, each with an associated supply
voltage.  The paper's RL action space is exactly this table, so the table is
a first-class object here: governors select *indices* into a
:class:`VFTable` and the platform maps them to frequency/voltage pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

from repro._compat import SLOTS
from repro.errors import ConfigurationError, InvalidOperatingPointError


@dataclass(frozen=True, **SLOTS)
class OperatingPoint:
    """A single DVFS operating performance point.

    Attributes
    ----------
    frequency_hz:
        Clock frequency of the cluster in hertz.
    voltage_v:
        Supply voltage in volts at this frequency.
    seconds_per_cycle:
        Precomputed ``1 / frequency_hz``.  Cycle-to-time conversion happens
        once per core per frame in the simulator's inner loop, so the
        reciprocal is hoisted here and :meth:`time_for_cycles` reduces to a
        single multiply; the table and static-schedule engines use the same
        constant so every engine performs the identical IEEE operation.
    """

    frequency_hz: float
    voltage_v: float
    seconds_per_cycle: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"operating point frequency must be positive, got {self.frequency_hz}"
            )
        if self.voltage_v <= 0:
            raise ConfigurationError(
                f"operating point voltage must be positive, got {self.voltage_v}"
            )
        object.__setattr__(self, "seconds_per_cycle", 1.0 / self.frequency_hz)

    @property
    def frequency_mhz(self) -> float:
        """Frequency in megahertz (convenience for reporting)."""
        return self.frequency_hz / 1e6

    def cycles_per_second(self) -> float:
        """Number of CPU cycles executed per second at this operating point."""
        return self.frequency_hz

    def time_for_cycles(self, cycles: float) -> float:
        """Time in seconds to execute ``cycles`` CPU cycles at this frequency."""
        if cycles < 0:
            raise ValueError(f"cycle count must be non-negative, got {cycles}")
        return cycles * self.seconds_per_cycle


class VFTable:
    """An ordered collection of :class:`OperatingPoint` objects.

    Points are stored sorted by ascending frequency.  Governors address
    points by index (0 = slowest, ``len(table) - 1`` = fastest), mirroring
    how cpufreq exposes the frequency table to userspace.
    """

    def __init__(self, points: Iterable[OperatingPoint]):
        pts = sorted(points, key=lambda p: p.frequency_hz)
        if not pts:
            raise ConfigurationError("a VFTable requires at least one operating point")
        frequencies = [p.frequency_hz for p in pts]
        if len(set(frequencies)) != len(frequencies):
            raise ConfigurationError("VFTable operating points must have distinct frequencies")
        for lower, upper in zip(pts, pts[1:]):
            if upper.voltage_v < lower.voltage_v:
                raise ConfigurationError(
                    "VFTable voltages must be non-decreasing with frequency "
                    f"({lower} -> {upper})"
                )
        self._points: Tuple[OperatingPoint, ...] = tuple(pts)
        self._frequencies: List[float] = frequencies

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        try:
            return self._points[index]
        except IndexError as exc:
            raise InvalidOperatingPointError(
                f"operating-point index {index} out of range (table has {len(self)})"
            ) from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VFTable):
            return NotImplemented
        return self._points == other._points

    def __repr__(self) -> str:
        lo = self._points[0].frequency_mhz
        hi = self._points[-1].frequency_mhz
        return f"VFTable({len(self)} points, {lo:.0f}-{hi:.0f} MHz)"

    # -- lookups ------------------------------------------------------------
    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        """All operating points, sorted by ascending frequency."""
        return self._points

    @property
    def frequencies_hz(self) -> List[float]:
        """All frequencies in the table, ascending, in hertz."""
        return list(self._frequencies)

    @property
    def min_point(self) -> OperatingPoint:
        """Slowest operating point."""
        return self._points[0]

    @property
    def max_point(self) -> OperatingPoint:
        """Fastest operating point."""
        return self._points[-1]

    def clamp_index(self, index: int) -> int:
        """Clamp ``index`` into the valid range of the table."""
        return max(0, min(len(self) - 1, index))

    def lowest_index_meeting(self, cycles: float, deadline_s: float) -> int:
        """Lowest-frequency index that can retire ``cycles`` within ``deadline_s``.

        This is the per-frame "oracle" decision: the slowest (hence most
        energy-frugal, given the convex power/frequency curve) operating
        point that still meets the deadline.  If even the fastest point
        cannot meet the deadline the fastest index is returned.
        """
        if deadline_s <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_s}")
        required_hz = cycles / deadline_s
        # First point with frequency >= required, by binary search (the
        # table is sorted ascending); this runs once per frame per
        # operating-point evaluation in the Oracle's schedule computation.
        return min(bisect_left(self._frequencies, required_hz), len(self._points) - 1)

    def nearest_index_for_frequency(self, frequency_hz: float) -> int:
        """Index of the slowest point at least as fast as ``frequency_hz``.

        If ``frequency_hz`` exceeds the fastest point, the fastest index is
        returned; this mirrors cpufreq's ``CPUFREQ_RELATION_L`` rounding used
        by the ondemand governor.
        """
        return min(
            bisect_left(self._frequencies, frequency_hz - 1e-6),
            len(self._points) - 1,
        )



def make_linear_vf_table(
    f_min_hz: float,
    f_max_hz: float,
    steps: int,
    v_min: float,
    v_max: float,
    exponent: float = 1.0,
) -> VFTable:
    """Build a synthetic V-F table with evenly spaced frequencies.

    Voltage is interpolated between ``v_min`` and ``v_max``; an ``exponent``
    greater than 1 makes voltage rise super-linearly with frequency, which is
    the typical silicon behaviour and what gives DVFS its cubic power win.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if f_max_hz < f_min_hz:
        raise ConfigurationError("f_max_hz must be >= f_min_hz")
    if steps == 1:
        return VFTable([OperatingPoint(f_min_hz, v_min)])
    points = []
    for i in range(steps):
        fraction = i / (steps - 1)
        frequency = f_min_hz + fraction * (f_max_hz - f_min_hz)
        voltage = v_min + (fraction ** exponent) * (v_max - v_min)
        points.append(OperatingPoint(frequency, voltage))
    return VFTable(points)
