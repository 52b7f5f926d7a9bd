"""Power-sensor and energy-meter models.

The ODROID-XU3 carries INA231 current/power monitors on the A15, A7, GPU and
DRAM rails; the paper reads the A15 rail each frame and multiplies average
power by execution time to obtain per-frame energy.  This module reproduces
that measurement path: a sampled, quantised, optionally noisy power sensor
and an integrating energy meter built on top of it.

Neither component keeps a per-conversion history: a run's per-frame
readings live in its result (``measured_power_w``, ``interval_s`` and
``energy_j`` of :class:`~repro.sim.epoch.FrameColumns`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import ge, mul, sub, truediv
from typing import List, Optional, Sequence

from repro._compat import SLOTS
from repro.errors import ConfigurationError


@dataclass(frozen=True, **SLOTS)
class SensorReading:
    """One sample from a power sensor."""

    timestamp_s: float
    power_w: float


@dataclass
class PowerSensor:
    """INA231-like sampled power sensor.

    Parameters
    ----------
    sample_period_s:
        Conversion period of the sensor; readings requested more often than
        this return the previous conversion (the INA231 default conversion
        time is ~1 ms with averaging bringing the effective period to ~10 ms).
    resolution_w:
        Quantisation step of the reported power.
    noise_stddev_w:
        Standard deviation of additive Gaussian measurement noise.
    seed:
        Seed for the noise generator, so simulations stay reproducible;
        :meth:`reset` restarts the noise stream from it.
    """

    sample_period_s: float = 0.01
    resolution_w: float = 0.005
    noise_stddev_w: float = 0.0
    seed: Optional[int] = 0
    _rng: random.Random = field(init=False, repr=False)
    _last_time_s: Optional[float] = field(init=False, default=None)
    _last_power_w: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise ConfigurationError("sample_period_s must be positive")
        if self.resolution_w < 0 or self.noise_stddev_w < 0:
            raise ConfigurationError("resolution and noise must be non-negative")
        self._rng = random.Random(self.seed)

    def measure_w(self, true_power_w: float, timestamp_s: float) -> float:
        """Measure ``true_power_w`` at ``timestamp_s`` and return the power alone.

        Identical semantics to :meth:`measure` — conversion-period holdover,
        noise, quantisation, state updates — without allocating a
        :class:`SensorReading`.  This is the entry point the simulators'
        per-frame loops use.
        """
        if true_power_w < 0:
            raise ValueError(f"power must be non-negative, got {true_power_w}")
        last_time = self._last_time_s
        if last_time is not None and timestamp_s - last_time < self.sample_period_s:
            return self._last_power_w
        measured = true_power_w
        if self.noise_stddev_w > 0:
            measured += self._rng.gauss(0.0, self.noise_stddev_w)
        if self.resolution_w > 0:
            measured = round(measured / self.resolution_w) * self.resolution_w
        measured = max(0.0, measured)
        self._last_time_s = timestamp_s
        self._last_power_w = measured
        return measured

    def measure(self, true_power_w: float, timestamp_s: float) -> SensorReading:
        """Measure ``true_power_w`` at ``timestamp_s``.

        If less than one sample period has elapsed since the previous
        conversion the previous reading is returned unchanged, modelling the
        sensor's conversion latency.
        """
        self.measure_w(true_power_w, timestamp_s)
        return SensorReading(timestamp_s=self._last_time_s, power_w=self._last_power_w)

    def measure_trace(
        self, true_powers_w: Sequence[float], timestamps_s: Sequence[float]
    ) -> List[float]:
        """Measure a whole trace of (power, timestamp) pairs, in order.

        Semantically identical to calling :meth:`measure` once per pair;
        the static-schedule fast path uses it to step the sensor through a
        pre-computed trace.  When no noise is configured, no previous
        conversion is pending, no power is negative and every timestamp gap
        is at least one sample period (so holdover can never trigger), each
        reading is :meth:`measure_w`'s quantisation of its power alone, so
        the whole trace is quantised in one pass with the same expression.
        """
        if len(true_powers_w) != len(timestamps_s):
            raise ValueError("true_powers_w and timestamps_s must have equal length")
        if len(true_powers_w) == 0:  # len(), not truthiness: arrays are valid input
            return []
        if (
            self.noise_stddev_w == 0
            and self._last_time_s is None
            and min(true_powers_w) >= 0
            and all(
                map(
                    ge,
                    map(sub, islice(timestamps_s, 1, None), timestamps_s),
                    repeat(self.sample_period_s),
                )
            )
        ):
            resolution = self.resolution_w
            if resolution > 0:
                # round(power / resolution) * resolution, as measure_w does.
                # A non-negative power rounds to a non-negative int step, so
                # measure_w's floor at 0.0 never changes a reading here.
                steps = map(round, map(truediv, true_powers_w, repeat(resolution)))
                out = list(map(mul, steps, repeat(resolution)))
            else:
                out = list(map(max, repeat(0.0), true_powers_w))
            self._last_time_s = timestamps_s[-1]
            self._last_power_w = out[-1]
            return out
        return [
            self.measure_w(power, timestamp)
            for power, timestamp in zip(true_powers_w, timestamps_s)
        ]

    @property
    def last_reading(self) -> Optional[SensorReading]:
        """The most recent conversion, or ``None`` before the first one."""
        if self._last_time_s is None:
            return None
        return SensorReading(timestamp_s=self._last_time_s, power_w=self._last_power_w)

    def reset(self) -> None:
        """Forget all previous conversions and restart the noise stream."""
        self._last_time_s = None
        self._last_power_w = 0.0
        self._rng = random.Random(self.seed)


class EnergyMeter:
    """Integrates power over time to produce energy totals.

    The meter accepts exact (model-truth) power/duration pairs; it is used
    both for the ground-truth energy accounting of the simulator and, via a
    :class:`PowerSensor`, for the governor-visible measured energy.
    """

    def __init__(self) -> None:
        self._energy_j = 0.0
        self._elapsed_s = 0.0

    def add_interval(self, power_w: float, duration_s: float) -> None:
        """Accumulate ``power_w`` drawn for ``duration_s`` seconds."""
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        self._energy_j += power_w * duration_s
        self._elapsed_s += duration_s

    def add_energy(self, energy_j: float) -> None:
        """Accumulate a lump of energy (e.g. a DVFS transition cost)."""
        if energy_j < 0:
            raise ValueError("energy must be non-negative")
        self._energy_j += energy_j

    @property
    def energy_j(self) -> float:
        """Total accumulated energy in joules."""
        return self._energy_j

    @property
    def elapsed_s(self) -> float:
        """Total accumulated interval time in seconds."""
        return self._elapsed_s

    @property
    def average_power_w(self) -> float:
        """Mean power over all accumulated intervals (0 if no time elapsed)."""
        if self._elapsed_s <= 0:
            return 0.0
        return self._energy_j / self._elapsed_s

    def reset(self) -> None:
        """Zero the meter."""
        self._energy_j = 0.0
        self._elapsed_s = 0.0
