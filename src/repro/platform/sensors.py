"""Power-sensor model.

The ODROID-XU3 carries INA231 current/power monitors on the A15, A7, GPU and
DRAM rails; the paper reads the A15 rail each frame and multiplies average
power by execution time to obtain per-frame energy.  This module reproduces
that measurement path: a sampled, quantised, optionally noisy power sensor.

The sensor keeps only its last conversion, which the next run's holdover
reads: a run's per-frame readings live in its result (``measured_power_w``,
``interval_s`` and ``energy_j`` of :class:`~repro.sim.epoch.FrameColumns`).
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
        """Measure ``true_power_w`` at ``timestamp_s`` and return the reported power.

        If less than one sample period has elapsed since the previous
        conversion the previous reading is returned unchanged, modelling the
        sensor's conversion latency; otherwise the power is converted (noise,
        then quantisation) and becomes :attr:`last_reading`.
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
        if not measured > 0.0:  # max(0.0, measured), -0.0 and NaN included
            measured = 0.0
        self._last_time_s = timestamp_s
        self._last_power_w = measured
        return measured

    def measure_trace(
        self, true_powers_w: Sequence[float], timestamps_s: Sequence[float]
    ) -> List[float]:
        """Measure a whole trace of (power, timestamp) pairs, in order.

        Semantically identical to calling :meth:`measure_w` once per pair;
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

