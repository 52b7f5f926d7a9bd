"""Unit tests for the power-sensor model."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.platform.sensors import PowerSensor


class TestPowerSensor:
    def test_quantisation(self):
        sensor = PowerSensor(sample_period_s=0.001, resolution_w=0.01, noise_stddev_w=0.0)
        assert sensor.measure_w(1.234, timestamp_s=0.0) == pytest.approx(1.23)

    def test_conversion_period_holds_previous_reading(self):
        sensor = PowerSensor(sample_period_s=0.010, resolution_w=0.0)
        first = sensor.measure_w(1.0, timestamp_s=0.0)
        held = sensor.measure_w(5.0, timestamp_s=0.005)
        assert held == first
        assert sensor.last_reading.timestamp_s == 0.0
        fresh = sensor.measure_w(5.0, timestamp_s=0.020)
        assert fresh == pytest.approx(5.0)
        assert sensor.last_reading.timestamp_s == 0.020

    def test_noise_is_reproducible_with_seed(self):
        readings = []
        for _ in range(2):
            sensor = PowerSensor(noise_stddev_w=0.05, seed=42, resolution_w=0.0)
            readings.append([sensor.measure_w(2.0, t * 0.02) for t in range(5)])
        assert readings[0] == readings[1]

    def test_negative_power_rejected_and_clamped(self):
        sensor = PowerSensor(noise_stddev_w=0.0)
        with pytest.raises(ValueError):
            sensor.measure_w(-1.0, 0.0)
        # Even with heavy noise the reported power never goes negative.
        noisy = PowerSensor(noise_stddev_w=10.0, seed=1, resolution_w=0.0)
        assert all(noisy.measure_w(0.01, t * 0.02) >= 0.0 for t in range(20))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSensor(sample_period_s=0.0)
        with pytest.raises(ConfigurationError):
            PowerSensor(resolution_w=-0.1)

    def test_reset_clears_history(self):
        sensor = PowerSensor(noise_stddev_w=0.1, resolution_w=0.0)
        first = [sensor.measure_w(1.0, t * 0.02) for t in range(5)]
        assert sensor.last_reading is not None
        sensor.reset()
        assert sensor.last_reading is None
        # The noise stream restarts from the seed: a reset sensor repeats
        # its first readings instead of continuing the stream.
        assert [sensor.measure_w(1.0, t * 0.02) for t in range(5)] == first

    def test_history_knob_is_gone(self):
        # Per-frame readings live in a result's frame columns only.
        for make in (PowerSensor, build_a15_cluster):
            with pytest.raises(TypeError, match="record_history"):
                make(record_history=True)
