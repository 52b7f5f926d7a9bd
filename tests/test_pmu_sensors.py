"""Unit tests for the PMU, power-sensor and energy-meter models."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.odroid_xu3 import build_a15_cluster, build_a7_cluster
from repro.platform.pmu import PerformanceMonitoringUnit, PMUSample
from repro.platform.sensors import EnergyMeter, PowerSensor


class TestPMU:
    def test_busy_accounting(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(cycles=1e6, duration_s=0.001)
        sample = pmu.sample()
        assert sample.cycles == pytest.approx(1e6)
        assert sample.idle_cycles == 0.0
        assert sample.utilisation == pytest.approx(1.0)

    def test_idle_accounting_and_utilisation(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(cycles=3e6, duration_s=0.003)
        pmu.account_idle(cycles=1e6, duration_s=0.001)
        sample = pmu.sample()
        assert sample.total_cycles == pytest.approx(4e6)
        assert sample.utilisation == pytest.approx(0.75)

    def test_delta_between_samples(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(1e6, 0.001)
        first = pmu.sample()
        pmu.account_busy(2e6, 0.002)
        second = pmu.sample()
        delta = second.delta(first)
        assert delta.cycles == pytest.approx(2e6)
        assert delta.timestamp_s == pytest.approx(0.002)

    def test_delta_requires_chronological_order(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(1e6, 0.001)
        first = pmu.sample()
        pmu.account_busy(1e6, 0.001)
        second = pmu.sample()
        with pytest.raises(ValueError):
            first.delta(second)

    def test_reset(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(1e6, 0.001)
        pmu.reset()
        assert pmu.sample().cycles == 0.0
        assert pmu.elapsed_time_s == 0.0

    def test_negative_values_rejected(self):
        pmu = PerformanceMonitoringUnit()
        with pytest.raises(ValueError):
            pmu.account_busy(-1.0, 0.001)
        with pytest.raises(ValueError):
            pmu.account_idle(1.0, -0.001)

    def test_instructions_default_to_cycles(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_busy(cycles=5e5, duration_s=0.001)
        assert pmu.sample().instructions == pytest.approx(5e5)

    def test_empty_sample_utilisation_is_zero(self):
        assert PMUSample(0.0, 0.0, 0.0, 0.0).utilisation == 0.0

    def test_run_totals_are_added_when_first_needed(self):
        """``account_run`` adds its totals once, at the next read or update,
        exactly as account_busy then account_idle would."""
        calls = []

        def totals():
            calls.append(1)
            return (3e6, 0.003, 1e6, 0.001)

        deferred, direct = PerformanceMonitoringUnit(), PerformanceMonitoringUnit()
        deferred.account_run(totals)
        assert calls == []
        direct.account_busy(3e6, 0.003)
        direct.account_idle(1e6, 0.001)
        assert deferred.sample() == direct.sample()
        assert deferred.busy_cycles == 3e6 and deferred.elapsed_time_s == 0.004
        assert calls == [1]

        # A later update lands after the run, in order.
        deferred.account_run(totals)
        deferred.account_busy(1e6, 0.001)
        direct.account_busy(3e6, 0.003)
        direct.account_idle(1e6, 0.001)
        direct.account_busy(1e6, 0.001)
        assert deferred.sample() == direct.sample()
        assert calls == [1, 1]

    def test_reset_drops_run_totals_uncomputed(self):
        pmu = PerformanceMonitoringUnit()
        pmu.account_run(lambda: pytest.fail("totals computed after a reset"))
        pmu.reset()
        assert pmu.sample() == PMUSample(0.0, 0.0, 0.0, 0.0)


class TestPowerSensor:
    def test_quantisation(self):
        sensor = PowerSensor(sample_period_s=0.001, resolution_w=0.01, noise_stddev_w=0.0)
        reading = sensor.measure(1.234, timestamp_s=0.0)
        assert reading.power_w == pytest.approx(1.23)

    def test_conversion_period_holds_previous_reading(self):
        sensor = PowerSensor(sample_period_s=0.010, resolution_w=0.0)
        first = sensor.measure(1.0, timestamp_s=0.0)
        held = sensor.measure(5.0, timestamp_s=0.005)
        assert held == first
        fresh = sensor.measure(5.0, timestamp_s=0.020)
        assert fresh.power_w == pytest.approx(5.0)

    def test_noise_is_reproducible_with_seed(self):
        readings = []
        for _ in range(2):
            sensor = PowerSensor(noise_stddev_w=0.05, seed=42, resolution_w=0.0)
            readings.append([sensor.measure(2.0, t * 0.02).power_w for t in range(5)])
        assert readings[0] == readings[1]

    def test_negative_power_rejected_and_clamped(self):
        sensor = PowerSensor(noise_stddev_w=0.0)
        with pytest.raises(ValueError):
            sensor.measure(-1.0, 0.0)
        # Even with heavy noise the reported power never goes negative.
        noisy = PowerSensor(noise_stddev_w=10.0, seed=1, resolution_w=0.0)
        assert all(noisy.measure(0.01, t * 0.02).power_w >= 0.0 for t in range(20))

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
        for make in (PowerSensor, EnergyMeter, build_a15_cluster, build_a7_cluster):
            with pytest.raises(TypeError, match="record_history"):
                make(record_history=True)


class TestEnergyMeter:
    def test_integration(self):
        meter = EnergyMeter()
        meter.add_interval(power_w=2.0, duration_s=3.0)
        meter.add_interval(power_w=1.0, duration_s=1.0)
        assert meter.energy_j == pytest.approx(7.0)
        assert meter.elapsed_s == pytest.approx(4.0)
        assert meter.average_power_w == pytest.approx(7.0 / 4.0)

    def test_add_energy_lump(self):
        meter = EnergyMeter()
        meter.add_energy(0.5)
        assert meter.energy_j == pytest.approx(0.5)
        assert meter.average_power_w == 0.0

    def test_negative_values_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.add_interval(-1.0, 1.0)
        with pytest.raises(ValueError):
            meter.add_energy(-1.0)

    def test_reset(self):
        meter = EnergyMeter()
        meter.add_interval(1.0, 1.0)
        meter.reset()
        assert meter.energy_j == 0.0
        assert meter.elapsed_s == 0.0
