"""Unit tests for the voltage-frequency operating-point table."""

import pytest

from repro.errors import ConfigurationError, InvalidOperatingPointError
from repro.platform.vf_table import OperatingPoint, VFTable, make_linear_vf_table


class TestOperatingPoint:
    def test_frequency_and_voltage_are_stored(self):
        point = OperatingPoint(frequency_hz=1.2e9, voltage_v=1.05)
        assert point.frequency_hz == 1.2e9
        assert point.voltage_v == 1.05
        assert point.frequency_mhz == pytest.approx(1200.0)

    def test_time_for_cycles(self):
        point = OperatingPoint(frequency_hz=1e9, voltage_v=1.0)
        assert point.time_for_cycles(2e9) == pytest.approx(2.0)
        assert point.time_for_cycles(0.0) == 0.0

    def test_time_for_negative_cycles_rejected(self):
        point = OperatingPoint(frequency_hz=1e9, voltage_v=1.0)
        with pytest.raises(ValueError):
            point.time_for_cycles(-1.0)

    @pytest.mark.parametrize("frequency,voltage", [(0.0, 1.0), (-1e9, 1.0), (1e9, 0.0), (1e9, -0.5)])
    def test_invalid_values_rejected(self, frequency, voltage):
        with pytest.raises(ConfigurationError):
            OperatingPoint(frequency_hz=frequency, voltage_v=voltage)


class TestVFTable:
    def test_points_sorted_by_frequency(self):
        table = VFTable(
            [
                OperatingPoint(2e9, 1.3),
                OperatingPoint(1e9, 1.0),
                OperatingPoint(1.5e9, 1.1),
            ]
        )
        frequencies = table.frequencies_hz
        assert frequencies == sorted(frequencies)
        assert table.min_point.frequency_hz == 1e9
        assert table.max_point.frequency_hz == 2e9

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            VFTable([])

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ConfigurationError):
            VFTable([OperatingPoint(1e9, 1.0), OperatingPoint(1e9, 1.1)])

    def test_decreasing_voltage_rejected(self):
        with pytest.raises(ConfigurationError):
            VFTable([OperatingPoint(1e9, 1.2), OperatingPoint(2e9, 1.0)])

    def test_indexing_and_out_of_range(self, small_vf_table):
        assert small_vf_table[0].frequency_hz == 500e6
        assert small_vf_table[len(small_vf_table) - 1].frequency_hz == 2000e6
        with pytest.raises(InvalidOperatingPointError):
            _ = small_vf_table[99]

    def test_clamp_index(self, small_vf_table):
        assert small_vf_table.clamp_index(-3) == 0
        assert small_vf_table.clamp_index(2) == 2
        assert small_vf_table.clamp_index(99) == len(small_vf_table) - 1

    def test_nearest_index_rounds_up(self, small_vf_table):
        assert small_vf_table.nearest_index_for_frequency(600e6) == 1
        assert small_vf_table.nearest_index_for_frequency(1000e6) == 1
        assert small_vf_table.nearest_index_for_frequency(1.0) == 0
        assert small_vf_table.nearest_index_for_frequency(5e9) == len(small_vf_table) - 1

    def test_lowest_index_meeting_deadline(self, small_vf_table):
        # 30e6 cycles in 40 ms needs 750 MHz -> first point >= 750 MHz is 1 GHz.
        assert small_vf_table.lowest_index_meeting(30e6, 0.040) == 1
        # Impossible demand falls back to the fastest point.
        assert small_vf_table.lowest_index_meeting(1e12, 0.040) == len(small_vf_table) - 1
        with pytest.raises(ValueError):
            small_vf_table.lowest_index_meeting(1e6, 0.0)

    def test_lowest_index_meeting_is_sufficient(self, a15_table):
        cycles, deadline = 5.3e7, 0.040
        index = a15_table.lowest_index_meeting(cycles, deadline)
        chosen = a15_table[index]
        assert chosen.time_for_cycles(cycles) <= deadline
        if index > 0:
            slower = a15_table[index - 1]
            assert slower.time_for_cycles(cycles) > deadline

    def test_equality(self, small_vf_table):
        clone = VFTable(list(small_vf_table))
        assert clone == small_vf_table
        assert small_vf_table != VFTable([OperatingPoint(1e9, 1.0)])


class TestMakeLinearVFTable:
    def test_endpoints_and_length(self):
        table = make_linear_vf_table(200e6, 2000e6, 19, 0.9, 1.35)
        assert len(table) == 19
        assert table.min_point.frequency_hz == pytest.approx(200e6)
        assert table.max_point.frequency_hz == pytest.approx(2000e6)
        assert table.min_point.voltage_v == pytest.approx(0.9)
        assert table.max_point.voltage_v == pytest.approx(1.35)

    def test_superlinear_voltage(self):
        table = make_linear_vf_table(200e6, 2000e6, 10, 0.9, 1.35, exponent=2.0)
        midpoint = table[5]
        linear_mid = 0.9 + (5 / 9) * 0.45
        assert midpoint.voltage_v < linear_mid

    def test_single_step(self):
        table = make_linear_vf_table(1e9, 1e9, 1, 1.0, 1.0)
        assert len(table) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            make_linear_vf_table(1e9, 2e9, 0, 0.9, 1.3)
        with pytest.raises(ConfigurationError):
            make_linear_vf_table(2e9, 1e9, 5, 0.9, 1.3)


class TestA15Table:
    def test_nineteen_operating_points(self, a15_table):
        assert len(a15_table) == 19

    def test_range_200_to_2000_mhz_in_100_mhz_steps(self, a15_table):
        frequencies = [p.frequency_mhz for p in a15_table]
        assert frequencies[0] == pytest.approx(200.0)
        assert frequencies[-1] == pytest.approx(2000.0)
        steps = [b - a for a, b in zip(frequencies, frequencies[1:])]
        assert all(step == pytest.approx(100.0) for step in steps)

    def test_voltage_monotonically_non_decreasing(self, a15_table):
        voltages = [p.voltage_v for p in a15_table]
        assert voltages == sorted(voltages)
