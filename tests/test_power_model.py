"""Unit tests for the CMOS power model."""

import pytest

from repro.errors import ConfigurationError
import math

from repro.platform.cluster import Cluster, _power_decomposition
from repro.platform.core import Core
from repro.platform.odroid_xu3 import A15_VF_TABLE
from repro.platform.power import PowerModel, PowerModelParameters


@pytest.fixture
def model() -> PowerModel:
    return PowerModel()


class TestParameters:
    def test_invalid_capacitance_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModelParameters(effective_capacitance_f=0.0)

    def test_invalid_idle_activity_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModelParameters(idle_activity_factor=1.5)

    def test_negative_leakage_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModelParameters(leakage_k1_a=-0.1)


class TestDynamicPower:
    def test_increases_with_frequency(self, model):
        slow, fast = A15_VF_TABLE[0], A15_VF_TABLE[-1]
        assert model.dynamic_power_w(fast, 1.0) > model.dynamic_power_w(slow, 1.0)

    def test_increases_with_utilisation(self, model):
        point = A15_VF_TABLE[10]
        assert model.dynamic_power_w(point, 1.0) > model.dynamic_power_w(point, 0.2)

    def test_idle_floor_is_nonzero(self, model):
        point = A15_VF_TABLE[10]
        assert model.dynamic_power_w(point, 0.0) > 0.0

    def test_utilisation_out_of_range_rejected(self, model):
        point = A15_VF_TABLE[0]
        with pytest.raises(ValueError):
            model.dynamic_power_w(point, 1.5)
        with pytest.raises(ValueError):
            model.dynamic_power_w(point, -0.1)

    def test_cubic_scaling_with_voltage_and_frequency(self, model):
        """P_dyn is proportional to V^2 * f, the DVFS cubic-saving mechanism."""
        slow, fast = A15_VF_TABLE[0], A15_VF_TABLE[-1]
        ratio = model.dynamic_power_w(fast, 1.0) / model.dynamic_power_w(slow, 1.0)
        expected = (fast.voltage_v ** 2 * fast.frequency_hz) / (
            slow.voltage_v ** 2 * slow.frequency_hz
        )
        assert ratio == pytest.approx(expected, rel=1e-9)


class TestStaticPower:
    def test_increases_with_voltage(self, model):
        assert model.static_power_w(A15_VF_TABLE[-1]) > model.static_power_w(A15_VF_TABLE[0])

    def test_increases_with_temperature(self, model):
        point = A15_VF_TABLE[10]
        assert model.static_power_w(point, 85.0) > model.static_power_w(point, 45.0)


def cluster_watts(model, point, utilisations):
    """A cluster's power: each core's :meth:`PowerModel.core_power_w`, uncore once."""
    return (
        sum(model.core_power_w(point, utilisation) for utilisation in utilisations)
        + model.parameters.uncore_power_w
    )


def cycles_energy_j(model, point, cycles):
    """Energy one busy core spends retiring ``cycles`` at ``point``."""
    return model.core_power_w(point, 1.0) * point.time_for_cycles(cycles)


def busy_cluster(num_cores, point_index, cycles):
    """Run one frame of ``cycles`` on every core of a fresh A15-table cluster."""
    cluster = Cluster(
        name="a15", cores=[Core(core_id=i) for i in range(num_cores)], vf_table=A15_VF_TABLE
    )
    cluster.set_operating_index(point_index)
    return cluster, cluster.execute_workload([cycles] * num_cores)


class TestClusterPower:
    def test_cluster_power_scales_with_core_count(self):
        cluster, one = busy_cluster(1, 12, 5e7)
        _, four = busy_cluster(4, 12, 5e7)
        uncore_w = cluster.power_model.parameters.uncore_power_w
        assert four.duration_s == one.duration_s
        # Four busy cores burn 4x the core energy; the uncore is charged once.
        one_cores_j = one.energy_j - uncore_w * one.duration_s
        four_cores_j = four.energy_j - uncore_w * four.duration_s
        assert four_cores_j == pytest.approx(4 * one_cores_j)
        assert four.energy_j == pytest.approx(4 * one.energy_j - 3 * uncore_w * one.duration_s)

    def test_realistic_a15_cluster_power_range(self, model):
        """Four busy A15 cores at 2 GHz draw single-digit watts, idle well below 1 W."""
        busy = cluster_watts(model, A15_VF_TABLE[-1], [1.0] * 4)
        idle = cluster_watts(model, A15_VF_TABLE[0], [0.0] * 4)
        assert 3.0 < busy < 10.0
        assert idle < 1.0


class TestEnergy:
    def test_energy_is_power_times_time(self):
        cluster, result = busy_cluster(1, 9, 5e7)
        point = A15_VF_TABLE[9]
        power = (
            cluster.power_model.core_power_w(point, 1.0, result.temperature_c)
            + cluster.power_model.parameters.uncore_power_w
        )
        assert result.duration_s == pytest.approx(point.time_for_cycles(5e7))
        assert result.energy_j == pytest.approx(power * result.duration_s)

    def test_negative_duration_rejected(self, model):
        # Work of negative length has a negative busy time: rejected, not priced.
        with pytest.raises(ValueError):
            cycles_energy_j(model, A15_VF_TABLE[0], -1.0)

    def test_race_to_idle_is_not_free(self, model):
        """Running a fixed cycle count at high V-F costs more energy than at low V-F.

        This is the convexity that makes the Oracle's slowest-deadline-meeting
        choice optimal.
        """
        cycles = 5e7
        slow, fast = A15_VF_TABLE[4], A15_VF_TABLE[-1]
        assert cycles_energy_j(model, fast, cycles) > cycles_energy_j(
            model, slow, cycles
        )

    def test_energy_for_cycles_monotone_in_frequency(self, model):
        cycles = 5e7
        energies = [cycles_energy_j(model, point, cycles) for point in A15_VF_TABLE]
        # Busy energy per fixed work is non-decreasing with the operating point
        # once voltage starts rising (allow equality for the flat-voltage region).
        assert energies[-1] > energies[0]
        for earlier, later in zip(energies[8:], energies[9:]):
            assert later >= earlier - 1e-12


class TestPowerDecomposition:
    @pytest.mark.parametrize("temperature_c", [55.0, 71.5])
    def test_parts_rebuild_core_power_bit_for_bit(self, model, temperature_c):
        """The table engine's split of core power sums back to ``core_power_w`` exactly."""
        dynamic_busy, dynamic_idle, leak_scale, voltages = _power_decomposition(
            model, A15_VF_TABLE.points
        )
        params = model.parameters
        theta = math.exp(params.leakage_k3_per_c * (temperature_c - 55.0))
        for i, point in enumerate(A15_VF_TABLE):
            static_w = voltages[i] * (leak_scale[i] * theta + params.leakage_k4_a)
            assert dynamic_busy[i] + static_w == model.core_power_w(point, 1.0, temperature_c)
            assert dynamic_idle[i] + static_w == model.core_power_w(point, 0.0, temperature_c)
