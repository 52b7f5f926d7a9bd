"""Unit tests for the core, cluster and chip execution models."""

import pytest

from repro.errors import PlatformError
from repro.platform.chip import Chip
from repro.platform.cluster import Cluster
from repro.platform.core import Core
from repro.platform.odroid_xu3 import build_a15_cluster, build_odroid_xu3


class TestCore:
    def test_execute_busy_and_idle_split(self, small_vf_table):
        core = Core(core_id=0)
        point = small_vf_table[1]  # 1 GHz
        result = core.execute(cycles=10e6, point=point, interval_s=0.020)
        assert result.busy_time_s == pytest.approx(0.010)
        assert result.idle_time_s == pytest.approx(0.010)
        assert result.utilisation == pytest.approx(0.5)
        assert result.idle_cycles == pytest.approx(10e6)

    def test_no_idle_when_busy_exceeds_interval(self, small_vf_table):
        core = Core(core_id=0)
        result = core.execute(cycles=30e6, point=small_vf_table[1], interval_s=0.020)
        assert result.idle_time_s == 0.0
        assert result.total_time_s == pytest.approx(0.030)

    def test_pmu_accumulates_across_executions(self, small_vf_table):
        core = Core(core_id=1)
        core.execute(5e6, small_vf_table[1], 0.0)
        core.execute(7e6, small_vf_table[1], 0.0)
        assert core.pmu.busy_cycles == pytest.approx(12e6)

    def test_negative_cycles_rejected(self, small_vf_table):
        with pytest.raises(PlatformError):
            Core(core_id=0).execute(-1.0, small_vf_table[0])

    def test_default_name(self):
        assert Core(core_id=3).name == "core-3"
        with pytest.raises(PlatformError):
            Core(core_id=-1)


class TestCluster:
    def test_execution_duration_is_critical_path(self, small_cluster):
        small_cluster.set_operating_index(1)  # 1 GHz
        result = small_cluster.execute_workload([10e6, 20e6])
        assert result.duration_s == pytest.approx(0.020)
        assert result.max_busy_cycles == pytest.approx(20e6)
        assert result.total_busy_cycles == pytest.approx(30e6)

    def test_minimum_interval_pads_with_idle(self, small_cluster):
        small_cluster.set_operating_index(1)
        result = small_cluster.execute_workload([10e6, 10e6], minimum_interval_s=0.040)
        assert result.duration_s == pytest.approx(0.040)
        # Both cores were busy 10 ms of the 40 ms interval.
        assert all(r.utilisation == pytest.approx(0.25) for r in result.core_results)

    def test_too_many_demands_rejected(self, small_cluster):
        with pytest.raises(PlatformError):
            small_cluster.execute_workload([1e6, 1e6, 1e6])

    def test_short_demand_list_padded_with_zeros(self, small_cluster):
        result = small_cluster.execute_workload([5e6])
        assert result.core_results[1].cycles == 0.0

    def test_energy_increases_with_frequency_for_fixed_work(self, a15_cluster):
        demand = [4e7] * 4
        a15_cluster.set_operating_index(6)
        slow = a15_cluster.execute_workload(demand, minimum_interval_s=0.040)
        a15_cluster.reset()
        a15_cluster.set_operating_index(18)
        fast = a15_cluster.execute_workload(demand, minimum_interval_s=0.040)
        assert fast.energy_j > slow.energy_j

    def test_transition_costs_charged_to_interval(self, small_cluster):
        transition = small_cluster.set_operating_index(0)
        result = small_cluster.execute_workload([1e6, 1e6], pending_transition=transition)
        assert result.duration_s >= transition.latency_s
        assert result.energy_j >= transition.energy_j

    def test_energy_meter_and_time_accumulate(self, small_cluster):
        small_cluster.execute_workload([5e6, 5e6], minimum_interval_s=0.01)
        small_cluster.execute_workload([5e6, 5e6], minimum_interval_s=0.01)
        assert small_cluster.total_energy_j > 0.0
        assert small_cluster.time_s >= 0.02

    def test_reset_restores_initial_state(self, small_cluster):
        small_cluster.set_operating_index(0)
        small_cluster.execute_workload([5e6, 5e6])
        small_cluster.reset(operating_index=2)
        assert small_cluster.total_energy_j == 0.0
        assert small_cluster.time_s == 0.0
        assert small_cluster.current_index == 2
        assert all(core.pmu.busy_cycles == 0.0 for core in small_cluster.cores)

    def test_advance_time_to_sets_the_clock_forward_only(self, small_cluster):
        start, end = 0.9762544985948622, 116.36131011477606
        assert start + (end - start) != end  # a duration added back rounds
        small_cluster.advance_time_to(start)
        small_cluster.advance_time_to(end)
        assert small_cluster.time_s == end
        with pytest.raises(PlatformError):
            small_cluster.advance_time_to(start)
        assert small_cluster.time_s == end

    def test_idle_cluster_consumes_little_power(self, a15_cluster):
        a15_cluster.set_operating_index(18)
        result = a15_cluster.idle(duration_s=0.1)
        # With cpuidle modelling the idle padding runs at the slowest OPP.
        assert result.average_power_w < 1.0

    def test_measured_power_close_to_true_power(self, a15_cluster):
        a15_cluster.set_operating_index(12)
        result = a15_cluster.execute_workload([3e7] * 4, minimum_interval_s=0.040)
        assert result.measured_power_w == pytest.approx(result.average_power_w, rel=0.05)

    def test_requires_at_least_one_core(self, small_vf_table):
        with pytest.raises(PlatformError):
            Cluster(name="empty", cores=[], vf_table=small_vf_table)


class TestChip:
    def test_odroid_xu3_has_both_clusters(self):
        chip = build_odroid_xu3()
        assert set(chip.cluster_names) == {"a15", "a7"}
        assert chip.num_cores == 8

    def test_cluster_lookup(self):
        chip = build_odroid_xu3()
        assert chip.cluster("a15").num_cores == 4
        with pytest.raises(PlatformError):
            chip.cluster("gpu")

    def test_total_energy_aggregates_clusters(self):
        chip = build_odroid_xu3()
        chip.cluster("a15").execute_workload([1e7] * 4)
        chip.cluster("a7").execute_workload([1e6] * 4)
        assert chip.total_energy_j == pytest.approx(
            chip.cluster("a15").total_energy_j + chip.cluster("a7").total_energy_j
        )

    def test_reset_propagates(self):
        chip = build_odroid_xu3()
        chip.cluster("a15").execute_workload([1e7] * 4)
        chip.reset()
        assert chip.total_energy_j == 0.0

    def test_duplicate_cluster_names_rejected(self):
        a = build_a15_cluster()
        b = build_a15_cluster()
        with pytest.raises(PlatformError):
            Chip(name="bad", clusters=[a, b])

    def test_chip_requires_clusters(self):
        with pytest.raises(PlatformError):
            Chip(name="empty", clusters=[])


class TestOdroidXU3Preset:
    def test_a15_cluster_dimensions(self):
        cluster = build_a15_cluster()
        assert cluster.num_cores == 4
        assert len(cluster.vf_table) == 19

    def test_a15_faster_and_hungrier_than_a7(self):
        chip = build_odroid_xu3()
        a15, a7 = chip.cluster("a15"), chip.cluster("a7")
        assert a15.vf_table.max_point.frequency_hz > a7.vf_table.max_point.frequency_hz
        a15_power, a7_power = (
            # Four busy cores plus the uncore, charged once per cluster.
            4 * cluster.power_model.core_power_w(cluster.vf_table.max_point, 1.0)
            + cluster.power_model.parameters.uncore_power_w
            for cluster in (a15, a7)
        )
        assert a15_power > a7_power

    def test_thermal_disabled_by_default(self):
        cluster = build_a15_cluster()
        before = cluster.thermal_model.temperature_c
        cluster.execute_workload([8e7] * 4, minimum_interval_s=0.040)
        assert cluster.thermal_model.temperature_c == before

    def test_thermal_can_be_enabled(self):
        cluster = build_a15_cluster(enable_thermal=True)
        before = cluster.thermal_model.temperature_c
        cluster.set_operating_index(18)
        for _ in range(50):
            cluster.execute_workload([8e7] * 4, minimum_interval_s=0.040)
        assert cluster.thermal_model.temperature_c > before
