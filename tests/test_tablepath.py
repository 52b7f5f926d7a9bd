"""Unit tests for the table-driven engine, isothermal and thermal.

Its frame-by-frame agreement with the scalar engine is part of
``tests/test_engine_equivalence.py``; which engine ``auto`` picks is
``tests/test_backends.py::TestLadder``.  This file holds what is
particular to the table engine: its run without numpy, the workload table
and its campaign cache, the per-epoch throttle events it reports, the
columnar result it builds and the sensor's float path.  Most cases run
with the thermal model off and on.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import PlatformError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.cluster import WorkloadTable
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.platform.thermal import ThermalModel, ThermalParameters
from repro.sim import tablepath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.video import mpeg4_application
from tests.conftest import ondemand_without_numpy, store_round_trip

THERMAL = pytest.mark.parametrize("thermal", [False, True], ids=["iso", "thermal"])


def _scalar_run(cluster, application):
    return SimulationEngine(cluster, SimulationConfig(), engine="scalar").run(
        application, OndemandGovernor()
    )


class TestTablePathSelection:
    @THERMAL
    def test_runs_without_numpy(self, thermal):
        """With numpy unimportable the engine still negotiates and its
        columns are bit-identical to a run with numpy installed."""
        result = SimulationEngine(build_a15_cluster(enable_thermal=thermal)).run(
            mpeg4_application(num_frames=30, seed=1), OndemandGovernor()
        )
        assert ondemand_without_numpy(thermal=thermal) == {
            "engine": "tablepath",
            "energy_j": list(result.columns.energy_j),
            "temperature_c": list(result.columns.temperature_c),
        }


class TestWorkloadTable:
    def _table(self, cluster, application, config=None):
        return tablepath.precompute_tables(
            cluster, application, config or SimulationConfig()
        )

    @THERMAL
    def test_matches_validates_cluster_physics(self, thermal):
        application = mpeg4_application(num_frames=20, seed=1)
        tables = self._table(build_a15_cluster(enable_thermal=thermal), application)
        assert isinstance(tables, WorkloadTable)
        assert tables.matches(
            build_a15_cluster(enable_thermal=thermal), idle_until_deadline=True
        )
        assert not tables.matches(
            build_a15_cluster(enable_thermal=thermal), idle_until_deadline=False
        )
        other = build_a15_cluster(enable_thermal=thermal)
        other.idle_at_min_opp = False
        assert not tables.matches(other, idle_until_deadline=True)
        smaller = build_a15_cluster(num_cores=2, enable_thermal=thermal)
        assert not tables.matches(smaller, idle_until_deadline=True)

    @THERMAL
    def test_mismatched_tables_are_rebuilt_not_trusted(self, thermal):
        """A wrong-shaped cached table degrades to a rebuild, never bad data."""
        application = mpeg4_application(num_frames=40, seed=2)
        stale = self._table(
            build_a15_cluster(enable_thermal=thermal),
            mpeg4_application(num_frames=20, seed=2),
        )

        engine = SimulationEngine(
            build_a15_cluster(enable_thermal=thermal),
            engine="tablepath",
            table_provider=lambda c, a, cfg: stale,
        )
        table_result = engine.run(application, OndemandGovernor())
        scalar = _scalar_run(build_a15_cluster(enable_thermal=thermal), application)
        assert table_result == scalar

    def test_timing_matches_execute_workload(self):
        """Busy time and the loop's interval equal the scalar execute_workload outputs."""
        application = mpeg4_application(num_frames=25, seed=4)
        cluster = build_a15_cluster()
        tables = self._table(cluster, application)
        num_cores = cluster.num_cores
        for point_index in (0, len(cluster.vf_table) // 2, len(cluster.vf_table) - 1):
            # Held at its starting point the loop makes no DVFS transition,
            # so each interval_s is the loop's own padded interval.
            engine = SimulationEngine(
                build_a15_cluster(),
                SimulationConfig(initial_operating_index=point_index),
                engine="tablepath",
                table_provider=lambda c, a, cfg: tables,
            )
            intervals = engine.run(application, UserspaceGovernor(point_index)).columns.interval_s
            for frame_index, frame in enumerate(application):
                per_core = frame.cycles_per_core(num_cores)
                cluster.reset(point_index)
                execution = cluster.execute_workload(
                    per_core, minimum_interval_s=frame.deadline_s
                )
                busy = tables.max_cycles[frame_index] * (
                    tables.seconds_per_cycle[point_index]
                )
                assert busy == max(
                    core.busy_time_s for core in execution.core_results
                )
                assert intervals[frame_index] == execution.duration_s

    def test_rejects_mismatched_trace(self):
        application = mpeg4_application(num_frames=5, seed=1)
        cycles = [f.cycles_per_core(4) for f in application]
        deadlines = [f.deadline_s for f in application]
        cluster = build_a15_cluster()
        with pytest.raises(PlatformError):
            cluster.execute_workload_table(cycles, deadlines[:-1])
        with pytest.raises(PlatformError):
            build_a15_cluster(num_cores=2).execute_workload_table(cycles, deadlines)

    def test_power_table_matches_core_power(self):
        cluster = build_a15_cluster()
        temperature = cluster.thermal_model.temperature_c
        busy, idle = cluster.power_model.power_table(
            cluster.vf_table.points, temperature
        )
        for index in range(len(cluster.vf_table)):
            assert busy[index] == cluster.core_power_w(index, True, temperature)
            assert idle[index] == cluster.core_power_w(index, False, temperature)


class TestColumnarResults:
    def _table_result(self, num_frames=60):
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(
            mpeg4_application(num_frames=num_frames, seed=3), OndemandGovernor()
        )
        assert engine.engine_used == "tablepath"
        return result

    def test_records_materialise_lazily(self):
        result = self._table_result()
        columns = result.columns
        assert result.num_frames == 60
        records = result.records
        assert isinstance(records, tuple) and len(records) == 60
        # Each call builds a fresh snapshot; the columns stay the one store.
        assert result.records is not records
        assert result.records == records
        assert result.columns is columns
        assert [r.energy_j for r in records] == list(columns.energy_j)

    def test_json_round_trip(self):
        result = self._table_result(20)
        clone = store_round_trip(result)
        assert clone == result

    def test_window_and_append_compatibility(self):
        result = self._table_result(30)
        head = result.window(0, 10)
        assert head.num_frames == 10
        assert head.records == result.records[:10]
        assert head.columns.energy_j == result.columns.energy_j[:10]
        # The records are a snapshot: appending raises and the totals stay.
        total = result.total_energy_j
        with pytest.raises(AttributeError):
            result.records.append(result.records[0])
        assert result.num_frames == 30
        assert result.total_energy_j == total

    def test_in_place_record_replacement_reflected(self):
        """Item assignment into the records raises instead of going out of step."""
        from dataclasses import replace

        result = self._table_result(10)
        original_total = result.total_energy_j
        records = result.records
        with pytest.raises(TypeError):
            records[0] = replace(records[0], energy_j=1000.0)
        assert result.total_energy_j == original_total
        assert result.records == records
        assert result.columns.energy_j[0] == records[0].energy_j


def _cache_campaign(name, num_frames, governors, seeds, thermal):
    from repro.campaign.spec import CampaignSpec, FactorySpec

    return CampaignSpec.from_grid(
        name=name,
        applications=[FactorySpec.of("mpeg4", num_frames=num_frames)],
        governors=[FactorySpec.of(governor) for governor in governors],
        cluster=FactorySpec.of("a15", enable_thermal=thermal),
        seeds=seeds,
    )


class TestCampaignTableCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        from repro.campaign import executor as campaign_executor

        campaign_executor._TABLE_CACHE.clear()
        campaign_executor.reset_table_cache_stats()
        yield
        campaign_executor._TABLE_CACHE.clear()
        campaign_executor.reset_table_cache_stats()

    @THERMAL
    def test_scenarios_sharing_application_reuse_tables(self, thermal):
        from repro.campaign import executor as campaign_executor

        campaign = _cache_campaign(
            "cache-test", 40, ["ondemand", "conservative"], [11], thermal
        )
        store = campaign_executor.run_campaign(campaign)
        assert len(campaign_executor._TABLE_CACHE) == 1  # one shared entry
        (cached_tables,) = campaign_executor._TABLE_CACHE.values()
        assert isinstance(cached_tables, WorkloadTable)
        assert all(outcome.ok for outcome in store)
        assert all(outcome.result.engine_used == "tablepath" for outcome in store)

        # Cached-table results are identical to scalar-engine results.
        scalar = _scalar_run(
            build_a15_cluster(enable_thermal=thermal),
            mpeg4_application(num_frames=40, seed=11),
        )
        assert store.outcome("ondemand").result == scalar

    @THERMAL
    def test_cached_table_is_read_only(self, thermal):
        """Two scenarios sharing one cached table leave it untouched."""
        from repro.campaign import executor as campaign_executor

        campaign = _cache_campaign(
            "readonly-test", 40, ["ondemand", "conservative"], [11], thermal
        )
        scenario = campaign.scenarios[0]
        tables = campaign_executor._cached_table_provider(scenario)(
            build_a15_cluster(enable_thermal=thermal),
            campaign_executor._cached_application(scenario),
            SimulationConfig(),
        )
        baseline = {
            name: copy.deepcopy(getattr(tables, name))
            for name in WorkloadTable.__slots__
        }

        campaign_executor.reset_table_cache_stats()
        store = campaign_executor.run_campaign(campaign)

        assert all(outcome.ok for outcome in store)
        assert campaign_executor.table_cache_stats()["hits"] == 2
        (cached,) = campaign_executor._TABLE_CACHE.values()
        assert cached is tables
        for name, before in baseline.items():
            assert getattr(tables, name) == before, name

    def test_cache_is_bounded(self):
        from repro.campaign import executor as campaign_executor

        campaign = _cache_campaign(
            "cache-bound-test",
            10,
            ["ondemand"],
            list(range(campaign_executor._TABLE_CACHE_MAX_ENTRIES + 3)),
            thermal=False,
        )
        campaign_executor.run_campaign(campaign)
        assert (
            len(campaign_executor._TABLE_CACHE)
            <= campaign_executor._TABLE_CACHE_MAX_ENTRIES
        )


class _ThrottleSpy(OndemandGovernor):
    """Records the per-epoch throttle_events each observation reports."""

    def __init__(self):
        super().__init__()
        self.observed = []

    def decide(self, previous, hint=None):
        if previous is not None:
            self.observed.append(previous.throttle_events)
        return super().decide(previous, hint)


class TestThrottleEvents:
    def _hot_cluster(self, throttle_c):
        cluster = build_a15_cluster(enable_thermal=True)
        cluster.thermal_model = ThermalModel(
            parameters=ThermalParameters(
                ambient_c=30.0,
                resistance_c_per_w=7.0,
                capacitance_j_per_c=4.0,
                initial_c=50.0,
                throttle_c=throttle_c,
            ),
            enabled=True,
        )
        return cluster

    def _mixed_threshold(self, application):
        """A throttle threshold strictly inside the trajectory's range."""
        result = _scalar_run(self._hot_cluster(1000.0), application)
        temperatures = [r.temperature_c for r in result.records]
        return (min(temperatures) + max(temperatures)) / 2.0

    def test_mid_epoch_throttling_is_visible_per_epoch(self):
        application = mpeg4_application(num_frames=300, seed=5)
        threshold = self._mixed_threshold(application)

        def run(engine_name):
            cluster = self._hot_cluster(threshold)
            governor = _ThrottleSpy()
            engine = SimulationEngine(cluster, SimulationConfig(), engine=engine_name)
            result = engine.run(application, governor)
            return governor.observed, cluster.thermal_model.throttle_events, result

        scalar_observed, scalar_total, scalar_result = run("scalar")
        table_observed, table_total, _ = run("tablepath")
        assert scalar_observed == table_observed
        assert scalar_total == table_total
        # The chosen threshold produces a *mixed* pattern: some epochs
        # throttle, some do not — the edge case that used to be invisible.
        assert 0 < sum(scalar_observed) < len(scalar_observed)
        # The observation matches the recorded temperature trajectory: an
        # epoch reports an event exactly when it ended at/above threshold.
        for observed, record in zip(scalar_observed, scalar_result.records):
            assert observed == (1 if record.temperature_c >= threshold else 0)

    def test_disabled_thermal_model_reports_zero_events(self):
        application = mpeg4_application(num_frames=50, seed=1)
        governor = _ThrottleSpy()
        SimulationEngine(build_a15_cluster(), SimulationConfig()).run(
            application, governor
        )
        assert governor.observed
        assert set(governor.observed) == {0}

    def test_thermal_model_counts_and_resets(self):
        model = ThermalModel(
            parameters=ThermalParameters(initial_c=50.0, throttle_c=40.0),
            enabled=True,
        )
        assert model.throttle_events == 0
        model.step(5.0, 1.0)  # steady 65 C > threshold
        assert model.throttle_events == 1
        model.absorb_state(42.0, 3)
        assert model.temperature_c == 42.0
        assert model.throttle_events == 4
        model.reset()
        assert model.throttle_events == 0
        with pytest.raises(ValueError):
            model.absorb_state(42.0, -1)


class TestSensorFastPath:
    def test_measure_w_records_each_conversion(self):
        from repro.platform.sensors import PowerSensor, SensorReading

        a, b = PowerSensor(noise_stddev_w=0.01, seed=3), PowerSensor(
            noise_stddev_w=0.01, seed=3
        )
        powers = [1.0, 2.5, 0.013, 4.2, 3.3]
        times = [0.04 * (i + 1) for i in range(5)]
        for power, time_s in zip(powers, times):
            reading = a.measure_w(power, time_s)
            assert a.last_reading == SensorReading(timestamp_s=time_s, power_w=reading)
            assert b.measure_w(power, time_s) == reading
        assert a.last_reading == b.last_reading

    def test_holdover_preserved(self):
        from repro.platform.sensors import PowerSensor

        sensor = PowerSensor(sample_period_s=0.01)
        first = sensor.measure_w(1.0, 0.0)
        held = sensor.measure_w(5.0, 0.004)  # within the conversion period
        assert held == first
        assert sensor.last_reading.timestamp_s == 0.0
