"""Equivalence, fallback and columnar-result tests for the table-driven engine.

The contract under test: for every *closed-loop* governor (the paper's
Q-learning RTM in both formulations, the UPD baseline and the reactive
Linux policies) the table-driven engine in :mod:`repro.sim.tablepath` must
reproduce the scalar engine frame by frame on an isothermal cluster — every
float bit-identical, identical operating-point trajectories, identical
deadline-miss sets, identical exploration counts and identical final
Q-tables — and the engine must fall back to the scalar loop whenever NumPy
is missing.  ``tests/test_thermalpath.py`` holds the same contract for
thermally-enabled clusters.
"""

from __future__ import annotations

import pytest

from repro.errors import PlatformError, SimulationError
from repro.governors.conservative import ConservativeGovernor
from repro.governors.multicore_dvfs import MultiCoreDVFSGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor
from repro.sim import tablepath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.video import mpeg4_application
from tests.conftest import store_round_trip

numpy = pytest.importorskip("numpy")

#: Closed-loop governor factories (no static schedule; observation-driven).
CLOSED_LOOP_GOVERNORS = {
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "rl": RLGovernor,
    "rl-multicore": MultiCoreRLGovernor,
    "shen-rl-upd": ShenRLGovernor,
    "multicore-dvfs": MultiCoreDVFSGovernor,
}

FLOAT_FIELDS = (
    "busy_time_s",
    "overhead_time_s",
    "frame_time_s",
    "interval_s",
    "deadline_s",
    "energy_j",
    "average_power_w",
    "measured_power_w",
    "temperature_c",
)


def _run_both(factory, application, **config_kwargs):
    """Run ``application`` under ``factory()`` on both engines."""
    scalar_governor = factory()
    scalar_engine = SimulationEngine(
        build_a15_cluster(),
        SimulationConfig(prefer_fast_path=False, **config_kwargs),
    )
    scalar = scalar_engine.run(application, scalar_governor)
    assert scalar_engine.engine_used == "scalar"

    table_governor = factory()
    table_engine = SimulationEngine(
        build_a15_cluster(),
        SimulationConfig(prefer_fast_path=True, **config_kwargs),
    )
    table = table_engine.run(application, table_governor)
    assert table_engine.engine_used == "tablepath"
    return scalar, table, scalar_governor, table_governor, table_engine


def _assert_frame_by_frame_equivalent(scalar, table):
    assert table.num_frames == scalar.num_frames
    assert table.governor_name == scalar.governor_name
    assert table.application_name == scalar.application_name
    for table_record, scalar_record in zip(table.records, scalar.records):
        assert table_record.index == scalar_record.index
        # The decision trajectory must be *identical*, not merely close.
        assert table_record.operating_index == scalar_record.operating_index
        assert table_record.frequency_mhz == scalar_record.frequency_mhz
        assert table_record.cycles_per_core == scalar_record.cycles_per_core
        assert table_record.explored == scalar_record.explored
        for field in FLOAT_FIELDS:
            assert getattr(table_record, field) == getattr(scalar_record, field), field
    scalar_misses = [r.index for r in scalar.records if not r.met_deadline]
    table_misses = [r.index for r in table.records if not r.met_deadline]
    assert table_misses == scalar_misses
    assert table.total_energy_j == scalar.total_energy_j
    assert table.total_time_s == scalar.total_time_s


class TestTablePathEquivalence:
    @pytest.mark.parametrize("name", sorted(CLOSED_LOOP_GOVERNORS))
    def test_matches_scalar_engine_frame_by_frame(self, name):
        application = mpeg4_application(num_frames=400, seed=5)
        scalar, table, _, _, _ = _run_both(CLOSED_LOOP_GOVERNORS[name], application)
        _assert_frame_by_frame_equivalent(scalar, table)

    @pytest.mark.parametrize("name", sorted(CLOSED_LOOP_GOVERNORS))
    def test_matches_on_fft_without_deadline_padding(self, name):
        application = fft_application(num_frames=150, seed=2)
        scalar, table, _, _, _ = _run_both(
            CLOSED_LOOP_GOVERNORS[name], application, idle_until_deadline=False
        )
        _assert_frame_by_frame_equivalent(scalar, table)

    @pytest.mark.parametrize("name", ["rl", "rl-multicore", "shen-rl-upd"])
    def test_learning_state_identical(self, name):
        """Exploration counts, convergence epochs and final Q-tables match."""
        application = mpeg4_application(num_frames=600, seed=7)
        scalar, table, scalar_governor, table_governor, _ = _run_both(
            CLOSED_LOOP_GOVERNORS[name], application
        )
        assert table.exploration_count == scalar.exploration_count
        assert table.converged_epoch == scalar.converged_epoch
        assert scalar.exploration_count > 0  # the run actually explored
        scalar_qtable = scalar_governor.agent.qtable
        table_qtable = table_governor.agent.qtable
        for state in range(scalar_qtable.num_states):
            assert table_qtable.row(state) == scalar_qtable.row(state)
            for action in range(scalar_qtable.num_actions):
                assert table_qtable.visit_count(state, action) == (
                    scalar_qtable.visit_count(state, action)
                )
        assert scalar_governor.reward_history == table_governor.reward_history

    def test_matches_without_overhead_charging(self):
        application = mpeg4_application(num_frames=150, seed=9)
        scalar, table, _, _, _ = _run_both(
            OndemandGovernor, application, charge_governor_overhead=False
        )
        _assert_frame_by_frame_equivalent(scalar, table)
        assert table.total_overhead_s == 0.0

    def test_matches_with_sensor_noise(self):
        """The table path drives the real sensor, so seeded noise matches too."""
        application = mpeg4_application(num_frames=120, seed=3)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(sensor_noise_w=0.05, seed=42),
                SimulationConfig(prefer_fast_path=prefer),
            )
            return engine.run(application, OndemandGovernor()), engine

        scalar, _ = run(False)
        table, table_engine = run(True)
        assert table_engine.engine_used == "tablepath"
        _assert_frame_by_frame_equivalent(scalar, table)

    def test_cluster_aggregate_state_synchronised(self):
        application = mpeg4_application(num_frames=300, seed=5)
        _, table, _, _, engine = _run_both(RLGovernor, application)
        cluster = engine.cluster
        assert cluster.total_energy_j == pytest.approx(table.total_energy_j, rel=1e-6)
        assert cluster.time_s == pytest.approx(table.total_time_s, rel=1e-9)
        assert cluster.current_index == table.records[-1].operating_index
        total_cycles = sum(r.total_cycles for r in table.records)
        pmu_cycles = sum(core.pmu.busy_cycles for core in cluster.cores)
        assert pmu_cycles == pytest.approx(total_cycles, rel=1e-9)

    def test_dvfs_transition_history_matches_scalar(self):
        application = mpeg4_application(num_frames=300, seed=5)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(), SimulationConfig(prefer_fast_path=prefer)
            )
            engine.run(application, OndemandGovernor())
            return engine.cluster.dvfs

        scalar_dvfs = run(False)
        table_dvfs = run(True)
        assert table_dvfs.transition_count == scalar_dvfs.transition_count
        assert table_dvfs.transition_count > 0  # ondemand does transition
        for table_t, scalar_t in zip(table_dvfs.transitions, scalar_dvfs.transitions):
            assert table_t.from_index == scalar_t.from_index
            assert table_t.to_index == scalar_t.to_index
            assert table_t.timestamp_s == pytest.approx(
                scalar_t.timestamp_s, rel=1e-9, abs=1e-12
            )

    def test_back_to_back_runs_without_reset_match_scalar(self):
        """Persistent sensor/DVFS/clock state carries across runs identically."""
        application = mpeg4_application(num_frames=100, seed=3)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(), SimulationConfig(prefer_fast_path=prefer)
            )
            engine.run(application, OndemandGovernor())
            second = engine.run(application, OndemandGovernor(), reset_cluster=False)
            return second, engine

        scalar, scalar_engine = run(False)
        table, table_engine = run(True)
        assert table_engine.engine_used == "tablepath"
        _assert_frame_by_frame_equivalent(scalar, table)
        assert table_engine.cluster.time_s == scalar_engine.cluster.time_s
        assert table_engine.cluster.current_index == scalar_engine.cluster.current_index


class TestTablePathSelection:
    def test_static_governors_still_take_vectorised_path(self):
        engine = SimulationEngine(build_a15_cluster())
        engine.run(mpeg4_application(num_frames=30, seed=1), OracleGovernor())
        assert engine.engine_used == "fastpath"

    def test_thermal_enabled_cluster_negotiates_tablepath(self):
        engine = SimulationEngine(build_a15_cluster(enable_thermal=True))
        engine.run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
        assert engine.engine_used == "tablepath"

    def test_prefer_fast_path_false_forces_scalar(self):
        engine = SimulationEngine(
            build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
        )
        engine.run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
        assert engine.engine_used == "scalar"

    def test_numpy_missing_falls_back_to_scalar(self, monkeypatch):
        from repro.sim import fastpath

        monkeypatch.setattr(tablepath, "_np", None)
        monkeypatch.setattr(fastpath, "_np", None)
        cluster = build_a15_cluster()
        engine = SimulationEngine(cluster)
        result = engine.run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
        assert engine.engine_used != "tablepath"
        assert result.num_frames == 30
        with pytest.raises(SimulationError):
            tablepath.simulate_closed_loop(
                cluster,
                mpeg4_application(num_frames=5, seed=1),
                OndemandGovernor(),
                SimulationConfig(),
            )


class TestWorkloadTable:
    def _table(self, cluster, application, config=None):
        return tablepath.precompute_tables(
            cluster, application, config or SimulationConfig()
        )

    def test_matches_validates_cluster_physics(self):
        application = mpeg4_application(num_frames=20, seed=1)
        cluster = build_a15_cluster()
        tables = self._table(cluster, application)
        assert tables.matches(cluster, idle_until_deadline=True)
        assert not tables.matches(cluster, idle_until_deadline=False)
        other = build_a15_cluster()
        other.idle_at_min_opp = False
        assert not tables.matches(other, idle_until_deadline=True)
        smaller = build_a15_cluster(num_cores=2)
        assert not tables.matches(smaller, idle_until_deadline=True)

    def test_mismatched_tables_are_rebuilt_not_trusted(self):
        """A wrong-shaped cached table degrades to a rebuild, never bad data."""
        application = mpeg4_application(num_frames=40, seed=2)
        other_app = mpeg4_application(num_frames=20, seed=2)
        cluster = build_a15_cluster()
        stale = self._table(cluster, other_app)

        engine = SimulationEngine(
            build_a15_cluster(), table_provider=lambda c, a, cfg: stale
        )
        table_result = engine.run(application, OndemandGovernor())
        assert engine.engine_used == "tablepath"

        scalar = SimulationEngine(
            build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
        ).run(application, OndemandGovernor())
        _assert_frame_by_frame_equivalent(scalar, table_result)

    def test_timing_matches_execute_workload(self):
        """Busy time and interval equal the scalar execute_workload outputs."""
        application = mpeg4_application(num_frames=25, seed=4)
        cluster = build_a15_cluster()
        tables = self._table(cluster, application)
        num_cores = cluster.num_cores
        for frame_index, frame in enumerate(application):
            per_core = frame.cycles_per_core(num_cores)
            for point_index in (0, len(cluster.vf_table) // 2, len(cluster.vf_table) - 1):
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
                assert tables.interval[frame_index, point_index] == execution.duration_s

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


class TestCampaignTableCache:
    def test_scenarios_sharing_application_reuse_tables(self):
        from repro.campaign import executor as campaign_executor
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign_executor._TABLE_CACHE.clear()
        campaign = CampaignSpec.from_grid(
            name="cache-test",
            applications=[FactorySpec.of("mpeg4", num_frames=40)],
            governors=[FactorySpec.of("ondemand"), FactorySpec.of("conservative")],
            seeds=[11],
        )
        store = campaign_executor.run_campaign(campaign)
        assert len(campaign_executor._TABLE_CACHE) == 1  # one shared entry
        assert all(outcome.ok for outcome in store)

        # Cached-table results are identical to scalar-engine results.
        scalar = SimulationEngine(
            build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
        ).run(mpeg4_application(num_frames=40, seed=11), OndemandGovernor())
        cached = store.outcome("ondemand").result
        _assert_frame_by_frame_equivalent(scalar, cached)

    def test_cache_is_bounded(self):
        from repro.campaign import executor as campaign_executor
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign_executor._TABLE_CACHE.clear()
        campaign = CampaignSpec.from_grid(
            name="cache-bound-test",
            applications=[FactorySpec.of("mpeg4", num_frames=10)],
            governors=[FactorySpec.of("ondemand")],
            seeds=list(range(campaign_executor._TABLE_CACHE_MAX_ENTRIES + 3)),
        )
        campaign_executor.run_campaign(campaign)
        assert (
            len(campaign_executor._TABLE_CACHE)
            <= campaign_executor._TABLE_CACHE_MAX_ENTRIES
        )


class TestSensorFastPath:
    def test_measure_w_matches_measure(self):
        from repro.platform.sensors import PowerSensor

        a, b = PowerSensor(noise_stddev_w=0.01, seed=3), PowerSensor(
            noise_stddev_w=0.01, seed=3
        )
        powers = [1.0, 2.5, 0.013, 4.2, 3.3]
        times = [0.04 * (i + 1) for i in range(5)]
        readings = [a.measure(p, t) for p, t in zip(powers, times)]
        floats = [b.measure_w(p, t) for p, t in zip(powers, times)]
        assert [r.power_w for r in readings] == floats
        assert a.last_reading == b.last_reading

    def test_holdover_preserved(self):
        from repro.platform.sensors import PowerSensor

        sensor = PowerSensor(sample_period_s=0.01)
        first = sensor.measure_w(1.0, 0.0)
        held = sensor.measure_w(5.0, 0.004)  # within the conversion period
        assert held == first
        assert sensor.last_reading.timestamp_s == 0.0
