"""Equivalence, throttling and caching tests for the table engine's thermal state.

The contract under test: for *every* governor — closed-loop and
static-schedule alike — the table-driven engine in
:mod:`repro.sim.tablepath` must reproduce the scalar engine frame by frame
on a thermally-enabled cluster: every float (temperatures included)
bit-identical, identical operating-point trajectories, identical
deadline-miss sets, identical per-epoch throttle events, identical
exploration counts and final Q-tables.  ``tests/test_tablepath.py`` holds
the same contract for isothermal clusters.
"""

from __future__ import annotations

import copy

import pytest

from repro.governors.conservative import ConservativeGovernor
from repro.governors.multicore_dvfs import MultiCoreDVFSGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.cluster import WorkloadTable
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.platform.thermal import ThermalModel, ThermalParameters
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor
from repro.sim import backends, tablepath
from repro.sim.backends import EngineRequest
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.video import mpeg4_application

numpy = pytest.importorskip("numpy")

#: Closed-loop governor factories (observation-driven decisions).
CLOSED_LOOP_GOVERNORS = {
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "rl": RLGovernor,
    "rl-multicore": MultiCoreRLGovernor,
    "shen-rl-upd": ShenRLGovernor,
    "multicore-dvfs": MultiCoreDVFSGovernor,
}

#: Static-schedule governors: on a thermally-enabled cluster the vectorised
#: fast path is ineligible, so these too negotiate to the table engine.
STATIC_GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "userspace": lambda: UserspaceGovernor(index=9),
    "oracle": OracleGovernor,
}

ALL_GOVERNORS = {**CLOSED_LOOP_GOVERNORS, **STATIC_GOVERNORS}

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


def _thermal_cluster(**kwargs):
    return build_a15_cluster(enable_thermal=True, **kwargs)


def _run_both(factory, application, cluster_kwargs=None, **config_kwargs):
    """Run ``application`` under ``factory()`` on the scalar and table engines."""
    cluster_kwargs = cluster_kwargs or {}
    scalar_governor = factory()
    scalar_engine = SimulationEngine(
        _thermal_cluster(**cluster_kwargs),
        SimulationConfig(**config_kwargs),
        engine="scalar",
    )
    scalar = scalar_engine.run(application, scalar_governor)
    assert scalar.engine_used == "scalar"

    thermal_governor = factory()
    thermal_engine = SimulationEngine(
        _thermal_cluster(**cluster_kwargs), SimulationConfig(**config_kwargs)
    )
    thermal = thermal_engine.run(application, thermal_governor)
    assert thermal.engine_used == "tablepath"
    assert thermal_engine.engine_used == "tablepath"
    return scalar, thermal, scalar_governor, thermal_governor, thermal_engine


def _assert_frame_by_frame_equivalent(scalar, thermal):
    assert thermal.num_frames == scalar.num_frames
    assert thermal.governor_name == scalar.governor_name
    assert thermal.application_name == scalar.application_name
    for thermal_record, scalar_record in zip(thermal.records, scalar.records):
        assert thermal_record.index == scalar_record.index
        # The decision trajectory must be *identical*, not merely close.
        assert thermal_record.operating_index == scalar_record.operating_index
        assert thermal_record.frequency_mhz == scalar_record.frequency_mhz
        assert thermal_record.cycles_per_core == scalar_record.cycles_per_core
        assert thermal_record.explored == scalar_record.explored
        for field in FLOAT_FIELDS:
            assert getattr(thermal_record, field) == getattr(scalar_record, field), field
    scalar_misses = [r.index for r in scalar.records if not r.met_deadline]
    thermal_misses = [r.index for r in thermal.records if not r.met_deadline]
    assert thermal_misses == scalar_misses
    assert thermal.total_energy_j == scalar.total_energy_j
    assert thermal.total_time_s == scalar.total_time_s


class TestThermalPathEquivalence:
    @pytest.mark.parametrize("name", sorted(ALL_GOVERNORS))
    def test_matches_scalar_engine_frame_by_frame(self, name):
        application = mpeg4_application(num_frames=400, seed=5)
        scalar, thermal, _, _, _ = _run_both(ALL_GOVERNORS[name], application)
        _assert_frame_by_frame_equivalent(scalar, thermal)

    @pytest.mark.parametrize("name", sorted(CLOSED_LOOP_GOVERNORS))
    def test_matches_on_fft_without_deadline_padding(self, name):
        application = fft_application(num_frames=150, seed=2)
        scalar, thermal, _, _, _ = _run_both(
            CLOSED_LOOP_GOVERNORS[name], application, idle_until_deadline=False
        )
        _assert_frame_by_frame_equivalent(scalar, thermal)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_property_style_seed_sweep(self, seed):
        """Temperatures, energy and miss sets agree across workload seeds."""
        application = mpeg4_application(num_frames=200, seed=seed)
        scalar, thermal, _, _, _ = _run_both(OndemandGovernor, application)
        _assert_frame_by_frame_equivalent(scalar, thermal)
        # Thermal coupling is actually exercised: the junction moved.
        temperatures = {r.temperature_c for r in thermal.records}
        assert len(temperatures) > 1

    @pytest.mark.parametrize("name", ["rl", "rl-multicore", "shen-rl-upd"])
    def test_learning_state_identical(self, name):
        """Exploration counts, convergence epochs and final Q-tables match."""
        application = mpeg4_application(num_frames=600, seed=7)
        scalar, thermal, scalar_governor, thermal_governor, _ = _run_both(
            CLOSED_LOOP_GOVERNORS[name], application
        )
        assert thermal.exploration_count == scalar.exploration_count
        assert thermal.converged_epoch == scalar.converged_epoch
        assert scalar.exploration_count > 0  # the run actually explored
        scalar_qtable = scalar_governor.agent.qtable
        thermal_qtable = thermal_governor.agent.qtable
        for state in range(scalar_qtable.num_states):
            assert thermal_qtable.row(state) == scalar_qtable.row(state)
        assert scalar_governor.reward_history == thermal_governor.reward_history

    def test_matches_with_sensor_noise(self):
        """The table engine drives the real sensor, so seeded noise matches too."""
        application = mpeg4_application(num_frames=120, seed=3)
        scalar, thermal, _, _, _ = _run_both(
            OndemandGovernor,
            application,
            cluster_kwargs={"sensor_noise_w": 0.05, "seed": 42},
        )
        _assert_frame_by_frame_equivalent(scalar, thermal)

    def test_cluster_aggregate_state_synchronised(self):
        application = mpeg4_application(num_frames=300, seed=5)
        scalar, thermal, _, _, engine = _run_both(RLGovernor, application)
        cluster = engine.cluster
        assert cluster.total_energy_j == pytest.approx(thermal.total_energy_j, rel=1e-6)
        assert cluster.time_s == pytest.approx(thermal.total_time_s, rel=1e-9)
        assert cluster.current_index == thermal.records[-1].operating_index
        total_cycles = sum(r.total_cycles for r in thermal.records)
        pmu_cycles = sum(core.pmu.busy_cycles for core in cluster.cores)
        assert pmu_cycles == pytest.approx(total_cycles, rel=1e-9)
        # The live thermal model holds the trajectory's final temperature.
        assert cluster.thermal_model.temperature_c == thermal.records[-1].temperature_c

    def test_back_to_back_runs_without_reset_match_scalar(self):
        """Persistent sensor/DVFS/thermal state carries across runs identically."""
        application = mpeg4_application(num_frames=100, seed=3)

        def run(engine_name):
            engine = SimulationEngine(
                _thermal_cluster(), SimulationConfig(), engine=engine_name
            )
            engine.run(application, OndemandGovernor())
            second = engine.run(application, OndemandGovernor(), reset_cluster=False)
            return second, engine

        scalar, scalar_engine = run("scalar")
        thermal, thermal_engine = run("auto")
        assert thermal.engine_used == "tablepath"
        _assert_frame_by_frame_equivalent(scalar, thermal)
        assert thermal_engine.cluster.time_s == scalar_engine.cluster.time_s
        assert (
            thermal_engine.cluster.thermal_model.temperature_c
            == scalar_engine.cluster.thermal_model.temperature_c
        )

    def test_dvfs_transition_history_matches_scalar(self):
        application = mpeg4_application(num_frames=300, seed=5)

        def run(engine_name):
            engine = SimulationEngine(
                _thermal_cluster(), SimulationConfig(), engine=engine_name
            )
            engine.run(application, OndemandGovernor())
            return engine.cluster.dvfs

        scalar_dvfs = run("scalar")
        thermal_dvfs = run("auto")
        assert thermal_dvfs.transition_count == scalar_dvfs.transition_count
        assert thermal_dvfs.transition_count > 0
        for thermal_t, scalar_t in zip(thermal_dvfs.transitions, scalar_dvfs.transitions):
            assert thermal_t.from_index == scalar_t.from_index
            assert thermal_t.to_index == scalar_t.to_index
            assert thermal_t.timestamp_s == pytest.approx(
                scalar_t.timestamp_s, rel=1e-9, abs=1e-12
            )

    def test_thermal_disabled_cluster_explicit_request_matches_scalar(self):
        """Pinned explicitly, the engine reproduces isothermal runs too."""
        application = mpeg4_application(num_frames=100, seed=4)
        scalar = SimulationEngine(
            build_a15_cluster(), SimulationConfig(), engine="scalar"
        ).run(application, OndemandGovernor())
        thermal = SimulationEngine(
            build_a15_cluster(), SimulationConfig(), engine="tablepath"
        ).run(application, OndemandGovernor())
        assert thermal.engine_used == "tablepath"
        _assert_frame_by_frame_equivalent(scalar, thermal)
        # Temperature never moves on a disabled model.
        assert {r.temperature_c for r in thermal.records} == {
            scalar.records[0].temperature_c
        }


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
        cluster = _thermal_cluster()
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
        result = SimulationEngine(
            self._hot_cluster(1000.0), SimulationConfig(), engine="scalar"
        ).run(application, OndemandGovernor())
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
        thermal_observed, thermal_total, thermal_result = run("auto")
        assert thermal_result.engine_used == "tablepath"
        assert scalar_observed == thermal_observed
        assert scalar_total == thermal_total
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


class TestThermalWorkloadTable:
    def _tables(self, cluster, application, config=None):
        return tablepath.precompute_tables(
            cluster, application, config or SimulationConfig()
        )

    def test_matches_validates_cluster_physics(self):
        application = mpeg4_application(num_frames=20, seed=1)
        tables = self._tables(_thermal_cluster(), application)
        assert isinstance(tables, WorkloadTable)
        assert tables.matches(_thermal_cluster(), idle_until_deadline=True)
        assert not tables.matches(_thermal_cluster(), idle_until_deadline=False)
        other = _thermal_cluster()
        other.idle_at_min_opp = False
        assert not tables.matches(other, idle_until_deadline=True)
        assert not tables.matches(
            _thermal_cluster(num_cores=2), idle_until_deadline=True
        )

    def test_mismatched_tables_are_rebuilt_not_trusted(self):
        """A wrong-shaped cached table degrades to a rebuild, never bad data."""
        application = mpeg4_application(num_frames=40, seed=2)
        stale = self._tables(_thermal_cluster(), mpeg4_application(num_frames=20, seed=2))

        engine = SimulationEngine(
            _thermal_cluster(), table_provider=lambda c, a, cfg: stale
        )
        thermal_result = engine.run(application, OndemandGovernor())
        assert thermal_result.engine_used == "tablepath"

        scalar = SimulationEngine(
            _thermal_cluster(), SimulationConfig(), engine="scalar"
        ).run(application, OndemandGovernor())
        _assert_frame_by_frame_equivalent(scalar, thermal_result)


class TestCampaignThermalTableCache:
    def test_thermal_scenarios_share_tables_and_match_scalar(self):
        from repro.campaign import executor as campaign_executor
        from repro.campaign import registry as campaign_registry
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign_registry.register_cluster("a15-thermal-test", _thermal_cluster)
        campaign_executor._TABLE_CACHE.clear()
        try:
            campaign = CampaignSpec.from_grid(
                name="thermal-cache-test",
                applications=[FactorySpec.of("mpeg4", num_frames=40)],
                governors=[FactorySpec.of("ondemand"), FactorySpec.of("conservative")],
                cluster=FactorySpec.of("a15-thermal-test"),
                seeds=[11],
            )
            store = campaign_executor.run_campaign(campaign)
            assert len(campaign_executor._TABLE_CACHE) == 1  # one shared entry
            (cached_tables,) = campaign_executor._TABLE_CACHE.values()
            assert isinstance(cached_tables, WorkloadTable)
            assert all(outcome.ok for outcome in store)
            assert all(
                outcome.result.engine_used == "tablepath" for outcome in store
            )

            scalar = SimulationEngine(
                _thermal_cluster(), SimulationConfig(), engine="scalar"
            ).run(mpeg4_application(num_frames=40, seed=11), OndemandGovernor())
            _assert_frame_by_frame_equivalent(
                scalar, store.outcome("ondemand").result
            )
        finally:
            campaign_registry._CLUSTERS.pop("a15-thermal-test", None)
            campaign_executor._TABLE_CACHE.clear()

    def test_cached_table_is_read_only(self):
        """Two thermal scenarios sharing one cached table leave it untouched."""
        from repro.campaign import executor as campaign_executor
        from repro.campaign import registry as campaign_registry
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign_registry.register_cluster("a15-thermal-readonly-test", _thermal_cluster)
        campaign_executor._TABLE_CACHE.clear()
        try:
            campaign = CampaignSpec.from_grid(
                name="thermal-readonly-test",
                applications=[FactorySpec.of("mpeg4", num_frames=40)],
                governors=[FactorySpec.of("ondemand"), FactorySpec.of("conservative")],
                cluster=FactorySpec.of("a15-thermal-readonly-test"),
                seeds=[11],
            )
            scenario = campaign.scenarios[0]
            tables = campaign_executor._cached_table_provider(scenario)(
                _thermal_cluster(),
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
                after = getattr(tables, name)
                if isinstance(before, numpy.ndarray):
                    assert after.dtype == before.dtype, name
                    assert numpy.array_equal(after, before), name
                else:
                    assert after == before, name
        finally:
            campaign_registry._CLUSTERS.pop("a15-thermal-readonly-test", None)
            campaign_executor._TABLE_CACHE.clear()
            campaign_executor.reset_table_cache_stats()


class TestThermalPathSelection:
    def test_numpy_missing_falls_back_to_scalar(self, monkeypatch):
        from repro.sim import fastpath

        monkeypatch.setattr(tablepath, "_np", None)
        monkeypatch.setattr(fastpath, "_np", None)
        cluster = _thermal_cluster()
        engine = SimulationEngine(cluster)
        result = engine.run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
        assert result.engine_used == "scalar"
        assert result.num_frames == 30

    def test_eligible_with_numpy(self):
        application = mpeg4_application(num_frames=5, seed=1)
        for cluster in (_thermal_cluster(), build_a15_cluster()):
            request = EngineRequest(
                cluster, application, OndemandGovernor(), SimulationConfig()
            )
            assert backends.rejection_reason("tablepath", request) is None
