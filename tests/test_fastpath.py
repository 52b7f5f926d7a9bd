"""Equivalence and selection tests for the vectorised fast path.

The contract under test: for every governor that exposes a static schedule,
the NumPy trace engine must reproduce the scalar engine frame by frame —
energy and timing to 1e-9 relative tolerance, identical operating-point
choices, identical deadline-miss sets — and the engine must fall back to
the scalar loop whenever the governor or platform is ineligible.
"""

from __future__ import annotations

import pytest

from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.sim import fastpath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.video import mpeg4_application

numpy = pytest.importorskip("numpy")

#: Governor factories whose schedules are observation-independent.
ELIGIBLE_GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "userspace": lambda: UserspaceGovernor(index=9),
    "oracle": OracleGovernor,
}


def _run_both(factory, application, **config_kwargs):
    """Run ``application`` under ``factory()`` on both engines."""
    scalar_engine = SimulationEngine(
        build_a15_cluster(),
        SimulationConfig(prefer_fast_path=False, **config_kwargs),
    )
    scalar = scalar_engine.run(application, factory())
    assert scalar_engine.engine_used == "scalar"

    fast_engine = SimulationEngine(
        build_a15_cluster(),
        SimulationConfig(prefer_fast_path=True, **config_kwargs),
    )
    fast = fast_engine.run(application, factory())
    assert fast_engine.engine_used == "fastpath"
    return scalar, fast, fast_engine


def _assert_frame_by_frame_equivalent(scalar, fast):
    assert fast.num_frames == scalar.num_frames
    assert fast.governor_name == scalar.governor_name
    assert fast.application_name == scalar.application_name
    for fast_record, scalar_record in zip(fast.records, scalar.records):
        assert fast_record.index == scalar_record.index
        assert fast_record.operating_index == scalar_record.operating_index
        assert fast_record.frequency_mhz == scalar_record.frequency_mhz
        assert fast_record.cycles_per_core == scalar_record.cycles_per_core
        assert fast_record.energy_j == pytest.approx(scalar_record.energy_j, rel=1e-9)
        assert fast_record.busy_time_s == pytest.approx(
            scalar_record.busy_time_s, rel=1e-9
        )
        assert fast_record.frame_time_s == pytest.approx(
            scalar_record.frame_time_s, rel=1e-9
        )
        assert fast_record.interval_s == pytest.approx(
            scalar_record.interval_s, rel=1e-9
        )
        assert fast_record.overhead_time_s == pytest.approx(
            scalar_record.overhead_time_s, rel=1e-9, abs=1e-15
        )
        assert fast_record.average_power_w == pytest.approx(
            scalar_record.average_power_w, rel=1e-9
        )
        assert fast_record.measured_power_w == pytest.approx(
            scalar_record.measured_power_w, rel=1e-9, abs=1e-12
        )
    # Deadline-miss sets must be *identical*, not merely close.
    scalar_misses = [r.index for r in scalar.records if not r.met_deadline]
    fast_misses = [r.index for r in fast.records if not r.met_deadline]
    assert fast_misses == scalar_misses
    assert fast.total_energy_j == pytest.approx(scalar.total_energy_j, rel=1e-9)
    assert fast.total_time_s == pytest.approx(scalar.total_time_s, rel=1e-9)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", sorted(ELIGIBLE_GOVERNORS))
    def test_matches_scalar_engine_frame_by_frame(self, name):
        application = mpeg4_application(num_frames=250, seed=5)
        scalar, fast, _ = _run_both(ELIGIBLE_GOVERNORS[name], application)
        _assert_frame_by_frame_equivalent(scalar, fast)

    @pytest.mark.parametrize("name", sorted(ELIGIBLE_GOVERNORS))
    def test_matches_on_fft_without_deadline_padding(self, name):
        application = fft_application(num_frames=150, seed=2)
        scalar, fast, _ = _run_both(
            ELIGIBLE_GOVERNORS[name], application, idle_until_deadline=False
        )
        _assert_frame_by_frame_equivalent(scalar, fast)

    def test_matches_without_overhead_charging(self):
        application = mpeg4_application(num_frames=120, seed=9)
        scalar, fast, _ = _run_both(
            OracleGovernor, application, charge_governor_overhead=False
        )
        _assert_frame_by_frame_equivalent(scalar, fast)
        assert fast.total_overhead_s == 0.0

    def test_matches_with_sensor_noise(self):
        """The fast path drives the real sensor, so seeded noise matches too."""
        application = mpeg4_application(num_frames=100, seed=3)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(sensor_noise_w=0.05, seed=42),
                SimulationConfig(prefer_fast_path=prefer),
            )
            return engine.run(application, OracleGovernor()), engine

        scalar, _ = run(False)
        fast, fast_engine = run(True)
        assert fast_engine.engine_used == "fastpath"
        _assert_frame_by_frame_equivalent(scalar, fast)

    def test_cluster_aggregate_state_synchronised(self):
        application = mpeg4_application(num_frames=200, seed=5)
        scalar, fast, fast_engine = _run_both(OracleGovernor, application)
        cluster = fast_engine.cluster
        assert cluster.total_energy_j == pytest.approx(fast.total_energy_j, rel=1e-6)
        assert cluster.time_s == pytest.approx(fast.total_time_s, rel=1e-9)
        assert cluster.current_index == fast.records[-1].operating_index
        total_cycles = sum(r.total_cycles for r in fast.records)
        pmu_cycles = sum(core.pmu.busy_cycles for core in cluster.cores)
        assert pmu_cycles == pytest.approx(total_cycles, rel=1e-9)

    def test_dvfs_transition_history_matches_scalar(self):
        application = mpeg4_application(num_frames=200, seed=5)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(), SimulationConfig(prefer_fast_path=prefer)
            )
            engine.run(application, OracleGovernor())
            return engine.cluster.dvfs

        scalar_dvfs = run(False)
        fast_dvfs = run(True)
        assert fast_dvfs.transition_count == scalar_dvfs.transition_count
        assert fast_dvfs.transition_count > 0  # the Oracle does transition
        assert fast_dvfs.total_transition_energy_j == pytest.approx(
            scalar_dvfs.total_transition_energy_j
        )
        assert fast_dvfs.total_transition_time_s == pytest.approx(
            scalar_dvfs.total_transition_time_s
        )
        for fast_t, scalar_t in zip(fast_dvfs.transitions, scalar_dvfs.transitions):
            assert fast_t.from_index == scalar_t.from_index
            assert fast_t.to_index == scalar_t.to_index
            assert fast_t.timestamp_s == pytest.approx(
                scalar_t.timestamp_s, rel=1e-9, abs=1e-12
            )


class TestFastPathSelection:
    def test_closed_loop_governors_stay_on_scalar_engine(self):
        application = mpeg4_application(num_frames=30, seed=1)
        for factory in (OndemandGovernor, MultiCoreRLGovernor):
            engine = SimulationEngine(build_a15_cluster())
            engine.run(application, factory())
            assert engine.engine_used == "tablepath"

    def test_thermal_enabled_cluster_is_ineligible(self):
        cluster = build_a15_cluster(enable_thermal=True)
        engine = SimulationEngine(cluster)
        engine.run(mpeg4_application(num_frames=30, seed=1), OracleGovernor())
        assert engine.engine_used == "tablepath"

    def test_prefer_fast_path_false_forces_scalar(self):
        engine = SimulationEngine(
            build_a15_cluster(), SimulationConfig(prefer_fast_path=False)
        )
        engine.run(mpeg4_application(num_frames=30, seed=1), OracleGovernor())
        assert engine.engine_used == "scalar"

    def test_schedule_length_mismatch_rejected(self):
        from repro.errors import SimulationError

        cluster = build_a15_cluster()
        application = mpeg4_application(num_frames=10, seed=1)
        governor = PerformanceGovernor()
        governor.setup(
            SimulationEngine(cluster).platform_info(), application.requirement
        )
        with pytest.raises(SimulationError):
            fastpath.simulate_schedule(
                cluster, application, governor, SimulationConfig(), [0] * 5
            )
        with pytest.raises(SimulationError):
            fastpath.simulate_schedule(
                cluster, application, governor, SimulationConfig(), [99] * 10
            )


class TestStaticScheduleProbe:
    def _setup(self, governor, application):
        engine = SimulationEngine(build_a15_cluster())
        governor.setup(engine.platform_info(), application.requirement)
        return governor

    def test_closed_loop_governor_returns_none(self):
        application = mpeg4_application(num_frames=20, seed=1)
        governor = self._setup(OndemandGovernor(), application)
        assert governor.static_schedule(application) is None

    def test_static_governors_repeat_their_index(self):
        application = mpeg4_application(num_frames=20, seed=1)
        performance = self._setup(PerformanceGovernor(), application)
        powersave = self._setup(PowersaveGovernor(), application)
        userspace = self._setup(UserspaceGovernor(index=4), application)
        table_top = performance.platform.num_actions - 1
        assert performance.static_schedule(application) == [table_top] * 20
        assert powersave.static_schedule(application) == [0] * 20
        assert userspace.static_schedule(application) == [4] * 20

    def test_vectorised_table_lookup_matches_scalar(self):
        from repro.platform.odroid_xu3 import A15_VF_TABLE

        application = mpeg4_application(num_frames=200, seed=8)
        cycles = [max(frame.cycles_per_core(4)) for frame in application]
        deadlines = [frame.deadline_s for frame in application]
        vectorised = A15_VF_TABLE.lowest_indices_meeting(cycles, deadlines)
        scalar = [
            A15_VF_TABLE.lowest_index_meeting(c, d) for c, d in zip(cycles, deadlines)
        ]
        assert vectorised == scalar
        with pytest.raises(ValueError):
            A15_VF_TABLE.lowest_indices_meeting([1e6], [0.0])

    def test_oracle_schedule_matches_per_frame_decide(self):
        from repro.rtm.governor import FrameHint

        application = mpeg4_application(num_frames=100, seed=8)
        governor = self._setup(OracleGovernor(), application)
        schedule = governor.static_schedule(application)
        num_cores = governor.platform.num_cores
        for frame, index in zip(application, schedule):
            hint = FrameHint(
                cycles_per_core=frame.cycles_per_core(num_cores),
                deadline_s=frame.deadline_s,
            )
            assert index == governor.decide(None, hint)


def _scalar_run(application, cluster):
    engine = SimulationEngine(cluster, SimulationConfig(), engine="scalar")
    result = engine.run(application, OndemandGovernor())
    assert result.engine_used == "scalar"
    return result


def _direct_power(cluster):
    """Shadow the memo with a direct ``PowerModel.core_power_w`` evaluation."""
    def core_power_w(index, busy, temperature_c):
        return cluster.power_model.core_power_w(
            cluster.vf_table[index], 1.0 if busy else 0.0, temperature_c
        )

    cluster.core_power_w = core_power_w
    return cluster


class TestPowerCache:
    def test_cached_and_uncached_energies_identical(self):
        """The isothermal memo is exact: frame-for-frame equal to direct evaluation."""
        application = mpeg4_application(num_frames=60, seed=4)
        cluster = build_a15_cluster()
        memoised = _scalar_run(application, cluster)
        direct = _scalar_run(application, _direct_power(build_a15_cluster()))
        assert memoised.records == direct.records
        # Constant temperature: at most one busy and one idle entry per point.
        assert 0 < len(cluster._power_cache) <= 2 * len(cluster.vf_table)

    def test_cache_is_exact_with_thermal_enabled(self):
        """A moving temperature is evaluated directly and never memoised."""
        application = mpeg4_application(num_frames=40, seed=4)
        cluster = build_a15_cluster(enable_thermal=True)
        scalar = _scalar_run(application, cluster)
        direct = _scalar_run(
            application, _direct_power(build_a15_cluster(enable_thermal=True))
        )
        assert scalar.records == direct.records
        assert len({r.temperature_c for r in scalar.records}) > 1
        assert len(cluster._power_cache) == 0

    def test_invalidate_power_cache(self):
        cluster = build_a15_cluster()
        cluster.core_power_w(3, True, 50.0)
        assert len(cluster._power_cache) > 0
        cluster.invalidate_power_cache()
        assert len(cluster._power_cache) == 0


class TestHistoryGating:
    def test_cluster_history_off_by_default(self):
        engine = SimulationEngine(build_a15_cluster())
        engine.run(mpeg4_application(num_frames=50, seed=1), OndemandGovernor())
        cluster = engine.cluster
        assert cluster.power_sensor.history_len == 0
        assert cluster.energy_meter.intervals == ()

    def test_record_history_opt_in(self):
        engine = SimulationEngine(build_a15_cluster(record_history=True))
        engine.run(mpeg4_application(num_frames=50, seed=1), OndemandGovernor())
        cluster = engine.cluster
        assert cluster.power_sensor.history_len == 50
        assert len(cluster.energy_meter.intervals) == 50

    def test_fast_path_records_history_when_opted_in(self):
        engine = SimulationEngine(build_a15_cluster(record_history=True))
        engine.run(mpeg4_application(num_frames=50, seed=1), OracleGovernor())
        assert engine.engine_used == "fastpath"
        assert engine.cluster.power_sensor.history_len == 50
        # The meter history is replayed per frame, matching the scalar engine.
        assert len(engine.cluster.energy_meter.intervals) == 50

    def test_fast_path_meter_history_matches_scalar(self):
        application = mpeg4_application(num_frames=40, seed=6)

        def run(prefer):
            engine = SimulationEngine(
                build_a15_cluster(record_history=True),
                SimulationConfig(prefer_fast_path=prefer),
            )
            engine.run(application, OracleGovernor())
            return engine.cluster.energy_meter.intervals

        scalar_intervals = run(False)
        fast_intervals = run(True)
        assert len(fast_intervals) == len(scalar_intervals)
        for fast_entry, scalar_entry in zip(fast_intervals, scalar_intervals):
            assert fast_entry.timestamp_s == pytest.approx(
                scalar_entry.timestamp_s, rel=1e-9, abs=1e-15
            )
            assert fast_entry.power_w == pytest.approx(scalar_entry.power_w, rel=1e-9)


class TestMeasureTrace:
    def test_matches_sequential_measure(self):
        from repro.platform.sensors import PowerSensor

        powers = [1.0, 2.5, 0.013, 4.2, 3.3]
        times = [0.04 * (i + 1) for i in range(5)]
        loop_sensor = PowerSensor()
        expected = [loop_sensor.measure(p, t).power_w for p, t in zip(powers, times)]
        vector_sensor = PowerSensor()
        assert vector_sensor.measure_trace(powers, times) == expected

    def test_holdover_falls_back_to_loop(self):
        from repro.platform.sensors import PowerSensor

        # Gaps below the sample period force the scalar holdover logic.
        powers = [1.0, 2.0, 3.0]
        times = [0.0, 0.004, 0.008]
        loop_sensor = PowerSensor(sample_period_s=0.01)
        expected = [loop_sensor.measure(p, t).power_w for p, t in zip(powers, times)]
        vector_sensor = PowerSensor(sample_period_s=0.01)
        assert vector_sensor.measure_trace(powers, times) == expected
        # The held-over readings all repeat the first conversion.
        assert expected[1] == expected[0] and expected[2] == expected[0]
