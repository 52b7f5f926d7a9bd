"""Unit tests for the static-schedule fast path.

Its frame-by-frame agreement with the scalar engine is one case of
``tests/test_engine_equivalence.py``; which engine ``auto`` picks is
``tests/test_backends.py::TestLadder``.  This file holds what is
particular to the fast path: the per-core energy order of a frame, the
schedule checks, the governors' schedule probe, the isothermal power memo,
the sensor's one-pass ``measure_trace`` and ``sync_cluster``'s hand-over of
a run's DVFS transitions and clock.
"""

from __future__ import annotations

import random
from itertools import accumulate

import pytest

from repro.errors import PlatformError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.dvfs import DVFSTransition
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim import fastpath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.task import Frame
from repro.workload.application import Application, PerformanceRequirement
from repro.workload.video import mpeg4_application


def _random_application(num_frames: int, num_threads: int, seed: int) -> Application:
    """Frames with independent random per-thread demands around a 25 fps budget."""
    rng = random.Random(seed)
    requirement = PerformanceRequirement(frames_per_second=25.0)
    frames = [
        Frame(
            index=i,
            thread_cycles=tuple(rng.uniform(0.0, 4.0e7) for _ in range(num_threads)),
            deadline_s=requirement.tref_s,
        )
        for i in range(num_frames)
    ]
    return Application(name="random", frames=frames, requirement=requirement)


class TestFrameEnergyOrder:
    @pytest.mark.parametrize("num_cores", [1, 4, 7, 8, 9, 12, 20])
    def test_energy_is_numpys_row_reduction(self, num_cores):
        """A frame's energy is ``busy_w * Σbusy + idle_w * Σidle + uncore *
        interval`` with each per-core Σ in ``ndarray.sum(axis=1)``'s order,
        below 8 cores and from 8 cores on."""
        np = pytest.importorskip("numpy")
        cluster = build_a15_cluster(num_cores=num_cores)
        engine = SimulationEngine(cluster)
        result = engine.run(_random_application(200, num_cores, seed=num_cores), OracleGovernor())
        assert engine.engine_used == "fastpath"

        columns = result.columns
        points = cluster.vf_table.points
        indices = np.asarray(columns.operating_index)
        spc = np.array([point.seconds_per_cycle for point in points])[indices]
        busy = np.asarray(columns.cycles_per_core) * spc[:, None]
        interval = np.maximum(busy.max(axis=1), np.asarray(columns.deadline_s))
        temperature_c = cluster.thermal_model.temperature_c
        busy_w, idle_w = map(np.array, cluster.power_model.power_table(points, temperature_c))
        frame_idle_w = idle_w[0] if cluster.idle_at_min_opp else idle_w[indices]
        uncore_w = cluster.power_model.parameters.uncore_power_w
        energy = (
            busy_w[indices] * busy.sum(axis=1)
            + frame_idle_w * (interval[:, None] - busy).sum(axis=1)
            + uncore_w * interval
        )
        # A run starts from the fastest point (the cluster's reset state).
        previous = np.concatenate(([len(points) - 1], indices[:-1]))
        energy = energy + np.where(indices != previous, cluster.dvfs.transition_energy_j, 0.0)
        assert list(columns.energy_j) == energy.tolist()


class TestScheduleValidation:
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


class TestMeasureTrace:
    def test_matches_sequential_measure(self):
        from repro.platform.sensors import PowerSensor

        powers = [1.0, 2.5, 0.013, 4.2, 3.3]
        times = [0.04 * (i + 1) for i in range(5)]
        loop_sensor = PowerSensor()
        expected = [loop_sensor.measure_w(p, t) for p, t in zip(powers, times)]
        vector_sensor = PowerSensor()
        assert vector_sensor.measure_trace(powers, times) == expected

    def test_holdover_falls_back_to_loop(self):
        from repro.platform.sensors import PowerSensor

        # Gaps below the sample period force the scalar holdover logic.
        powers = [1.0, 2.0, 3.0]
        times = [0.0, 0.004, 0.008]
        loop_sensor = PowerSensor(sample_period_s=0.01)
        expected = [loop_sensor.measure_w(p, t) for p, t in zip(powers, times)]
        vector_sensor = PowerSensor(sample_period_s=0.01)
        assert vector_sensor.measure_trace(powers, times) == expected
        # The held-over readings all repeat the first conversion.
        assert expected[1] == expected[0] and expected[2] == expected[0]

    @pytest.mark.parametrize("resolution", [0.005, 0.0])
    def test_long_trace_readings_and_state_match_the_loop(self, resolution):
        """Quantised in one pass, 3000 readings (signed zeros and exact half
        steps included) and the sensor's final state equal the per-frame
        loop's, sign and type of every reading too."""
        from repro.platform.sensors import PowerSensor

        rng = random.Random(3)
        powers = [
            rng.choice((0.0, -0.0, 0.0025, 1.0075)) if i % 7 == 0 else rng.uniform(0.0, 6.0)
            for i in range(3000)
        ]
        times = list(accumulate(rng.uniform(0.02, 0.05) for _ in range(3000)))
        loop_sensor = PowerSensor(resolution_w=resolution)
        expected = [loop_sensor.measure_w(p, t) for p, t in zip(powers, times)]
        vector_sensor = PowerSensor(resolution_w=resolution)
        readings = vector_sensor.measure_trace(powers, times)
        assert list(map(repr, readings)) == list(map(repr, expected))
        assert set(map(type, readings)) == {float}
        assert vector_sensor.last_reading == loop_sensor.last_reading


class TestSyncCluster:
    def test_hands_over_transitions_point_and_clock(self):
        cluster = build_a15_cluster()
        transitions = [
            DVFSTransition(timestamp_s=0.0, from_index=18, to_index=3,
                           latency_s=1e-4, energy_j=2e-5),
            DVFSTransition(timestamp_s=0.04, from_index=3, to_index=5,
                           latency_s=1e-4, energy_j=2e-5),
        ]
        fastpath.sync_cluster(
            cluster, indices=[3, 5, 5], transitions=transitions, end_time_s=0.12
        )
        assert cluster.dvfs.transitions == transitions
        assert cluster.current_index == 5
        assert cluster.time_s == 0.12
        # The stored reading and the temperature are the engines' own to set.
        assert cluster.power_sensor.last_reading is None
        assert cluster.thermal_model.temperature_c == cluster.thermal_model.parameters.initial_c

    def test_refuses_to_move_the_clock_back(self):
        cluster = build_a15_cluster()
        cluster.advance_time_to(1.0)
        with pytest.raises(PlatformError, match="back"):
            fastpath.sync_cluster(cluster, indices=[0], transitions=[], end_time_s=0.5)
