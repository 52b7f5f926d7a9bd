"""One contract for every engine: each run equals the scalar reference's.

``scalar`` steps the cluster model one frame at a time and is the
reference.  Every other engine that
:func:`~repro.testing.parity.harness.eligible_engines` accepts for a
scenario runs the same scenario from fresh components, and
:func:`assert_matches_scalar` compares it with the ``scalar`` run.  Today
that is ``tablepath`` on every scenario, ``fastpath`` on the static
schedules of an isothermal cluster and ``jitpath`` (its kernels
interpreted when numba is absent, see the ``jit_on`` fixture) on
ondemand, conservative and the single-agent RL governor with a noiseless
sensor.  Adding or removing an engine needs no change to the test code.

The axes are every governor the paper compares plus ``multicore-dvfs``,
``userspace`` at index 9 and ``proposed-single`` at agent seeds 0, 1 and
2; four run configurations, one of them long enough for every learner to
converge; the thermal model off and on; sensor noise off and on; and a
fresh run, a second run of the application on the same cluster without a
reset, or a run after a short one (so the clock starts at a time the
run's own duration dwarfs).

Beside the result, the comparison covers the governor's learnt and
bookkeeping state: its decision snapshot, the overhead its last
``decide()`` left in ``processing_overhead_s``, and for a learner the RNG
position, ε and the stored exploiting flag, the exploration-phase length
and ``exploration_count``, the last update's policy-change flag, the slack
tracker's stored reads and history, every workload predictor's records,
the reward history and each Q-table row's greedy action (an engine that
writes a learner's state back, as ``jitpath`` does, must leave every one
of them as a scalar run does).

Everything is compared with ``==`` except ``fastpath``'s ``energy_j`` and
``average_power_w`` columns, which it sums in another order than the
scalar engine (factored per-core sums, pairwise over more than 8 cores):
they are held to ``rel=1e-9``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

import pytest

from repro.campaign import registry
from repro.campaign.spec import FactorySpec, ScenarioSpec
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.epoch import FRAME_COLUMN_NAMES
from repro.testing.parity.harness import eligible_engines, paper_governors
from repro.testing.parity.trace import REFERENCE_ENGINE, build_scenario_components

GOVERNORS: Dict[str, FactorySpec] = {
    **paper_governors(),
    "multicore-dvfs": FactorySpec.of("multicore-dvfs"),
    "userspace": FactorySpec.of("userspace", index=9),
    "proposed-single": FactorySpec.of("proposed-single"),
    "proposed-single-seed1": FactorySpec.of("proposed-single", seed=1),
    "proposed-single-seed2": FactorySpec.of("proposed-single", seed=2),
}

#: Run configuration -> (application, workload seed, engine configuration).
CONFIGURATIONS = {
    "mpeg4": (FactorySpec.of("mpeg4", num_frames=120), 5, SimulationConfig()),
    "mpeg4-long": (FactorySpec.of("mpeg4", num_frames=600), 7, SimulationConfig()),
    "fft-unpadded": (
        FactorySpec.of("fft", num_frames=100),
        2,
        SimulationConfig(idle_until_deadline=False),
    ),
    "mpeg4-no-overhead": (
        FactorySpec.of("mpeg4", num_frames=100),
        9,
        SimulationConfig(charge_governor_overhead=False),
    ),
}

#: The run's identity and learning summary beside its frame columns.
RESULT_FIELDS = (
    "governor_name",
    "application_name",
    "reference_time_s",
    "exploration_count",
    "converged_epoch",
)

#: Columns a static schedule sums in another order than the scalar engine.
FASTPATH_APPROX_COLUMNS = ("energy_j", "average_power_w")


class Run(NamedTuple):
    result: Any
    governor: Any
    cluster: Any


#: Frames of the run that precedes an ``after-short`` case's run.  After
#: 24 frames, adding a run's duration back onto its start time rounds to
#: another clock than the scalar engine's frame-by-frame additions for
#: several cases on each aggregate engine (e.g. ``oracle``, ``performance``
#: and ``conservative`` on ``mpeg4``), so an engine that moves the clock by
#: a duration instead of setting it to the time its loop reached fails.
SHORT_RUN_FRAMES = 24


def run_scenario(scenario: ScenarioSpec, engine: str, start: str) -> Run:
    """``scenario`` on ``engine`` from fresh components.

    ``start`` is ``"fresh"``, or names a first run on the same cluster:
    the application itself (``"again"``) or the same factory and seed at
    :data:`SHORT_RUN_FRAMES` frames (``"after-short"``).  A second, fresh
    governor then runs the application without a reset, so the clock,
    sensor, DVFS and thermal state the first run left behind carry into
    it; that second run is returned.
    """
    cluster, application, governor = build_scenario_components(scenario)
    simulation = SimulationEngine(cluster, scenario.config, engine=engine)
    if start != "fresh":
        first = application
        if start == "after-short":
            spec = scenario.application
            kwargs = {**spec.kwargs, "seed": scenario.seed, "num_frames": SHORT_RUN_FRAMES}
            first = registry.application_factory(spec.name)(**kwargs)
        simulation.run(first, governor)
        spec = scenario.governor
        governor = registry.governor_factory(spec.name)(**spec.kwargs)
    result = simulation.run(application, governor, reset_cluster=start == "fresh")
    assert result.engine_used == engine
    return Run(result, governor, cluster)


def predictor_histories(governor: RLGovernor) -> List[Any]:
    """Every workload predictor's records."""
    if isinstance(governor, MultiCoreRLGovernor):
        predictors = governor.core_predictors
    else:
        predictors = [governor.predictor]
    return [p.records for p in predictors]


def assert_matches_scalar(run: Run, reference: Run, engine: str) -> None:
    """``run`` on ``engine`` left the same result and state as ``reference``."""
    result, expected = run.result, reference.result
    for name in RESULT_FIELDS:
        assert getattr(result, name) == getattr(expected, name), (engine, name)
    for name in FRAME_COLUMN_NAMES:
        column = list(getattr(result.columns, name))
        expected_column = list(getattr(expected.columns, name))
        if engine == "fastpath" and name in FASTPATH_APPROX_COLUMNS:
            assert column == pytest.approx(expected_column, rel=1e-9), (engine, name)
        else:
            assert column == expected_column, (engine, name)

    assert run.governor.decision_state() == reference.governor.decision_state(), engine
    assert (
        run.governor.processing_overhead_s == reference.governor.processing_overhead_s
    ), engine
    if isinstance(reference.governor, RLGovernor):
        agent, expected_agent = run.governor.agent, reference.governor.agent
        assert agent._rng.getstate() == expected_agent._rng.getstate(), engine
        assert agent.epsilon == expected_agent.epsilon, engine
        assert (
            agent.epsilon_schedule.is_exploiting
            == expected_agent.epsilon_schedule.is_exploiting
        ), engine
        assert (
            agent.exploration_phase_length == expected_agent.exploration_phase_length
        ), engine
        table, expected_table = agent.qtable, expected_agent.qtable
        assert [table.best_action(state) for state in range(table.num_states)] == [
            expected_table.best_action(state) for state in range(expected_table.num_states)
        ], engine
        assert run.governor.reward_history == reference.governor.reward_history, engine
        # The per-epoch reads decide() leaves in plain attributes: an engine
        # that writes a learner back must set each of them.
        assert run.governor.exploration_count == reference.governor.exploration_count, engine
        assert (
            agent.last_update_changed_policy == expected_agent.last_update_changed_policy
        ), engine
        tracker, expected_tracker = run.governor.slack_tracker, reference.governor.slack_tracker
        for name in ("slack_delta", "last_instantaneous_slack", "average_slack", "history"):
            assert getattr(tracker, name) == getattr(expected_tracker, name), (engine, name)
        assert predictor_histories(run.governor) == predictor_histories(
            reference.governor
        ), engine

    cluster, expected_cluster = run.cluster, reference.cluster
    assert cluster.dvfs.transitions == expected_cluster.dvfs.transitions, engine
    assert cluster.current_index == expected_cluster.current_index, engine
    assert cluster.time_s == expected_cluster.time_s, engine
    assert (
        cluster.power_sensor.last_reading == expected_cluster.power_sensor.last_reading
    ), engine
    thermal, expected_thermal = cluster.thermal_model, expected_cluster.thermal_model
    assert thermal.temperature_c == expected_thermal.temperature_c, engine
    assert thermal.throttle_events == expected_thermal.throttle_events, engine


@pytest.mark.parametrize("start", ["fresh", "again", "after-short"])
@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("thermal", [False, True], ids=["iso", "thermal"])
@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("governor", sorted(GOVERNORS))
def test_matches_scalar(jit_on, governor, configuration, thermal, noise, start):
    application, seed, config = CONFIGURATIONS[configuration]
    cluster = {"enable_thermal": thermal}
    if noise:
        cluster.update(sensor_noise_w=0.05, seed=42)
    scenario = ScenarioSpec(
        label=governor,
        application=application,
        governor=GOVERNORS[governor],
        cluster=FactorySpec.of("a15", **cluster),
        config=config,
        seed=seed,
    )
    engines = eligible_engines(scenario)
    assert REFERENCE_ENGINE in engines and len(engines) > 1, engines
    runs = {engine: run_scenario(scenario, engine, start) for engine in engines}
    reference = runs.pop(REFERENCE_ENGINE)
    # The scenario exercises what it names: the junction temperature moves
    # exactly when the thermal model is on, no overhead is charged when
    # charging is off, a learner explores, and over the long run every
    # learner reaches its ε floor and converges.
    expected = reference.result
    assert (len(set(expected.columns.temperature_c)) > 1) == thermal
    if not config.charge_governor_overhead:
        assert expected.total_overhead_s == 0.0
    if isinstance(reference.governor, RLGovernor):
        assert expected.exploration_count > 0
        if configuration == "mpeg4-long":
            assert reference.governor.agent.epsilon_schedule.is_exploiting
            assert expected.converged_epoch is not None
    for engine, run in runs.items():
        assert_matches_scalar(run, reference, engine)
