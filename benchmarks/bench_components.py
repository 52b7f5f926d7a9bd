"""Micro-benchmarks of the library's hot components.

These are conventional pytest-benchmark timing benches (many rounds) for the
pieces that run once per decision epoch on the real platform, where the
paper's overhead argument (Section III-D) lives: a learner's whole
``decide()`` replayed over a recorded run, the EWMA prediction, the
power-model evaluation and a full simulated decision epoch.  They document
that the per-epoch processing cost of the RTM is tiny compared to a frame
period.  The README's per-epoch learner cost comes from::

    PYTHONPATH=src python -m pytest benchmarks/bench_components.py -k decide_replay
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import FactorySpec, ScenarioSpec, governor_factory, run_scenario
from repro.platform.odroid_xu3 import A15_VF_TABLE, build_a15_cluster
from repro.platform.power import PowerModel
from repro.rtm.exploration import ExponentialPolicy
from repro.rtm.prediction import EWMAPredictor
from repro.rtm import MultiCoreRLGovernor
from repro.sim import SimulationEngine
from repro.workload.video import h264_football_application

import random


#: The learners whose per-epoch ``decide()`` cost the README quotes.
REPLAY_GOVERNORS = ("proposed", "proposed-single", "shen-upd")
#: Frames of the recorded ``h264-football`` run (299 observations).
REPLAY_FRAMES = 300


def _recorded_observations(governor_name: str):
    """The observations ``governor_name`` sees in a 300-frame ``h264-football`` run.

    Engines reuse one observation object, so each is copied as it arrives.
    """
    governor = governor_factory(governor_name)()
    decide = governor.decide
    recorded = []

    def recording_decide(previous, hint=None):
        if previous is not None:
            recorded.append(replace(previous))
        return decide(previous, hint)

    governor.decide = recording_decide
    application = h264_football_application(num_frames=REPLAY_FRAMES)
    SimulationEngine(build_a15_cluster()).run(application, governor)
    assert len(recorded) == REPLAY_FRAMES - 1
    return application.requirement, recorded


@pytest.mark.parametrize("governor_name", REPLAY_GOVERNORS)
def test_bench_decide_replay(benchmark, governor_name):
    """Per-epoch ``decide()`` cost of a learner, replaying a recorded run.

    Each round sets up a fresh governor, makes its first decision, then
    times the 299 recorded observations.  ``extra_info`` holds the best
    round's cost per ``decide()`` in microseconds.
    """
    requirement, observations = _recorded_observations(governor_name)
    platform = SimulationEngine(build_a15_cluster()).platform_info()
    factory = governor_factory(governor_name)

    def fresh_governor():
        governor = factory()
        governor.setup(platform, requirement)
        governor.decide(None)
        return (governor,), {}

    def replay(governor):
        decide = governor.decide
        for observation in observations:
            decide(observation)

    benchmark.pedantic(replay, setup=fresh_governor, rounds=60, iterations=1)
    if benchmark.stats is not None:
        best_s = benchmark.stats.stats.min
        benchmark.extra_info["per_decide_us"] = best_s / len(observations) * 1e6


def test_bench_ewma_prediction(benchmark):
    predictor = EWMAPredictor(gamma=0.6)
    values = [2.5e7 + 1e6 * (i % 7) for i in range(64)]

    def step():
        for value in values:
            predictor.observe(value)

    benchmark(step)


def test_bench_power_model(benchmark):
    model = PowerModel()
    points = list(A15_VF_TABLE)

    uncore_w = model.parameters.uncore_power_w

    def step():
        total = 0.0
        for point in points:
            for utilisation in (1.0, 0.7, 0.5, 0.2):
                total += model.core_power_w(point, utilisation)
            total += uncore_w
        return total

    benchmark(step)


def test_bench_epd_sampling(benchmark):
    policy = ExponentialPolicy(beta=12.0)
    rng = random.Random(3)
    frequencies = A15_VF_TABLE.frequencies_hz

    def step():
        return policy.sample(len(frequencies), frequencies, slack=0.2, rng=rng)

    benchmark(step)


def test_bench_full_epoch(benchmark):
    """One complete simulated decision epoch (decide + execute + account)."""
    cluster = build_a15_cluster()
    engine = SimulationEngine(cluster)
    application = h264_football_application(num_frames=64)
    governor = MultiCoreRLGovernor()

    def run():
        return engine.run(application, governor)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_run_scenario(benchmark):
    """Campaign-layer overhead: one scenario built from spec, end to end."""
    scenario = ScenarioSpec(
        label="bench",
        application=FactorySpec.of("h264-football", num_frames=64),
        governor=FactorySpec.of("proposed"),
    )

    def run():
        return run_scenario(scenario)

    benchmark.pedantic(run, rounds=3, iterations=1)
