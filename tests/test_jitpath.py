"""Negotiation, routing and write-back tests for the compiled JIT backend.

numba is *not* required here: the kernels in :mod:`repro.sim.jitpath` are
plain Python functions that numba compiles when importable, so with
:data:`repro._compat.HAVE_NUMBA` monkeypatched True (the ``jit_on``
fixture) they execute in interpreted mode through exactly the statements
the compiled path runs.  The CI ``jit`` job additionally proves the
compiled mode (same kernels, numba-compiled) against the parity goldens.

Its bit-identity with the scalar engine (columns, exploration, Q-tables,
RNG stream, transitions, cluster, sensor and thermal state) is part of
``tests/test_engine_equivalence.py``.  This file covers:

* the learning state the kernel writes back (slack tracker, predictor);
* a jitpath-pinned sharded campaign == the unsharded campaign;
* negotiation: ``auto`` prefers jitpath exactly when it is available and
  the request is kernel-supported, falls through otherwise (numba absent,
  ``REPRO_DISABLE_JIT``, governor subclasses, noisy sensors), and a pinned
  ``jitpath`` mismatch is a clear :class:`~repro.errors.SimulationError`;
* the parity harness's ``eligible_engines`` includes jitpath as soon as
  it is available — no harness edits.
"""

from __future__ import annotations

import pytest

numpy = pytest.importorskip("numpy")

from repro import _compat
from repro.campaign import CampaignSpec, FactorySpec, ScenarioSpec, run_campaign
from repro.campaign.registry import governor_factory
from repro.errors import SimulationError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.governor import PlatformInfo
from repro.rtm.rl_governor import RLGovernor
from repro.sim import backends, jitpath
from repro.sim.backends import EngineRequest
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.testing.parity.harness import eligible_engines
from repro.workload.video import mpeg4_application
from tests.conftest import merged_bytes, saved_bytes

FRAMES = 240


@pytest.fixture
def jit_off(monkeypatch):
    monkeypatch.setattr(_compat, "HAVE_NUMBA", False)
    monkeypatch.delenv("REPRO_DISABLE_JIT", raising=False)


def _run_governor(engine_name, factory):
    """A fresh governor from ``factory`` after a run on ``engine_name``."""
    governor = factory()
    engine = SimulationEngine(build_a15_cluster(), SimulationConfig(), engine=engine_name)
    result = engine.run(mpeg4_application(num_frames=FRAMES, seed=5), governor)
    assert result.engine_used == engine_name
    return governor


class TestLearningStateWriteBack:
    """The kernel's write-back leaves the tracker and predictor readable.

    jitpath computes the slack chain in the kernel and writes the result
    back into the governor's :class:`~repro.rtm.rewards.SlackTracker`; the
    reads a probe or a caller makes afterwards must equal tablepath's.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tracker_and_predictor_reads_match_tablepath(self, jit_on, seed):
        factory = lambda: governor_factory("proposed-single")(seed=seed)
        reference = _run_governor("tablepath", factory)
        jit = _run_governor("jitpath", factory)
        ref_tracker, jit_tracker = reference.slack_tracker, jit.slack_tracker
        assert ref_tracker.epochs == FRAMES - 1
        for read in (
            "slack_delta",
            "last_instantaneous_slack",
            "average_slack",
            "epochs",
            "history",
        ):
            assert getattr(jit_tracker, read) == getattr(ref_tracker, read), read
        assert ref_tracker.slack_delta != 0.0
        assert ref_tracker.last_instantaneous_slack != 0.0
        assert jit.predictor.records == reference.predictor.records
        assert jit.predictor.records
        # Both trackers keep updating identically from the restored state.
        for tracker in (ref_tracker, jit_tracker):
            tracker.update(0.9 * tracker.reference_time_s, 0.0)
        assert jit_tracker.slack_delta == ref_tracker.slack_delta
        assert jit_tracker.history == ref_tracker.history


def _jit_campaign():
    return CampaignSpec.from_grid(
        "jit-shards",
        applications=[FactorySpec.of("mpeg4", num_frames=120)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "conservative": FactorySpec.of("conservative"),
            "rl": FactorySpec.of("proposed-single"),
        },
        seeds=(1, 2),
        engine="jitpath",
    )


class TestCampaignRouting:
    def test_sharded_campaign_merges_to_unsharded(self, jit_on):
        campaign = _jit_campaign()
        unsharded = run_campaign(campaign)
        assert all(
            outcome.result.engine_used == "jitpath"
            for outcome in unsharded.outcomes.values()
        )
        shards = [run_campaign(campaign.shard(i, 2)) for i in range(2)]
        assert merged_bytes(shards, spec=campaign) == saved_bytes(unsharded)


def _request(governor=None, cluster=None):
    cluster = cluster or build_a15_cluster()
    application = mpeg4_application(num_frames=10, seed=1)
    governor = governor or OndemandGovernor()
    governor.setup(
        PlatformInfo(num_cores=cluster.num_cores, vf_table=cluster.vf_table),
        application.requirement,
    )
    return EngineRequest(
        cluster=cluster,
        application=application,
        governor=governor,
        config=SimulationConfig(),
    )


def _ondemand_scenario():
    return ScenarioSpec(
        label="probe",
        application=FactorySpec.of("mpeg4", num_frames=10),
        governor=FactorySpec.of("ondemand"),
    )


class TestNegotiation:
    def test_auto_prefers_jitpath_when_available(self, jit_on):
        assert backends.negotiate(_request()) == "jitpath"
        thermal = build_a15_cluster(enable_thermal=True)
        assert backends.negotiate(_request(RLGovernor(), thermal)) == "jitpath"

    def test_unsupported_requests_fall_through(self, jit_on):
        # Subclasses may override hooks the kernel inlines.
        assert backends.negotiate(_request(ShenRLGovernor())) == "tablepath"
        # Gaussian sensor noise cannot be replicated in-kernel.
        noisy = build_a15_cluster(sensor_noise_w=0.01)
        assert backends.negotiate(_request(cluster=noisy)) == "tablepath"

    def test_without_numba_pin_is_clear_error(self, jit_off):
        with pytest.raises(SimulationError, match="numba"):
            backends.negotiate(_request(), engine="jitpath")

    def test_kill_switch_disables_negotiation(self, jit_on, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_JIT", "1")
        reason = backends.rejection_reason("jitpath", _request())
        assert reason is not None and "REPRO_DISABLE_JIT" in reason
        assert backends.negotiate(_request()) == "tablepath"
        with pytest.raises(SimulationError, match="REPRO_DISABLE_JIT"):
            backends.negotiate(_request(), engine="jitpath")

    def test_kill_switch_zero_means_enabled(self, jit_on, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_JIT", "0")
        assert backends.rejection_reason("jitpath", _request()) is None

    def test_parity_matrix_gains_jitpath_when_available(self, jit_on):
        names = eligible_engines(_ondemand_scenario())
        assert "jitpath" in names
        assert names.index("jitpath") < names.index("tablepath")


class TestUnsupportedReason:
    def test_rejects_instance_overridden_overhead(self, jit_on):
        governor = OndemandGovernor()
        governor.processing_overhead_s = 0.25
        reason = jitpath.unsupported_reason(build_a15_cluster(), governor)
        assert reason is not None and "processing_overhead_s" in reason

    def test_accepts_paper_defaults(self, jit_on):
        assert jitpath.unsupported_reason(build_a15_cluster(), RLGovernor()) is None

    def test_simulate_rejects_unsupported(self, jit_on):
        cluster = build_a15_cluster(sensor_noise_w=0.01)
        application = mpeg4_application(num_frames=10, seed=1)
        governor = OndemandGovernor()
        cluster.reset(0)
        governor.setup(
            PlatformInfo(num_cores=cluster.num_cores, vf_table=cluster.vf_table),
            application.requirement,
        )
        with pytest.raises(SimulationError, match="noise"):
            jitpath.simulate_closed_loop(
                cluster, application, governor, SimulationConfig()
            )
