"""Bit-identity, negotiation and routing tests for the compiled JIT backend.

numba is *not* required here: the kernels in :mod:`repro.sim.jitpath` are
plain Python functions that numba compiles when importable, so with
:data:`repro._compat.HAVE_NUMBA` monkeypatched True they execute in
interpreted mode through exactly the statements the compiled path runs.
That makes the bit-identity contract testable on any box; the CI ``jit``
job additionally proves the compiled mode (same kernels, numba-compiled)
against the parity goldens.

Covers:

* exact equality — trajectories, per-frame floats, exploration sets,
  Q-tables, visit counts, RNG stream position, transitions, cluster and
  sensor state — against ``tablepath`` for every
  supported governor family x {isothermal, thermal} x RL seeds;
* a jitpath-pinned sharded campaign == the unsharded campaign;
* negotiation: ``auto`` prefers jitpath exactly when it is available and
  the request is kernel-supported, falls through to the pre-PR selection
  otherwise (numba absent, ``REPRO_DISABLE_JIT``, governor subclasses,
  noisy sensors), and a pinned ``jitpath`` mismatch is a
  clear :class:`~repro.errors.SimulationError`;
* the parity harness's ``eligible_engines`` includes jitpath as soon as
  it is available — no harness edits.
"""

from __future__ import annotations

import pytest

numpy = pytest.importorskip("numpy")

from repro import _compat
from repro.campaign import CampaignSpec, FactorySpec, ScenarioSpec, run_campaign
from repro.errors import SimulationError
from repro.governors.conservative import ConservativeGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.governor import PlatformInfo
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.sim import backends, jitpath
from repro.sim.backends import EngineRequest
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.testing.parity.harness import eligible_engines
from repro.workload.video import mpeg4_application
from tests.conftest import merged_bytes, saved_bytes

FRAMES = 240

#: Every FrameColumns field, compared with ``==`` (never approx): the
#: compiled path's contract is bit-identity, not tolerance.
COLUMN_FIELDS = (
    "index",
    "operating_index",
    "frequency_mhz",
    "cycles_per_core",
    "busy_time_s",
    "overhead_time_s",
    "frame_time_s",
    "interval_s",
    "deadline_s",
    "energy_j",
    "average_power_w",
    "measured_power_w",
    "temperature_c",
    "explored",
)

GOVERNOR_FACTORIES = {
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "rl-seed0": lambda: RLGovernor(RLGovernorConfig(seed=0)),
    "rl-seed1": lambda: RLGovernor(RLGovernorConfig(seed=1)),
    "rl-seed2": lambda: RLGovernor(RLGovernorConfig(seed=2)),
}


@pytest.fixture
def jit_on(monkeypatch):
    """Make jitpath negotiable (interpreted kernels when numba is absent)."""
    monkeypatch.setattr(_compat, "HAVE_NUMBA", True)
    monkeypatch.delenv("REPRO_DISABLE_JIT", raising=False)


@pytest.fixture
def jit_off(monkeypatch):
    monkeypatch.setattr(_compat, "HAVE_NUMBA", False)
    monkeypatch.delenv("REPRO_DISABLE_JIT", raising=False)


def _run_engine(engine_name, factory, thermal, num_frames=FRAMES):
    application = mpeg4_application(num_frames=num_frames, seed=5)
    cluster = build_a15_cluster(enable_thermal=thermal)
    governor = factory()
    engine = SimulationEngine(cluster, SimulationConfig(), engine=engine_name)
    result = engine.run(application, governor)
    assert result.engine_used == engine_name
    return result, governor, cluster


def _assert_identical(reference, jit):
    ref_result, ref_governor, ref_cluster = reference
    jit_result, jit_governor, jit_cluster = jit
    for field in COLUMN_FIELDS:
        assert getattr(jit_result.columns, field) == getattr(
            ref_result.columns, field
        ), field
    assert jit_result.exploration_count == ref_result.exploration_count
    assert jit_result.converged_epoch == ref_result.converged_epoch
    assert jit_cluster.dvfs.transitions == ref_cluster.dvfs.transitions
    assert jit_cluster.time_s == ref_cluster.time_s
    assert jit_cluster.total_energy_j == ref_cluster.total_energy_j
    assert jit_cluster.current_index == ref_cluster.current_index
    assert (
        jit_cluster.thermal_model.temperature_c
        == ref_cluster.thermal_model.temperature_c
    )
    ref_sensor, jit_sensor = ref_cluster.power_sensor, jit_cluster.power_sensor
    assert jit_sensor._last_time_s == ref_sensor._last_time_s
    assert jit_sensor._last_power_w == ref_sensor._last_power_w
    assert jit_governor.decision_state() == ref_governor.decision_state()
    if isinstance(ref_governor, RLGovernor):
        ref_agent, jit_agent = ref_governor.agent, jit_governor.agent
        assert jit_agent.qtable._values == ref_agent.qtable._values
        assert jit_agent.qtable._visit_counts == ref_agent.qtable._visit_counts
        assert jit_agent._rng.getstate() == ref_agent._rng.getstate()
        assert (
            jit_agent.epsilon_schedule._epsilon
            == ref_agent.epsilon_schedule._epsilon
        )
        assert jit_governor.reward_history == ref_governor.reward_history


class TestBitIdentity:
    @pytest.mark.parametrize("thermal", [False, True], ids=["iso", "thermal"])
    @pytest.mark.parametrize("name", sorted(GOVERNOR_FACTORIES))
    def test_matches_table_engines_exactly(self, jit_on, name, thermal):
        factory = GOVERNOR_FACTORIES[name]
        reference = _run_engine("tablepath", factory, thermal)
        jit = _run_engine("jitpath", factory, thermal)
        _assert_identical(reference, jit)


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

    def test_without_numba_selection_is_pre_pr(self, jit_off):
        assert backends.negotiate(_request()) == "tablepath"
        thermal = build_a15_cluster(enable_thermal=True)
        assert backends.negotiate(_request(cluster=thermal)) == "tablepath"

    def test_without_numba_pin_is_clear_error(self, jit_off):
        with pytest.raises(SimulationError, match="numba"):
            backends.negotiate(_request(), engine="jitpath")

    def test_kill_switch_disables_negotiation(self, jit_on, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_JIT", "1")
        assert not jitpath.available()
        assert backends.negotiate(_request()) == "tablepath"
        with pytest.raises(SimulationError, match="REPRO_DISABLE_JIT"):
            backends.negotiate(_request(), engine="jitpath")

    def test_kill_switch_zero_means_enabled(self, jit_on, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_JIT", "0")
        assert jitpath.available()

    def test_parity_matrix_gains_jitpath_when_available(self, jit_on):
        names = eligible_engines(_ondemand_scenario())
        assert "jitpath" in names
        assert names.index("jitpath") < names.index("tablepath")

    def test_parity_matrix_without_numba_is_pre_pr(self, jit_off):
        assert eligible_engines(_ondemand_scenario()) == ["tablepath", "scalar"]


class TestUnsupportedReason:
    def test_rejects_instance_overridden_overhead(self, jit_on):
        governor = OndemandGovernor()
        governor.processing_overhead_s = 0.25
        reason = jitpath.unsupported_reason(build_a15_cluster(), governor)
        assert reason is not None and "processing_overhead_s" in reason

    def test_rejects_recording_sensors(self, jit_on):
        cluster = build_a15_cluster(record_history=True)
        reason = jitpath.unsupported_reason(cluster, OndemandGovernor())
        assert reason is not None and "history" in reason

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
