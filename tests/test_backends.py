"""Tests for the engine backend registry, capability negotiation and wiring.

The contract under test: engine selection goes through the registry in
:mod:`repro.sim.backends` only — a third-party backend registers and
participates in negotiation without touching ``sim/engine.py`` — explicit
engine requests are validated against declared capabilities with clear
errors, and the selection outcome is recorded uniformly as
``SimulationResult.engine_used`` through the engine, the campaign layer,
the CLI and the summary report.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim import backends, scalarpath
from repro.sim.backends import (
    BackendCapabilities,
    EngineBackend,
    EngineRequest,
    backend_names,
    capability_matrix,
    negotiate,
    register_backend,
    unregister_backend,
)
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.results import SimulationResult
from repro.workload.video import mpeg4_application

numpy = pytest.importorskip("numpy")


def _request(governor=None, cluster=None, config=None):
    cluster = cluster or build_a15_cluster()
    application = mpeg4_application(num_frames=10, seed=1)
    governor = governor or OndemandGovernor()
    # Mirror SimulationEngine.run: the governor is set up before negotiation
    # (the static-schedule probe needs the platform binding).
    governor.setup(
        SimulationEngine(cluster).platform_info(), application.requirement
    )
    return EngineRequest(
        cluster=cluster,
        application=application,
        governor=governor,
        config=config or SimulationConfig(),
    )


class TestRegistry:
    def test_builtin_backends_in_priority_order(self):
        assert backend_names() == [
            "fastpath",
            "jitpath",
            "tablepath",
            "scalar",
        ]

    def test_capability_matrix(self):
        matrix = capability_matrix()
        assert matrix["scalar"] == BackendCapabilities(
            supports_thermal=True, supports_trace_capture=True
        )
        assert all(
            capabilities.supports_trace_capture
            for capabilities in matrix.values()
        )
        assert matrix["fastpath"].requires_static_schedule
        assert not matrix["fastpath"].supports_thermal
        assert matrix["tablepath"].supports_tables
        assert matrix["tablepath"].supports_thermal
        assert matrix["jitpath"].supports_thermal
        assert matrix["jitpath"].supports_tables

    def test_unknown_backend_rejected_with_names(self):
        with pytest.raises(SimulationError, match="registered backends"):
            backends.backend("warp-drive")

    def test_duplicate_and_invalid_registration_rejected(self):
        class Dup(EngineBackend):
            name = "scalar"

            def run(self, request):  # pragma: no cover - never invoked
                raise AssertionError

        with pytest.raises(SimulationError, match="already registered"):
            register_backend(Dup())

        class Nameless(Dup):
            name = ""

        with pytest.raises(SimulationError, match="invalid engine backend name"):
            register_backend(Nameless())
        with pytest.raises(SimulationError):
            unregister_backend("warp-drive")


@contextmanager
def _temporarily_registered(*entries: EngineBackend):
    """Register backends for one test, guaranteeing unregistration.

    Yields the registered backends; on exit every one still present is
    removed, so a failing assertion cannot leak registry state into the
    next test.
    """
    registered = []
    try:
        for entry in entries:
            register_backend(entry)
            registered.append(entry)
        yield entries
    finally:
        for entry in reversed(registered):
            try:
                unregister_backend(entry.name)
            except SimulationError:  # pragma: no cover - already removed
                pass


def _accepting_backend(name, priority):
    """A uniquely-typed accept-everything backend for negotiation tests."""

    class _Probe(EngineBackend):
        capabilities = BackendCapabilities(supports_thermal=True)

        def run(self, request):  # pragma: no cover - negotiation only
            raise AssertionError

    _Probe.name = name
    _Probe.priority = priority
    return _Probe()


class TestNegotiationOrder:
    def test_equal_priority_ties_break_by_registration_order(self):
        """Two backends at the same priority: the earlier registration wins."""
        first = _accepting_backend("tie-first", 99)
        second = _accepting_backend("tie-second", 99)
        with _temporarily_registered(first, second):
            assert negotiate(_request()).name == "tie-first"
            names = backend_names()
            assert names.index("tie-first") < names.index("tie-second")

    def test_unregister_restores_prior_negotiation_order(self):
        """Removing a winning backend falls negotiation back to the next one,
        and removing both restores the built-in order exactly."""
        baseline = backend_names()
        winner = _accepting_backend("pre-empt", 99)
        runner_up = _accepting_backend("runner-up", 98)
        with _temporarily_registered(winner, runner_up):
            assert negotiate(_request()).name == "pre-empt"
            unregister_backend("pre-empt")
            assert negotiate(_request()).name == "runner-up"
            unregister_backend("runner-up")
            assert backend_names() == baseline
            assert negotiate(_request()).name == "tablepath"
        assert backend_names() == baseline


class _RecordingBackend(EngineBackend):
    """A third-party backend: accepts everything, delegates to the scalar loop."""

    name = "recording"
    capabilities = BackendCapabilities(supports_thermal=True)
    priority = 99  # out-prioritise every built-in

    def __init__(self):
        self.calls = 0

    def run(self, request):
        self.calls += 1
        return scalarpath.simulate_scalar(
            request.cluster, request.application, request.governor, request.config
        )


class TestThirdPartyBackend:
    def test_registered_backend_wins_negotiation_without_engine_edits(self):
        backend = register_backend(_RecordingBackend())
        try:
            engine = SimulationEngine(build_a15_cluster())
            result = engine.run(
                mpeg4_application(num_frames=10, seed=1), OndemandGovernor()
            )
            assert backend.calls == 1
            assert result.engine_used == "recording"
            assert engine.engine_used == "recording"
        finally:
            unregister_backend("recording")
        # After unregistration, auto negotiation reverts to the built-ins.
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(mpeg4_application(num_frames=10, seed=1), OndemandGovernor())
        assert result.engine_used == "tablepath"

    def test_explicit_request_for_registered_backend(self):
        backend = register_backend(_RecordingBackend())
        try:
            engine = SimulationEngine(build_a15_cluster(), engine="recording")
            result = engine.run(
                mpeg4_application(num_frames=10, seed=1), OracleGovernor()
            )
            assert backend.calls == 1
            assert result.engine_used == "recording"
        finally:
            unregister_backend("recording")


class TestNegotiation:
    def test_auto_prefers_fastest_eligible(self):
        assert negotiate(_request(OracleGovernor())).name == "fastpath"
        assert negotiate(_request(OndemandGovernor())).name == "tablepath"
        thermal = build_a15_cluster(enable_thermal=True)
        assert negotiate(_request(OndemandGovernor(), thermal)).name == "tablepath"
        assert negotiate(_request(OracleGovernor(), thermal)).name == "tablepath"

    def test_prefer_fast_path_false_maps_to_scalar(self):
        config = SimulationConfig(prefer_fast_path=False)
        assert negotiate(_request(config=config)).name == "scalar"

    def test_explicit_capability_mismatch_is_a_clear_error(self):
        with pytest.raises(SimulationError, match="static schedule"):
            negotiate(_request(OndemandGovernor()), engine="fastpath")
        thermal = build_a15_cluster(enable_thermal=True)
        with pytest.raises(SimulationError, match="thermal"):
            negotiate(_request(OracleGovernor(), thermal), engine="fastpath")

    def test_numpy_seam_is_per_backend(self, monkeypatch):
        """Disabling one engine module's numpy rejects only that backend."""
        from repro.sim import tablepath

        monkeypatch.setattr(tablepath, "_np", None)
        assert negotiate(_request(OndemandGovernor())).name == "scalar"
        assert negotiate(_request(OracleGovernor())).name == "fastpath"
        thermal = build_a15_cluster(enable_thermal=True)
        assert negotiate(_request(OndemandGovernor(), thermal)).name == "scalar"

    def test_failed_negotiation_clears_engine_used(self):
        application = mpeg4_application(num_frames=10, seed=1)
        engine = SimulationEngine(build_a15_cluster())
        engine.run(application, OndemandGovernor())
        assert engine.engine_used == "tablepath"
        engine.engine = "fastpath"  # ondemand exposes no static schedule
        with pytest.raises(SimulationError):
            engine.run(application, OndemandGovernor())
        assert engine.engine_used is None

    def test_static_schedule_probed_once(self):
        class CountingOracle(OracleGovernor):
            probes = 0

            def static_schedule(self, application):
                type(self).probes += 1
                return super().static_schedule(application)

        governor = CountingOracle()
        engine = SimulationEngine(build_a15_cluster())
        engine.run(mpeg4_application(num_frames=10, seed=1), governor)
        assert CountingOracle.probes == 1

    def test_scalar_request_skips_schedule_probe(self):
        class NeverProbed(OracleGovernor):
            def static_schedule(self, application):  # pragma: no cover - guard
                raise AssertionError("scalar runs must not probe the schedule")

        engine = SimulationEngine(build_a15_cluster(), engine="scalar")
        result = engine.run(mpeg4_application(num_frames=10, seed=1), NeverProbed())
        assert result.engine_used == "scalar"


class TestEngineUsedReporting:
    @pytest.mark.parametrize(
        "engine_name, governor_factory",
        [
            ("scalar", OndemandGovernor),
            ("tablepath", OndemandGovernor),
            ("fastpath", OracleGovernor),
        ],
    )
    def test_result_is_stamped(self, engine_name, governor_factory):
        engine = SimulationEngine(build_a15_cluster(), engine=engine_name)
        result = engine.run(mpeg4_application(num_frames=10, seed=1), governor_factory())
        assert result.engine_used == engine_name
        assert engine.engine_used == engine_name

    def test_result_aliases_removed(self):
        # The deprecated last_used_* aliases are gone from both the result
        # and the engine; engine_used is the one source of truth.
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(mpeg4_application(num_frames=10, seed=1), OndemandGovernor())
        assert result.engine_used == "tablepath"
        for owner in (result, engine):
            assert not hasattr(owner, "last_used_table_path")
            assert not hasattr(owner, "last_used_fast_path")

    def test_engine_used_round_trips_through_json(self):
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(mpeg4_application(num_frames=10, seed=1), OndemandGovernor())
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.engine_used == "tablepath"
        assert clone == result

    def test_hand_built_results_have_no_engine(self):
        result = SimulationResult("g", "a", 0.04)
        assert result.engine_used == ""
        assert "engine_used" not in result.to_dict()


class TestScenarioSpecEngine:
    def _scenario(self, engine="auto"):
        from repro.campaign.spec import FactorySpec, ScenarioSpec

        return ScenarioSpec(
            label="probe",
            application=FactorySpec.of("mpeg4", num_frames=10),
            governor=FactorySpec.of("ondemand"),
            engine=engine,
        )

    def test_engine_request_does_not_change_scenario_identity(self):
        """Every backend produces the same numbers, so the engine pin is
        not part of the scenario's content hash — shard outputs produced
        under --engine keep merging/resuming against the original spec."""
        auto = self._scenario()
        assert "engine" not in auto.to_dict()
        pinned = self._scenario("scalar")
        assert pinned.to_dict()["engine"] == "scalar"
        assert auto.scenario_id == pinned.scenario_id

    def test_round_trip(self):
        from repro.campaign.spec import ScenarioSpec

        pinned = self._scenario("tablepath")
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(pinned.to_dict())))
        assert clone == pinned
        assert clone.engine == "tablepath"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            self._scenario(engine="")

    def test_run_scenario_honours_engine(self):
        from repro.campaign.executor import run_scenario

        outcome = run_scenario(self._scenario("scalar"))
        assert outcome.result.engine_used == "scalar"
        outcome = run_scenario(self._scenario())
        assert outcome.result.engine_used == "tablepath"

    def test_capability_mismatch_becomes_failed_outcome(self):
        from repro.campaign.executor import run_scenario_safely

        outcome = run_scenario_safely(self._scenario("fastpath"))
        assert not outcome.ok
        assert "static schedule" in outcome.error

    def test_from_grid_engine_passthrough(self):
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign = CampaignSpec.from_grid(
            name="grid",
            applications=[FactorySpec.of("mpeg4", num_frames=10)],
            governors=[FactorySpec.of("ondemand")],
            engine="scalar",
        )
        assert all(scenario.engine == "scalar" for scenario in campaign)


class TestCliEngineFlag:
    def _write_spec(self, tmp_path):
        from repro.campaign.spec import CampaignSpec, FactorySpec

        campaign = CampaignSpec.from_grid(
            name="cli-engine",
            applications=[FactorySpec.of("mpeg4", num_frames=10)],
            governors=[FactorySpec.of("ondemand"), FactorySpec.of("oracle")],
            seeds=[3],
        )
        spec_path = tmp_path / "spec.json"
        campaign.save(str(spec_path))
        return spec_path

    def test_engine_override_applies_to_every_scenario(self, tmp_path, capsys):
        from repro.campaign.cli import main
        from repro.campaign.results import CampaignResult

        spec_path = self._write_spec(tmp_path)
        output = tmp_path / "results.json"
        exit_code = main(
            [str(spec_path), "--engine", "scalar", "--output", str(output), "--quiet"]
        )
        assert exit_code == 0
        store = CampaignResult.load(str(output))
        assert all(o.result.engine_used == "scalar" for o in store)
        assert all(o.scenario.engine == "scalar" for o in store)
        summary = capsys.readouterr().out
        assert "Engine" in summary
        assert "scalar" in summary

    def test_auto_runs_report_negotiated_engines(self, tmp_path, capsys):
        from repro.campaign.cli import main
        from repro.campaign.results import CampaignResult

        spec_path = self._write_spec(tmp_path)
        output = tmp_path / "results.json"
        assert main([str(spec_path), "--output", str(output), "--quiet"]) == 0
        store = CampaignResult.load(str(output))
        engines = {o.label: o.result.engine_used for o in store}
        assert engines == {"ondemand": "tablepath", "oracle": "fastpath"}
        summary = capsys.readouterr().out
        assert "tablepath" in summary and "fastpath" in summary
        assert "physics-table cache:" in summary

    def test_unknown_engine_rejected_by_argparse(self, tmp_path):
        from repro.campaign.cli import main

        spec_path = self._write_spec(tmp_path)
        with pytest.raises(SystemExit):
            main([str(spec_path), "--engine", "warp-drive"])

    def test_engine_pinned_shards_merge_against_original_spec(self, tmp_path):
        """--engine must not break the shard -> merge --spec round trip."""
        from repro.campaign.cli import main
        from repro.campaign.results import CampaignResult

        spec_path = self._write_spec(tmp_path)
        shard0 = tmp_path / "shard0.json"
        shard1 = tmp_path / "shard1.json"
        merged = tmp_path / "merged.json"
        for index, output in enumerate((shard0, shard1)):
            code = main(
                [
                    str(spec_path),
                    "--engine",
                    "scalar",
                    "--shard",
                    f"{index}/2",
                    "--output",
                    str(output),
                    "--quiet",
                ]
            )
            assert code == 0
        code = main(
            [
                "merge",
                str(shard0),
                str(shard1),
                "--spec",
                str(spec_path),
                "--output",
                str(merged),
                "--quiet",
            ]
        )
        assert code == 0
        store = CampaignResult.load(str(merged))
        assert sorted(o.label for o in store) == ["ondemand", "oracle"]
        assert all(o.result.engine_used == "scalar" for o in store)

    def test_resume_matches_runs_recorded_under_a_different_engine(self, tmp_path):
        """A prior auto run's outcomes are reused when re-running pinned."""
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.results import CampaignResult
        from repro.campaign.spec import CampaignSpec

        from dataclasses import replace

        campaign = CampaignSpec.load(str(self._write_spec(tmp_path)))
        first = CampaignExecutor().run(campaign)
        pinned = CampaignSpec(
            name=campaign.name,
            scenarios=tuple(
                replace(scenario, engine="scalar") for scenario in campaign.scenarios
            ),
        )
        executed = []
        resumed = CampaignExecutor().run(
            pinned,
            resume=first,
            progress=lambda label, done, total: executed.append(label),
        )
        assert executed == []  # every outcome carried over by id
        assert [o.result.engine_used for o in resumed] == [
            o.result.engine_used for o in first
        ]


class TestRemovedBatchpathBackend:
    """Retired engine backends — the batched multi-scenario engine
    (``batchpath``) with its ``--batch-size`` planner, and the
    thermally-coupled table engine (``thermalpath``) folded into
    ``tablepath`` — are gone: results they stamped keep loading, while
    every way of asking for them fails before anything runs."""

    def _campaign(self):
        from repro.campaign.spec import CampaignSpec, FactorySpec

        return CampaignSpec.from_grid(
            name="legacy",
            applications=[FactorySpec.of("mpeg4", num_frames=10)],
            governors=[FactorySpec.of("ondemand"), FactorySpec.of("oracle")],
            seeds=[3],
        )

    @pytest.mark.parametrize(
        "encoding, legacy_engine",
        [
            pytest.param("json", "batchpath", id="json"),
            pytest.param("jsonl", "batchpath", id="jsonl"),
            pytest.param("json", "thermalpath", id="json-thermalpath"),
            pytest.param("jsonl", "thermalpath", id="jsonl-thermalpath"),
        ],
    )
    def test_saved_batchpath_results_still_load(
        self, tmp_path, encoding, legacy_engine
    ):
        from repro.analysis.reporting import format_campaign_summary
        from repro.campaign import store as result_store
        from repro.campaign.executor import run_campaign
        from repro.campaign.results import CampaignResult

        saved = run_campaign(self._campaign())
        for outcome in saved:
            outcome.result.engine_used = legacy_engine
        path = str(tmp_path / f"legacy.{encoding}")
        if encoding == "json":
            saved.save(path)
        else:
            result_store.save_store(saved, path, encoding)
        assert result_store.is_store_file(path) == (encoding == "jsonl")

        loaded = CampaignResult.load(path)
        assert [o.result.engine_used for o in loaded] == [legacy_engine] * 2
        assert loaded.to_json() == saved.to_json()
        assert legacy_engine in format_campaign_summary(loaded)

    @pytest.mark.parametrize("source", ["spec-file", "scenario-dict", "grid"])
    def test_batchpath_engine_in_a_spec_is_a_configuration_error(
        self, tmp_path, source
    ):
        from repro.campaign.spec import CampaignSpec, FactorySpec, ScenarioSpec

        with pytest.raises(ConfigurationError) as raised:
            if source == "grid":
                CampaignSpec.from_grid(
                    name="legacy",
                    applications=[FactorySpec.of("mpeg4", num_frames=10)],
                    governors=[FactorySpec.of("ondemand")],
                    engine="batchpath",
                )
            else:
                data = json.loads(self._campaign().to_json())
                data["scenarios"][0]["engine"] = "batchpath"
                if source == "scenario-dict":
                    ScenarioSpec.from_dict(data["scenarios"][0])
                else:
                    spec_path = tmp_path / "spec.json"
                    spec_path.write_text(json.dumps(data), encoding="utf-8")
                    CampaignSpec.load(str(spec_path))
        message = str(raised.value)
        assert "'batchpath'" in message
        for name in backend_names():
            assert name in message

    def test_thermalpath_engine_in_a_spec_points_to_tablepath(self, tmp_path):
        from repro.campaign.spec import CampaignSpec

        data = json.loads(self._campaign().to_json())
        data["scenarios"][0]["engine"] = "thermalpath"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigurationError) as raised:
            CampaignSpec.load(str(spec_path))
        message = str(raised.value)
        assert "'thermalpath'" in message
        assert "folded into 'tablepath'" in message

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "batchpath"], ["--batch-size", "4"], ["--engine", "thermalpath"]],
    )
    def test_removed_cli_options_rejected_by_argparse(self, tmp_path, flags, capsys):
        from repro.campaign.cli import main

        spec_path = tmp_path / "spec.json"
        self._campaign().save(str(spec_path))
        with pytest.raises(SystemExit) as raised:
            main([str(spec_path), "--quiet"] + flags)
        assert raised.value.code == 2
        assert flags[0] in capsys.readouterr().err
