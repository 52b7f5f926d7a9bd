"""Tests for the fixed engine ladder, negotiation and wiring.

The contract under test: engine selection goes through the four-row
ladder in :mod:`repro.sim.backends` only — ``auto`` takes the first engine
with no rejection reason, explicit engine requests are validated with
clear errors, unknown names are refused when a spec loads — and the
selection outcome is recorded uniformly as ``SimulationResult.engine_used``
through the engine, the campaign layer, the CLI and the summary report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim import backends
from repro.sim.backends import ENGINES, EngineRequest, negotiate, rejection_reason
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.results import SimulationResult
from repro.workload.video import mpeg4_application
from tests.conftest import legacy_bytes, saved_bytes, store_record, store_round_trip


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
        assert ENGINES == ("fastpath", "jitpath", "tablepath", "scalar")

    def test_unknown_backend_rejected_with_names(self):
        for call in (
            lambda: rejection_reason("warp-drive", _request()),
            lambda: negotiate(_request(), engine="warp-drive"),
            lambda: backends.run("warp-drive", _request()),
        ):
            with pytest.raises(SimulationError, match="unknown engine") as raised:
                call()
            for name in ENGINES:
                assert name in str(raised.value)


#: The ladder as a table, numba absent (the conftest default):
#: (governor, thermal) -> (reason keyword of each engine that declines, the
#: engine ``auto`` picks).  No rule depends on numpy: without it the picks
#: are the same (``tests/test_metrics.py::TestWithoutNumpy``).
_NO_JIT = "REPRO_DISABLE_JIT"
LADDER = {
    ("oracle", False): ({"jitpath": _NO_JIT}, "fastpath"),
    ("oracle", True): ({"fastpath": "thermal", "jitpath": _NO_JIT}, "tablepath"),
    ("ondemand", False): ({"fastpath": "static schedule", "jitpath": _NO_JIT}, "tablepath"),
    ("ondemand", True): ({"fastpath": "thermal", "jitpath": _NO_JIT}, "tablepath"),
}


class TestLadder:
    @pytest.mark.parametrize("prefer_fast_path", [True, False])
    @pytest.mark.parametrize(
        "governor, thermal",
        list(LADDER),
        ids=[
            f"{governor}-{'thermal' if thermal else 'isothermal'}"
            for governor, thermal in LADDER
        ],
    )
    def test_rejection_reasons_and_pick(self, governor, thermal, prefer_fast_path):
        declines, picked = LADDER[(governor, thermal)]
        factory = {"oracle": OracleGovernor, "ondemand": OndemandGovernor}[governor]
        request = _request(
            factory(),
            build_a15_cluster(enable_thermal=thermal),
            SimulationConfig(prefer_fast_path=prefer_fast_path),
        )
        for name in ENGINES:
            reason = rejection_reason(name, request)
            if name in declines:
                assert reason is not None and declines[name] in reason, name
            else:
                assert reason is None, (name, reason)
        expected = picked if prefer_fast_path else "scalar"
        assert negotiate(request) == expected


_NEVER_LOADS_JITPATH = """
import sys
import repro.campaign.cli
assert 'repro.sim.jitpath' not in sys.modules
from repro.governors.ondemand import OndemandGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim.engine import SimulationEngine
from repro.workload.video import mpeg4_application
result = SimulationEngine(build_a15_cluster()).run(
    mpeg4_application(num_frames=10, seed=1), OndemandGovernor()
)
assert result.engine_used == 'tablepath', result.engine_used
assert 'repro.sim.jitpath' not in sys.modules
"""


def test_jitpath_not_imported_until_its_probe_passes():
    """Importing the CLI and negotiating past jitpath never loads it.

    The kill-switch fails the probe whether or not numba is installed.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    environment = dict(os.environ, REPRO_DISABLE_JIT="1")
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), environment.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-c", _NEVER_LOADS_JITPATH], check=True, env=environment
    )


class TestNegotiation:
    def test_explicit_capability_mismatch_is_a_clear_error(self):
        with pytest.raises(SimulationError, match="static schedule"):
            negotiate(_request(OndemandGovernor()), engine="fastpath")
        thermal = build_a15_cluster(enable_thermal=True)
        with pytest.raises(SimulationError, match="thermal"):
            negotiate(_request(OracleGovernor(), thermal), engine="fastpath")

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
        clone = store_round_trip(result)
        assert clone.engine_used == "tablepath"
        assert clone == result

    def test_hand_built_results_have_no_engine(self):
        result = SimulationResult("g", "a", 0.04)
        assert result.engine_used == ""
        assert "engine_used" not in store_record(result)["result"]


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
        for engine in ("", "tablepth"):
            with pytest.raises(ConfigurationError, match="engine") as raised:
                self._scenario(engine=engine)
            for name in ("auto", *ENGINES):
                assert name in str(raised.value)

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

    def test_misspelled_engine_in_spec_exits_before_running(self, tmp_path, capsys):
        from repro.campaign.cli import EXIT_USAGE, main

        data = json.loads(self._write_spec(tmp_path).read_text(encoding="utf-8"))
        data["scenarios"][0]["engine"] = "tablepth"
        spec_path = tmp_path / "typo.json"
        spec_path.write_text(json.dumps(data), encoding="utf-8")
        output = tmp_path / "results.json"
        assert main([str(spec_path), "--output", str(output), "--quiet"]) == EXIT_USAGE
        assert not output.exists()
        error = capsys.readouterr().err
        assert "'tablepth'" in error and "tablepath" in error

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

        path = str(tmp_path / f"legacy.{encoding}")
        if encoding == "json":
            # The monolithic JSON blob those releases wrote by default.
            data = json.loads(legacy_bytes("wire-format.v1.json"))
            for item in data["outcomes"]:
                item["result"]["engine_used"] = legacy_engine
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            saved = result_store.blob_store(data)
        else:
            saved = run_campaign(self._campaign())
            for outcome in saved:
                outcome.result.engine_used = legacy_engine
            result_store.save_store(saved, path, encoding)
        assert result_store.is_store_file(path) == (encoding == "jsonl")

        loaded = CampaignResult.load(path)
        assert [o.result.engine_used for o in loaded] == [legacy_engine] * len(saved)
        assert saved_bytes(loaded) == saved_bytes(saved)
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
        for name in ENGINES:
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
