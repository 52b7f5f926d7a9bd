"""Tests for the governor/engine parity harness and the golden trace store."""

import copy
import json
import os

import pytest

from repro.campaign.spec import FactorySpec, ScenarioSpec
from repro.errors import ParityError
from repro.testing.parity import (
    DecisionTrace,
    capture_decision_trace,
    check_goldens,
    diff_traces,
    eligible_engines,
    golden_path,
    load_golden,
    paper_governors,
    record_goldens,
    run_parity,
    smoke_applications,
    smoke_parity_campaign,
    write_golden,
)
from repro.testing.parity.trace import _rle_decode, _rle_encode


def scenario(governor="ondemand", application="mpeg4", num_frames=40, **gov_params):
    return ScenarioSpec(
        label=f"{application}/{governor}",
        application=FactorySpec.of(application, num_frames=num_frames),
        governor=FactorySpec.of(governor, **gov_params),
        cluster=FactorySpec.of("a15"),
        seed=11,
    )


# ---------------------------------------------------------------------------
# Trace capture.
# ---------------------------------------------------------------------------
class TestCaptureDecisionTrace:
    def test_captures_per_frame_decisions(self):
        trace = capture_decision_trace(scenario())
        assert trace.num_frames == 40
        assert len(trace.operating_index) == 40
        assert len(trace.frame_time_s) == 40
        assert len(trace.energy_j) == 40
        assert len(trace.temperature_c) == 40
        assert all(isinstance(i, int) for i in trace.operating_index)
        assert trace.engine == "scalar"
        assert trace.governor == "ondemand"
        assert trace.scenario_id == scenario().scenario_id

    def test_capture_is_deterministic(self):
        first = capture_decision_trace(scenario())
        second = capture_decision_trace(scenario())
        assert first.to_dict() == second.to_dict()

    def test_transitions_recorded_for_reactive_governor(self):
        trace = capture_decision_trace(scenario())
        assert trace.transitions  # ondemand moves around on mpeg4
        assert trace.transition_latency_s > 0.0

    def test_rl_governor_final_state_includes_qtable(self):
        trace = capture_decision_trace(scenario(governor="proposed"))
        assert "qtable_values" in trace.final_state
        assert "qtable_visit_counts" in trace.final_state
        assert trace.final_state["update_count"] > 0

    def test_static_governor_final_state(self):
        trace = capture_decision_trace(scenario(governor="performance"))
        assert trace.final_state["governor"] == "performance"
        assert trace.final_state["exploration_count"] == 0


class TestTraceEncoding:
    def test_rle_round_trip(self):
        values = [3, 3, 3, 1, 1, 7, 3, 3]
        assert _rle_decode(_rle_encode(values)) == values
        assert _rle_encode(values) == [[3, 3], [1, 2], [7, 1], [3, 2]]

    def test_rle_empty(self):
        assert _rle_encode([]) == []
        assert _rle_decode([]) == []

    def test_trace_json_round_trip(self):
        trace = capture_decision_trace(scenario())
        restored = DecisionTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert restored.to_dict() == trace.to_dict()

    def test_corrupt_rle_rejected(self):
        data = capture_decision_trace(scenario()).to_dict()
        data["operating_index_rle"] = data["operating_index_rle"][:-1]
        with pytest.raises(ParityError, match="RLE decodes"):
            DecisionTrace.from_dict(data)


# ---------------------------------------------------------------------------
# Differential comparison.
# ---------------------------------------------------------------------------
class TestDiffTraces:
    def test_identical_traces_match(self):
        trace = capture_decision_trace(scenario())
        assert diff_traces(trace, copy.deepcopy(trace)) is None

    def test_decision_drift_names_the_frame(self):
        reference = capture_decision_trace(scenario())
        drifted = copy.deepcopy(reference)
        drifted.operating_index[17] += 1
        divergence = diff_traces(reference, drifted)
        assert divergence is not None
        assert divergence.field == "operating_index"
        assert divergence.frame == 17
        assert "frame 17" in divergence.describe()
        assert divergence.reference_state["operating_index"] == (
            reference.operating_index[17]
        )
        assert divergence.candidate_state["operating_index"] == (
            reference.operating_index[17] + 1
        )

    def test_miss_set_drift_names_the_frame(self):
        reference = capture_decision_trace(scenario())
        drifted = copy.deepcopy(reference)
        drifted.miss_frames = sorted(set(drifted.miss_frames) ^ {5})
        divergence = diff_traces(reference, drifted)
        assert divergence.field == "miss_frames"
        assert divergence.frame == 5

    def test_float_drift_beyond_tolerance_detected(self):
        reference = capture_decision_trace(scenario())
        drifted = copy.deepcopy(reference)
        drifted.energy_j[3] *= 1.0 + 1e-6
        divergence = diff_traces(reference, drifted)
        assert divergence.field == "energy_j"
        assert divergence.frame == 3

    def test_float_noise_within_tolerance_ignored(self):
        reference = capture_decision_trace(scenario())
        drifted = copy.deepcopy(reference)
        drifted.energy_j[3] *= 1.0 + 1e-12
        assert diff_traces(reference, drifted) is None

    def test_final_state_drift_detected(self):
        reference = capture_decision_trace(scenario(governor="proposed"))
        drifted = copy.deepcopy(reference)
        drifted.final_state["qtable_values"][0][0] += 0.5
        divergence = diff_traces(reference, drifted)
        assert divergence.field == "final_state.qtable_values"

    def test_frame_count_mismatch(self):
        reference = capture_decision_trace(scenario())
        shorter = copy.deepcopy(reference)
        shorter.num_frames -= 1
        shorter.operating_index = shorter.operating_index[:-1]
        divergence = diff_traces(reference, shorter)
        assert divergence.field == "num_frames"


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------
class TestHarness:
    def test_eligible_engines_include_reference_and_table_paths(self):
        engines = eligible_engines(scenario())
        assert "scalar" in engines
        assert "tablepath" in engines
        # fastpath needs a static schedule; ondemand is reactive.
        assert "fastpath" not in engines

    def test_fastpath_eligible_for_static_governor(self):
        assert "fastpath" in eligible_engines(scenario(governor="performance"))

    def test_run_parity_all_backends_agree(self):
        # A static governor adds fastpath beside tablepath, so more than one
        # replay backend is compared against the scalar reference.
        report = run_parity([scenario(), scenario(governor="performance")])
        assert report.ok
        assert len(report.results) >= 2
        assert {result.engine for result in report.results} >= {"fastpath", "tablepath"}
        assert all(result.status == "ok" for result in report.results)

    def test_smoke_matrix_covers_paper_governors(self):
        campaign = smoke_parity_campaign()
        governors = {spec.governor.name for spec in campaign.scenarios}
        assert governors == set(paper_governors())
        applications = {spec.application.name for spec in campaign.scenarios}
        assert applications == set(smoke_applications())

    def test_error_in_one_backend_does_not_abort(self):
        # Pinning an engine list to a backend that cannot run the scenario
        # simply excludes it from the eligible set; a genuinely broken
        # backend surfaces as an "error" pair (exercised via a bad engine
        # name at capture level).
        with pytest.raises(Exception):
            capture_decision_trace(scenario(), engine="no-such-backend")


# ---------------------------------------------------------------------------
# Golden store.
# ---------------------------------------------------------------------------
class TestGoldenStore:
    def test_record_then_check_round_trip(self, tmp_path):
        scenarios = [scenario(num_frames=30)]
        record_goldens(scenarios, goldens_dir=str(tmp_path))
        report = check_goldens(scenarios, goldens_dir=str(tmp_path))
        assert report.ok
        engines = {result.engine for result in report.results}
        assert "scalar" in engines  # the reference itself is re-checked

    def test_injected_decision_drift_is_caught_with_frame_index(self, tmp_path):
        scenarios = [scenario(num_frames=30)]
        record_goldens(scenarios, goldens_dir=str(tmp_path))
        path = golden_path(str(tmp_path), scenarios[0])
        _, trace = load_golden(path)
        # Inject a one-frame decision drift into the stored golden.
        trace.operating_index[12] = (trace.operating_index[12] + 1) % 10
        write_golden(path, scenarios[0], trace)
        report = check_goldens(scenarios, goldens_dir=str(tmp_path))
        assert not report.ok
        failure = report.failures[0]
        assert failure.status == "divergent"
        assert failure.divergence.field == "operating_index"
        assert failure.divergence.frame == 12
        assert "frame 12" in failure.divergence.describe()
        assert "frame 12" in report.summary()

    def test_missing_golden_raises_listing_path(self, tmp_path):
        with pytest.raises(ParityError, match="missing golden"):
            check_goldens([scenario()], goldens_dir=str(tmp_path))

    def test_changed_scenario_definition_rejected(self, tmp_path):
        recorded = scenario(num_frames=30)
        record_goldens([recorded], goldens_dir=str(tmp_path))
        changed = scenario(num_frames=31)  # same label, different content
        with pytest.raises(ParityError, match="re-record"):
            check_goldens([changed], goldens_dir=str(tmp_path))

    def test_format_version_enforced(self, tmp_path):
        recorded = scenario(num_frames=30)
        record_goldens([recorded], goldens_dir=str(tmp_path))
        path = golden_path(str(tmp_path), recorded)
        with open(path) as handle:
            document = json.load(handle)
        document["format"] = 999
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ParityError, match="format"):
            load_golden(path)

    def test_golden_path_flattens_labels(self, tmp_path):
        assert golden_path("d", scenario()).endswith(
            os.path.join("d", "mpeg4--ondemand.json")
        )


# ---------------------------------------------------------------------------
# The committed goldens themselves: this is the parity gate.
# ---------------------------------------------------------------------------
class TestCommittedGoldens:
    def test_committed_goldens_exist_for_full_smoke_matrix(self):
        for spec in smoke_parity_campaign().scenarios:
            assert os.path.exists(golden_path("tests/goldens", spec)), (
                f"missing golden for {spec.label}; run `repro-parity record`"
            )

    def test_every_paper_governor_passes_on_every_backend(self):
        report = check_goldens(goldens_dir="tests/goldens")
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Governor decision-state hooks.
# ---------------------------------------------------------------------------
class TestDecisionStateHooks:
    def test_ondemand_reports_tunables(self):
        trace = capture_decision_trace(scenario())
        assert trace.final_state["up_threshold"] == pytest.approx(0.8)
        assert "hold_remaining" in trace.final_state

    def test_conservative_reports_thresholds(self):
        trace = capture_decision_trace(scenario(governor="conservative"))
        assert "down_threshold" in trace.final_state

    def test_decision_state_is_json_serialisable(self):
        for governor in paper_governors():
            trace = capture_decision_trace(scenario(governor=governor, num_frames=20))
            json.dumps(trace.final_state)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------
class TestParityCli:
    def test_check_cli_passes_on_committed_goldens(self, capsys, tmp_path):
        from repro.testing.parity.cli import main

        report_path = tmp_path / "report.json"
        code = main(["check", "--report", str(report_path)])
        assert code == 0
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["pairs"] > 0
        assert "ok" in capsys.readouterr().out

    def test_check_cli_fails_on_drifted_golden(self, tmp_path):
        from repro.testing.parity.cli import main

        spec = scenario(num_frames=30)
        record_goldens([spec], goldens_dir=str(tmp_path / "g"))
        path = golden_path(str(tmp_path / "g"), spec)
        _, trace = load_golden(path)
        trace.operating_index[7] = (trace.operating_index[7] + 1) % 10
        write_golden(path, spec, trace)
        # The CLI checks the full smoke matrix; its goldens are absent here,
        # so missing-goldens is the expected usage error (exit 2).
        code = main(["check", "--goldens-dir", str(tmp_path / "g")])
        assert code == 2

    def test_record_cli_writes_goldens(self, capsys, tmp_path):
        from repro.testing.parity.cli import main

        code = main(["record", "--goldens-dir", str(tmp_path / "goldens")])
        assert code == 0
        out = capsys.readouterr().out
        assert "14 golden decision traces recorded" in out
        assert len(list((tmp_path / "goldens").glob("*.json"))) == 14

    def test_record_then_check_via_cli(self, tmp_path):
        from repro.testing.parity.cli import main

        goldens = str(tmp_path / "goldens")
        assert main(["record", "--goldens-dir", goldens]) == 0
        assert main(["check", "--goldens-dir", goldens]) == 0
