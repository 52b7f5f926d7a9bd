"""Tests for the columnar on-disk result store (``repro.campaign.store``).

Covers format negotiation (with the ``REPRO_DISABLE_ARROW``
kill-switch), store/load round-trip parity (eager and lazy), O(1)
append-only checkpointing
(byte-prefix stability across appends), torn-file salvage + quarantine,
the streaming shard merge (sharded + merged == unsharded in every
format combination), the executor/service integration, and the CLI's
``--store`` flag.

The Arrow encoding is exercised only when pyarrow is importable — on a
pyarrow-less install every test runs against the pure-JSON ``jsonl``
encoding, which shares all machinery except the byte encoding.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    Coordinator,
    FactorySpec,
    ScenarioOutcome,
    ScenarioSpec,
    run_campaign,
)
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.errors import ConfigurationError, SimulationError
from tests.conftest import legacy_wire_blob, saved_bytes, wire_campaign

#: Small scale so the whole module stays fast.
FRAMES = 40

#: Concrete encodings testable in this interpreter.
ENCODINGS = [result_store.ENCODING_JSONL] + (
    [result_store.ENCODING_ARROW] if result_store.arrow_available() else []
)


def small_campaign(name="store", seeds=(1, 2)):
    return CampaignSpec.from_grid(
        name,
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=seeds,
    )


def broken_scenario(label="broken"):
    return ScenarioSpec(
        label=label,
        application=FactorySpec.of("mpeg4", num_frames=FRAMES),
        governor=FactorySpec.of("no-such-governor"),
    )


@pytest.fixture(scope="module")
def campaign():
    return small_campaign()


@pytest.fixture(scope="module")
def full_store(campaign):
    return run_campaign(campaign, store="json")


@pytest.fixture(scope="module")
def mixed_store(campaign):
    """A store with both done and failed outcomes (null frames on disk)."""
    spec = CampaignSpec(
        name="store-mixed", scenarios=campaign.scenarios[:2] + (broken_scenario(),)
    )
    return run_campaign(spec, store="json")


class TestNegotiation:
    def test_json_is_always_jsonl(self, monkeypatch):
        assert result_store.negotiate_store("json") == result_store.ENCODING_JSONL
        monkeypatch.setattr(result_store, "HAVE_PYARROW", True)
        monkeypatch.delenv("REPRO_DISABLE_ARROW", raising=False)
        assert result_store.negotiate_store("json") == result_store.ENCODING_JSONL

    def test_arrow_degrades_to_jsonl_without_pyarrow(self):
        resolved = result_store.negotiate_store("arrow")
        if result_store.arrow_available():
            assert resolved == result_store.ENCODING_ARROW
        else:
            assert resolved == result_store.ENCODING_JSONL

    def test_auto_prefers_arrow_else_jsonl(self):
        resolved = result_store.negotiate_store("auto")
        if result_store.arrow_available():
            assert resolved == result_store.ENCODING_ARROW
        else:
            assert resolved == result_store.ENCODING_JSONL

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown result store"):
            result_store.negotiate_store("parquet")

    def test_kill_switch_disables_arrow(self, monkeypatch):
        # Simulate a pyarrow install with the kill-switch thrown: the
        # writer must degrade exactly like a pyarrow-less install.
        monkeypatch.setattr(result_store, "HAVE_PYARROW", True)
        monkeypatch.setenv("REPRO_DISABLE_ARROW", "1")
        assert not result_store.arrow_available()
        assert result_store.negotiate_store("auto") == result_store.ENCODING_JSONL
        assert result_store.negotiate_store("arrow") == result_store.ENCODING_JSONL

    def test_kill_switch_off_values(self, monkeypatch):
        monkeypatch.setattr(result_store, "HAVE_PYARROW", True)
        for value in ("", "0"):
            monkeypatch.setenv("REPRO_DISABLE_ARROW", value)
            assert result_store.arrow_available()


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestRoundTrip:
    def test_round_trip_parity(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path, encoding)
        assert result_store.is_store_file(path)
        loaded = CampaignResult.load(path)
        assert saved_bytes(loaded) == saved_bytes(full_store)

    def test_lazy_load_parity(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path, encoding)
        lazy = CampaignResult.load(path, lazy=True)
        assert saved_bytes(lazy) == saved_bytes(full_store)

    def test_lazy_metrics_without_touching_frames(
        self, tmp_path, full_store, encoding
    ):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path, encoding)
        lazy = CampaignResult.load(path, lazy=True)
        # Summaries come from the cached metrics: delete the file and the
        # summary must still answer (frame access would now raise).
        os.unlink(path)
        for outcome, original in zip(lazy, full_store):
            summary = outcome.metrics_summary()
            from repro.sim.metrics import summarize_result

            assert summary == summarize_result(original.result)

    def test_failed_outcomes_round_trip(self, tmp_path, mixed_store, encoding):
        path = str(tmp_path / "mixed.bin")
        result_store.save_store(mixed_store, path, encoding)
        loaded = CampaignResult.load(path)
        assert saved_bytes(loaded) == saved_bytes(mixed_store)
        assert [o.label for o in loaded.failed()] == ["broken"]

    def test_save_via_campaign_result(self, tmp_path, full_store, encoding):
        # CampaignResult.save writes the store whatever is asked: "arrow"
        # through the negotiated encoding, "json" (the default) as jsonl.
        columnar = str(tmp_path / "columnar.bin")
        jsonl = str(tmp_path / "results.store")
        full_store.save(columnar, store="arrow")
        full_store.save(jsonl, store="json")
        assert result_store.StoreReader(jsonl).encoding == result_store.ENCODING_JSONL
        assert result_store.is_store_file(columnar)
        assert saved_bytes(CampaignResult.load(columnar)) == saved_bytes(full_store)
        assert saved_bytes(CampaignResult.load(jsonl)) == saved_bytes(full_store)


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestAppendOnly:
    def test_append_reopen_equals_bulk_save(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "appended.bin")
        outcomes = list(full_store)
        writer = result_store.StoreWriter.create(
            path, full_store.campaign_name, encoding
        )
        writer.append(outcomes[0])
        writer.close()
        # Reopen-and-append survives process restarts mid-campaign.
        with result_store.StoreWriter.open_append(path) as writer:
            for outcome in outcomes[1:]:
                writer.append(outcome)
        assert saved_bytes(CampaignResult.load(path)) == saved_bytes(full_store)

    def test_appends_are_byte_prefix_stable(self, tmp_path, full_store, encoding):
        # O(1) checkpointing in observable form: appending outcome N+1
        # never rewrites outcomes 0..N (the file grows strictly by
        # suffix), unlike the legacy whole-blob rewrite.
        path = str(tmp_path / "prefix.bin")
        writer = result_store.StoreWriter.create(
            path, full_store.campaign_name, encoding
        )
        snapshots = []
        for outcome in full_store:
            writer.append(outcome)
            writer.flush()
            with open(path, "rb") as handle:
                snapshots.append(handle.read())
        writer.close()
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later.startswith(earlier)
            assert len(later) > len(earlier)

    def test_reader_reports_campaign_and_encoding(
        self, tmp_path, full_store, encoding
    ):
        path = str(tmp_path / "meta.bin")
        result_store.save_store(full_store, path, encoding)
        reader = result_store.StoreReader(path)
        assert reader.campaign_name == full_store.campaign_name
        assert reader.encoding == encoding


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestCorruption:
    def _saved(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "ckpt.bin")
        result_store.save_store(full_store, path, encoding)
        return path

    def test_truncated_tail_salvages_prefix(self, tmp_path, full_store, encoding):
        path = self._saved(tmp_path, full_store, encoding)
        with open(path, "rb") as handle:
            blob = handle.read()
        # Tear the file mid-way through the last record.
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) - 40])
        with pytest.warns(RuntimeWarning, match="quarantined") as record:
            salvaged = CampaignResult.load_checkpoint(path)
        assert salvaged is not None
        assert 0 < len(salvaged) < len(full_store)
        # Salvaged outcomes are bit-identical to the originals.
        originals = {o.scenario_id: o for o in full_store}
        for outcome in salvaged:
            assert saved_bytes(outcome) == saved_bytes(originals[outcome.scenario_id])
        # The warning names the salvaged count instead of "from scratch".
        (warning,) = record
        message = str(warning.message)
        assert f"resuming from {len(salvaged)} salvaged outcome(s)" in message
        assert "from scratch" not in message
        # The torn file moved aside for post-mortem; a resume starts clean.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_garbled_record_salvages_prefix(self, tmp_path, full_store, encoding):
        path = self._saved(tmp_path, full_store, encoding)
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage that is not a record\xff")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = CampaignResult.load_checkpoint(path)
        assert salvaged is not None
        assert saved_bytes(salvaged) == saved_bytes(full_store)
        assert os.path.exists(path + ".corrupt")

    def test_corrupt_header_quarantines_with_none(self, tmp_path, encoding):
        path = str(tmp_path / "ckpt.bin")
        with open(path, "wb") as handle:
            handle.write(result_store.MAGIC + b" {not json\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert result_store.load_store_checkpoint(path) is None
        assert os.path.exists(path + ".corrupt")

    def test_missing_file_is_none_without_warning(self, tmp_path, encoding):
        assert result_store.load_store_checkpoint(str(tmp_path / "nope")) is None

    def test_future_version_is_config_error_not_corruption(
        self, tmp_path, full_store, encoding
    ):
        path = self._saved(tmp_path, full_store, encoding)
        with open(path, "rb") as handle:
            header, rest = handle.readline(), handle.read()
        meta = json.loads(header[len(result_store.MAGIC) + 1 :])
        meta["version"] = result_store.FORMAT_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(
                result_store.MAGIC
                + b" "
                + json.dumps(meta, sort_keys=True).encode()
                + b"\n"
                + rest
            )
        # A deliberately newer file must never be quarantined as corrupt.
        with pytest.raises(ConfigurationError, match="format version"):
            CampaignResult.load_checkpoint(path)
        assert os.path.exists(path)

    def test_bad_frame_shape_is_quarantined(self, tmp_path, full_store, encoding):
        # A record whose frame columns disagree in length is corruption,
        # even though every byte parses: FrameColumns validation feeds the
        # same quarantine path as a torn file.
        path = str(tmp_path / "ckpt.bin")
        record = result_store.encode_record(next(iter(full_store)))
        record["result"]["frames"]["energy_j"] = record["result"]["frames"][
            "energy_j"
        ][:-1]
        writer = result_store.StoreWriter.create(
            path, full_store.campaign_name, encoding
        )
        writer.append_records([record])
        writer.close()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = result_store.load_store_checkpoint(path)
        assert salvaged is not None and len(salvaged) == 0


class TestStreamingMerge:
    @pytest.fixture()
    def shard_paths(self, tmp_path, campaign):
        paths = []
        for index in range(2):
            shard = run_campaign(campaign.shard(index, 2), store="json")
            path = str(tmp_path / f"shard{index}.bin")
            result_store.save_store(shard, path, result_store.ENCODING_JSONL)
            paths.append(path)
        return paths

    def test_merge_columnar_shards_to_json_is_byte_identical(
        self, tmp_path, campaign, full_store, shard_paths
    ):
        unsharded = str(tmp_path / "unsharded.json")
        full_store.save(unsharded, store="json")
        merged = str(tmp_path / "merged.json")
        stats = result_store.merge_store_files(
            shard_paths, merged, spec=campaign, store="json"
        )
        assert stats == result_store.MergeStats(
            stores=2, scenarios=len(campaign), duplicates=0
        )
        with open(unsharded, "rb") as f_a, open(merged, "rb") as f_b:
            assert f_a.read() == f_b.read()

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_merge_to_columnar_round_trips(
        self, tmp_path, campaign, full_store, shard_paths, encoding
    ):
        merged = str(tmp_path / "merged.bin")
        result_store.merge_store_files(
            shard_paths, merged, spec=campaign, store="arrow"
        )
        assert result_store.is_store_file(merged)
        assert saved_bytes(CampaignResult.load(merged)) == saved_bytes(full_store)

    def test_merge_mixed_legacy_and_columnar_inputs(self, tmp_path):
        # Shard 0 as the legacy JSON blob earlier releases wrote, shard 1
        # as a store: the merge equals the whole campaign.
        spec = wire_campaign()
        blob = legacy_wire_blob()
        legacy = tmp_path / "shard0.json"
        shard0 = {s.scenario_id for s in spec.shard(0, 2).scenarios}
        legacy.write_text(
            json.dumps(
                {
                    "campaign_name": blob["campaign_name"],
                    "outcomes": [
                        item
                        for item in blob["outcomes"]
                        if ScenarioSpec.from_dict(item["scenario"]).scenario_id in shard0
                    ],
                }
            ),
            encoding="utf-8",
        )
        whole = CampaignResult.from_dict(blob)
        columnar = str(tmp_path / "shard1.bin")
        shard1 = CampaignResult(
            whole.campaign_name,
            {sid: o for sid, o in whole.outcomes.items() if sid not in shard0},
        )
        result_store.save_store(shard1, columnar, result_store.ENCODING_JSONL)
        merged = str(tmp_path / "merged.store")
        stats = result_store.merge_store_files(
            [str(legacy), columnar], merged, spec=spec, store="json"
        )
        assert stats.scenarios == len(spec) and stats.duplicates == 0
        assert saved_bytes(CampaignResult.load(merged)) == saved_bytes(whole)

    def test_identical_duplicates_union_silently(
        self, tmp_path, campaign, full_store, shard_paths
    ):
        merged = str(tmp_path / "merged.json")
        stats = result_store.merge_store_files(
            shard_paths + [shard_paths[0]], merged, spec=campaign, store="json"
        )
        assert stats.duplicates == len(
            CampaignResult.load(shard_paths[0])
        )
        assert saved_bytes(CampaignResult.load(merged)) == saved_bytes(full_store)

    def test_conflicting_duplicates_raise(self, tmp_path, campaign, shard_paths):
        conflicting = CampaignResult(campaign_name=campaign.name)
        conflicting.add(
            ScenarioOutcome.failure(campaign.scenarios[0], error="x", traceback_text="")
        )
        conflict_path = str(tmp_path / "conflict.bin")
        result_store.save_store(
            conflicting, conflict_path, result_store.ENCODING_JSONL
        )
        with pytest.raises(SimulationError, match="conflicting outcomes"):
            result_store.merge_store_files(
                shard_paths + [conflict_path],
                str(tmp_path / "merged.json"),
            )
        # The spill file never outlives the merge, success or failure.
        assert not os.path.exists(str(tmp_path / "merged.json.merge-spill"))

    def test_merge_rejects_different_campaigns(self, tmp_path, shard_paths):
        other = run_campaign(small_campaign(name="other-store", seeds=(1,)))
        other_path = str(tmp_path / "other.bin")
        result_store.save_store(other, other_path, result_store.ENCODING_JSONL)
        with pytest.raises(ConfigurationError, match="different campaigns"):
            result_store.merge_store_files(
                shard_paths + [other_path], str(tmp_path / "merged.json")
            )

    def test_incomplete_merge_with_spec_raises(
        self, tmp_path, campaign, shard_paths
    ):
        with pytest.raises(SimulationError, match="no outcome for scenario"):
            result_store.merge_store_files(
                shard_paths[:1], str(tmp_path / "merged.json"), spec=campaign
            )

    def test_merge_requires_stores(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one"):
            result_store.merge_store_files([], str(tmp_path / "merged.json"))


class TestExecutorIntegration:
    def test_columnar_checkpoint_resumes(self, tmp_path, campaign):
        checkpoint = str(tmp_path / "ckpt.bin")
        first = run_campaign(
            campaign, checkpoint_path=checkpoint, checkpoint_every=1, store="arrow"
        )
        assert result_store.is_store_file(checkpoint)
        saved = CampaignResult.load(checkpoint)
        assert saved_bytes(saved) == saved_bytes(first)
        # Resuming from the columnar checkpoint re-runs nothing and is
        # bit-identical.
        resumed = run_campaign(campaign, resume=saved, store="arrow")
        assert saved_bytes(resumed) == saved_bytes(first)

    def test_torn_columnar_checkpoint_resumes_cleanly(self, tmp_path, campaign):
        checkpoint = str(tmp_path / "ckpt.bin")
        reference = run_campaign(campaign, store="json")
        run_campaign(
            campaign, checkpoint_path=checkpoint, checkpoint_every=1, store="arrow"
        )
        with open(checkpoint, "rb") as handle:
            blob = handle.read()
        with open(checkpoint, "wb") as handle:
            handle.write(blob[:-25])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = CampaignResult.load_checkpoint(checkpoint)
        finished = run_campaign(
            campaign,
            resume=salvaged,
            checkpoint_path=checkpoint,
            store="arrow",
        )
        assert saved_bytes(finished) == saved_bytes(reference)


class TestServiceIntegration:
    def test_columnar_journal_resumes(self, tmp_path, campaign):
        serial = run_campaign(campaign, store="json")
        journal = str(tmp_path / "journal.json")
        coordinator = Coordinator(
            campaign, journal_path=journal, journal_store="arrow"
        )
        for outcome in list(serial)[:2]:
            coordinator.submit("w0", None, outcome)
        coordinator.close_journal()
        # The meta journal is a small pointer; outcomes live in the
        # append-only sidecar store.
        with open(journal, encoding="utf-8") as handle:
            assert json.load(handle)["outcomes"] == "store"
        assert result_store.is_store_file(journal + ".outcomes")
        revived = Coordinator(
            campaign, journal_path=journal, journal_store="arrow"
        )
        assert revived.stats["resumed"] == 2
        assert len(revived.store) == 2
        revived.close_journal()

    def test_columnar_journal_drains_to_serial_result(self, tmp_path, campaign):
        serial = run_campaign(campaign, store="json")
        journal = str(tmp_path / "journal.json")
        coordinator = Coordinator(
            campaign, journal_path=journal, journal_store="arrow"
        )
        for outcome in serial:
            coordinator.submit("w0", None, outcome)
        assert coordinator.finished
        assert saved_bytes(coordinator.result()) == saved_bytes(serial)
        coordinator.close_journal()
        sidecar = CampaignResult.load(journal + ".outcomes")
        assert saved_bytes(sidecar) == saved_bytes(serial)


class TestCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        small_campaign(name="store-cli", seeds=(1,)).save(str(path))
        return str(path)

    def test_store_arrow_output_and_checkpoint(self, spec_path, tmp_path):
        output = str(tmp_path / "results.bin")
        checkpoint = str(tmp_path / "ckpt.bin")
        assert (
            cli_main(
                [
                    spec_path,
                    "--quiet",
                    "--store",
                    "arrow",
                    "--output",
                    output,
                    "--checkpoint",
                    checkpoint,
                ]
            )
            == 0
        )
        assert result_store.is_store_file(output)
        assert result_store.is_store_file(checkpoint)
        loaded = CampaignResult.load(output)
        assert saved_bytes(CampaignResult.load(checkpoint)) == saved_bytes(loaded)
        # Re-running resumes from the columnar checkpoint (nothing re-runs).
        assert (
            cli_main(
                [spec_path, "--quiet", "--store", "arrow", "--checkpoint", checkpoint]
            )
            == 0
        )

    def test_store_json_output_matches_arrow(self, spec_path, tmp_path, capsys):
        json_out = str(tmp_path / "results.json")
        arrow_out = str(tmp_path / "results.bin")
        assert cli_main([spec_path, "--quiet", "--store", "json", "--output", json_out]) == 0
        assert (
            cli_main(
                [spec_path, "--quiet", "--store", "arrow", "--output", arrow_out]
            )
            == 0
        )
        assert result_store.StoreReader(json_out).encoding == result_store.ENCODING_JSONL
        assert saved_bytes(CampaignResult.load(arrow_out)) == saved_bytes(
            CampaignResult.load(json_out)
        )

    def test_shard_merge_with_columnar_shards(self, spec_path, tmp_path):
        spec_file = str(tmp_path / "spec2.json")
        small_campaign(name="store-cli-merge").save(spec_file)
        full = str(tmp_path / "full.json")
        assert cli_main([spec_file, "--quiet", "--store", "json", "--output", full]) == 0
        shard_files = []
        for index in range(2):
            out = str(tmp_path / f"shard{index}.bin")
            shard_files.append(out)
            assert (
                cli_main(
                    [
                        spec_file,
                        "--shard",
                        f"{index}/2",
                        "--quiet",
                        "--store",
                        "arrow",
                        "--output",
                        out,
                    ]
                )
                == 0
            )
            assert result_store.is_store_file(out)
        merged = str(tmp_path / "merged.json")
        assert (
            cli_main(
                [
                    "merge",
                    *shard_files,
                    "--spec",
                    spec_file,
                    "--store",
                    "json",
                    "--output",
                    merged,
                    "--quiet",
                ]
            )
            == 0
        )
        with open(full, "rb") as f_full, open(merged, "rb") as f_merged:
            assert f_full.read() == f_merged.read()

    def test_merge_reports_stats_line(self, spec_path, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert cli_main([spec_path, "--quiet", "--output", out]) == 0
        merged = str(tmp_path / "merged.json")
        assert cli_main(["merge", out, out, "--output", merged, "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "merged 2 store(s), 2 scenarios (2 duplicate(s))" in printed

    def test_serve_columnar_journal(self, spec_path, tmp_path):
        # The serve path is exercised end to end elsewhere; here only the
        # journal plumbing: a coordinator built the way _serve_main builds
        # it journals outcomes to the sidecar store.
        journal = str(tmp_path / "journal.json")
        campaign = CampaignSpec.load(spec_path)
        serial = run_campaign(campaign, store="json")
        coordinator = Coordinator(
            campaign, journal_path=journal, journal_store="arrow"
        )
        for outcome in serial:
            coordinator.submit("w0", None, outcome)
        coordinator.close_journal()
        assert result_store.is_store_file(journal + ".outcomes")
