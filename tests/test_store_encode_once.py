"""Each outcome is encoded into a columnar store record exactly once.

A ``--store arrow --checkpoint ... --output ...`` run writes every
outcome three times: the checkpoint append, the final checkpoint rewrite
and the ``--output`` save.  The first write leaves a slot on the
:class:`ScenarioOutcome` (file, offset, length, checksum) and the later
ones copy those bytes back, so the encoder (:func:`encode_line` for jsonl,
:func:`encode_record` for Arrow, and the ``summarize_result`` behind the
cached metrics) runs once per outcome.  The slot must stay small,
must be dropped when its file no longer holds the bytes, and must stay
invisible to equality, ``repr`` and the bytes on disk.

A jsonl line is itself one ``json.dumps`` of the record: its ``digest``
hashes those same bytes and equals :func:`record_digest`.

The summary behind a record's ``metrics`` is kept on the outcome's
result (``result.summary``), so :meth:`ScenarioOutcome.metrics_summary`
after a save (or a save after it) summarises the frames once between
them.
"""

import filecmp
import json
import os
from collections import Counter
from dataclasses import asdict, replace

import pytest

from repro.campaign import CampaignResult, CampaignSpec, FactorySpec, run_campaign
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.sim import metrics
from tests.conftest import saved_bytes

FRAMES = 40


def small_campaign():
    return CampaignSpec.from_grid(
        "encode-once",
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=(1, 2),
    )


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the store's encoders (as ``encode``) and of the summariser."""
    counts = Counter()
    for module, name in (
        (result_store, "encode_line"),
        (result_store, "encode_record"),
        (metrics, "summarize_result"),
    ):
        original = getattr(module, name)
        key = "encode" if name.startswith("encode") else name

        def counting(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.fixture
def outcome():
    return next(iter(run_campaign(small_campaign(), store="json")))


class TestCliShardRun:
    @pytest.fixture
    def shard_run(self, tmp_path, calls):
        spec = str(tmp_path / "spec.json")
        small_campaign().save(spec)
        checkpoint = str(tmp_path / "shard0.ckpt")
        output = str(tmp_path / "shard0.store")
        argv = [spec, "--shard", "0/2", "--store", "arrow", "--quiet"]
        assert cli_main(argv + ["--checkpoint", checkpoint, "--output", output]) == 0
        outcomes = len(CampaignResult.load(output))
        return checkpoint, output, outcomes, Counter(calls)

    def test_one_encode_and_one_summary_per_outcome(self, shard_run):
        _, _, outcomes, counts = shard_run
        assert outcomes == len(small_campaign().shard(0, 2))
        assert counts == Counter(encode=outcomes, summarize_result=outcomes)

    def test_checkpoint_output_and_slot_less_save_agree(self, shard_run, tmp_path):
        checkpoint, output, _, _ = shard_run
        assert filecmp.cmp(checkpoint, output, shallow=False)
        resaved = str(tmp_path / "resaved.store")
        result_store.save_store(
            CampaignResult.load(output), resaved, result_store.negotiate_store("arrow")
        )
        assert filecmp.cmp(output, resaved, shallow=False)


def save(outcome, path):
    store = CampaignResult(campaign_name="encode-once")
    store.add(outcome)
    result_store.save_store(store, str(path), result_store.negotiate_store("arrow"))
    return str(path)


def stored_record(path):
    (record, _), = result_store.StoreReader(path).iter_records()
    return record


class TestSlot:
    def test_repeated_writes_copy_the_bytes(self, outcome, calls, tmp_path):
        first = save(outcome, tmp_path / "first.store")
        second = save(outcome, tmp_path / "second.store")
        assert calls["encode"] == 1
        assert filecmp.cmp(first, second, shallow=False)
        assert outcome.store_slot.path == second

    def test_slot_holds_no_payload(self, outcome, tmp_path):
        save(outcome, tmp_path / "out.store")
        slot = outcome.store_slot
        # The slot names the whole line (one record of FRAMES frames) and
        # holds a small fixed part of it: a path, offsets and a checksum.
        with open(slot.path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        assert (len(lines), slot.offset, slot.length) == (2, len(lines[0]), len(lines[1]))
        assert slot.length > 5_000
        assert all(isinstance(value, (str, int, bytes)) for value in slot)
        assert len(slot.checksum) == 32

    @pytest.mark.parametrize("change", ["rewrite", "truncate", "remove"])
    def test_changed_file_is_encoded_afresh(self, outcome, calls, tmp_path, change):
        first = save(outcome, tmp_path / "first.store")
        if change == "rewrite":
            save(replace(outcome, attempts=3), first)
        elif change == "truncate":
            with open(first, "r+b") as handle:
                handle.truncate(outcome.store_slot.offset + 100)
        else:
            os.unlink(first)
        second = save(outcome, tmp_path / "second.store")
        assert calls["encode"] == (3 if change == "rewrite" else 2)
        fresh = save(replace(outcome), tmp_path / "fresh.store")
        assert filecmp.cmp(second, fresh, shallow=False)

    def test_replace_encodes_afresh(self, outcome, calls, tmp_path):
        digest = stored_record(save(outcome, tmp_path / "first.store"))["digest"]
        retried = replace(outcome, attempts=2)
        assert retried.store_slot is None
        record = stored_record(save(retried, tmp_path / "retried.store"))
        assert record["attempts"] == 2
        assert record["digest"] != digest
        assert calls["encode"] == 2

    def test_slot_is_invisible(self, outcome, tmp_path):
        fresh = replace(outcome)
        save(outcome, tmp_path / "out.store")
        assert outcome.store_slot is not None
        assert outcome == fresh
        assert repr(outcome) == repr(fresh)
        assert saved_bytes(outcome) == saved_bytes(fresh)


class TestSummaryOnce:
    """The store's metrics and :meth:`metrics_summary` share one summary."""

    def test_save_then_summary(self, outcome, calls, tmp_path):
        path = save(outcome, tmp_path / "out.store")
        summary = outcome.metrics_summary()
        assert outcome.metrics_summary() is summary
        assert calls["summarize_result"] == 1
        assert asdict(summary) == stored_record(path)["metrics"]

    def test_summary_then_save(self, outcome, calls, tmp_path):
        summary = outcome.metrics_summary()
        path = save(outcome, tmp_path / "out.store")
        assert calls["summarize_result"] == 1
        assert asdict(summary) == stored_record(path)["metrics"]

    def test_replace_shares_the_result_summary(self, outcome, calls):
        # The summary is the result's, so a replaced outcome that keeps the
        # result keeps its summary too.
        summary = outcome.metrics_summary()
        retried = replace(outcome, attempts=2)
        assert retried.result.summary is summary
        assert retried.metrics_summary() is summary
        assert calls["summarize_result"] == 1


class TestOneDumpPerRecord:
    @pytest.fixture
    def saved(self, tmp_path):
        store = run_campaign(small_campaign())
        path = str(tmp_path / "out.store")
        result_store.save_store(store, path, result_store.ENCODING_JSONL)
        return store, path

    def test_digest_is_record_digest(self, saved):
        store, path = saved
        records = [record for record, _ in result_store.StoreReader(path).iter_records()]
        assert len(records) == len(store)
        for record, outcome in zip(records, store):
            assert record["digest"] == result_store.record_digest(record)
            # One digest whether the frames are lists or packed.
            assert record["digest"] == result_store.record_digest(
                result_store.encode_record(outcome)
            )

    def test_line_is_the_canonical_dump_plus_metrics_and_digest(self, saved):
        _, path = saved
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()[1:]
        for line in lines:
            record = json.loads(line)
            body = {k: v for k, v in record.items() if k not in ("metrics", "digest")}
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            assert line.startswith(canonical[:-1].encode("utf-8") + b',"metrics":')
            assert line.endswith(b',"digest":"' + record["digest"].encode("ascii") + b'"}')

    def test_frames_are_dumped_once_per_record(self, tmp_path, monkeypatch):
        store = run_campaign(small_campaign())
        frame_dumps = []
        real_dumps = json.dumps

        def dumps(payload, *args, **kwargs):
            if isinstance(payload, dict) and "result" in payload:
                frame_dumps.append(payload["scenario"]["label"])
            return real_dumps(payload, *args, **kwargs)

        monkeypatch.setattr(result_store.json, "dumps", dumps)
        result_store.save_store(
            store, str(tmp_path / "out.store"), result_store.ENCODING_JSONL
        )
        assert frame_dumps == [outcome.label for outcome in store]
