"""Each outcome is encoded into a columnar store record exactly once.

A ``--store arrow --checkpoint ... --output ...`` run writes every
outcome three times: the checkpoint append, the final checkpoint rewrite
and the ``--output`` save.  The first write leaves a slot on the
:class:`ScenarioOutcome` (file, offset, length, checksum) and the later
ones copy those bytes back, so :func:`encode_record` (and the
``summarize_result`` it calls for the cached metrics) runs once per
outcome.  The slot must stay small, must be dropped when its file no
longer holds the bytes, and must stay invisible to equality, ``repr``,
``to_dict`` and the bytes on disk.
"""

import filecmp
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.campaign import CampaignResult, CampaignSpec, FactorySpec, run_campaign
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main

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
    """Count calls of the store's encoder and of its metrics summariser."""
    counts = Counter()
    for name in ("encode_record", "summarize_result"):
        original = getattr(result_store, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(result_store, name, counting)
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
        assert counts == Counter(encode_record=outcomes, summarize_result=outcomes)

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
        assert calls["encode_record"] == 1
        assert filecmp.cmp(first, second, shallow=False)
        assert outcome.store_slot.path == second

    def test_slot_holds_no_payload(self, outcome, tmp_path):
        save(outcome, tmp_path / "out.store")
        slot = outcome.store_slot
        assert slot.length > 10_000
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
        assert calls["encode_record"] == (3 if change == "rewrite" else 2)
        fresh = save(replace(outcome), tmp_path / "fresh.store")
        assert filecmp.cmp(second, fresh, shallow=False)

    def test_replace_encodes_afresh(self, outcome, calls, tmp_path):
        digest = stored_record(save(outcome, tmp_path / "first.store"))["digest"]
        retried = replace(outcome, attempts=2)
        assert retried.store_slot is None
        record = stored_record(save(retried, tmp_path / "retried.store"))
        assert record["attempts"] == 2
        assert record["digest"] != digest
        assert calls["encode_record"] == 2

    def test_slot_is_invisible(self, outcome, tmp_path):
        fresh = replace(outcome)
        save(outcome, tmp_path / "out.store")
        assert outcome.store_slot is not None
        assert outcome == fresh
        assert repr(outcome) == repr(fresh)
        assert json.dumps(outcome.to_dict()) == json.dumps(fresh.to_dict())
