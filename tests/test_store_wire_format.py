"""The jsonl encoding of the columnar result store, pinned byte for byte.

The companion of ``tests/test_result_wire_format.py`` for ``--store
arrow`` on a pyarrow-less install: a small fixed grid runs through the CLI
as two checkpointed shards, which are then merged with ``--spec``.  The
sha256 of both shard files and of the merged store hold the on-disk
format still, whichever path writes a record (append, final rewrite,
bulk save) and however the merge moves it (raw jsonl line or re-encode).

The merge cases around the raw-line path are pinned the same way: a shard
whose last line lost its trailing newline, a garbled line, and a mix of
old-layout and current jsonl shards.

Lines are written as one sorted-key ``json.dumps`` of the record followed
by ``metrics`` and ``digest``.  Earlier releases wrote the record's keys in
insertion order; ``tests/data/store-wire-format.shard0.v1.store.gz`` is
shard 0 in that old layout, pinned by :data:`SHA256` and still loaded,
resumed and merged here.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import _compat
from repro.campaign import CampaignResult, CampaignSpec, FactorySpec
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.testing.parity.harness import paper_governors
from tests.conftest import legacy_bytes, saved_bytes

# The pinned digests name which engine ran each scenario: without numpy
# the vectorised backend is absent and negotiation picks another engine.
pytest.importorskip("numpy")

#: sha256 of each file the fixture wrote in the old (insertion-order) line
#: layout; ``shard0.store`` is the committed legacy shard.
SHA256 = {
    "shard0.store": "72eeedbbe96776b588dbfe8249583fa81a7c2d115ece7959b60f135c0bc94fae",
    "shard1.store": "6e03bf1ff51c4039c5af4ef9cb69651329576ea40cb79ec43fff4926736e9918",
    "merged.store": "6865ed8006c3b6558569bd2de28286d2eec1a8a637dceb2e04dd288a6f7d8fd1",
}

#: sha256 of the ``--spec`` merge of a legacy-JSON shard 0 with the jsonl
#: shard 1 in the old layout, per ``--store`` (``json`` then wrote a blob).
MIXED_SHA256 = {
    "arrow": SHA256["merged.store"],
    "json": "4aaa7f3c4da59543c5fb04da0b23ad64586a19abcb55fca83f256d186fa659cf",
}

#: sha256 of each file the fixture writes in the current (sorted-key) line
#: layout.  A change here is a change of the on-disk store format.
SORTED_SHA256 = {
    "shard0.store": "f5f1cd2ac10d4070748b355d7cb37249ac99340ac2fbab9728b4e44358c9a08a",
    "shard1.store": "75d0a499f7ffccead27f783c99200cd8507e9cd995ee3fbb6a942bcbdb2d102d",
    "merged.store": "e78fb0fcfccd9a6b9b97f06ff401c5bcf14e89bb2a56379ca3269ee0187bfba8",
}

#: sha256 of the ``--spec`` merge of the old-layout shard 0 with the
#: current shard 1, for every ``--store``: lines are copied as read, so
#: each keeps its layout.
MIXED_LAYOUT_SHA256 = "cf4563c5356f0ecfcc992257c8491d4da4675f753ae943e628172f66a0829ee3"


def store_campaign() -> CampaignSpec:
    """The 7 paper governors on mpeg4 and fft, one seed, 40 frames."""
    return CampaignSpec.from_grid(
        "store-wire-format",
        applications=[
            FactorySpec.of("mpeg4", num_frames=40),
            FactorySpec.of("fft", num_frames=40),
        ],
        governors=paper_governors(),
        seeds=(5,),
    )


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def merge(*args) -> int:
    return cli_main(["merge", *map(str, args), "--quiet"])


@pytest.fixture(autouse=True)
def _jsonl_encoding(monkeypatch):
    """Pin ``--store arrow`` to jsonl even where pyarrow is installed."""
    monkeypatch.setenv("REPRO_DISABLE_ARROW", "1")


@pytest.fixture(scope="module")
def wire_dir(tmp_path_factory):
    # Module-scoped fixtures run before conftest's function-scoped pin of
    # engine negotiation, so pin it (and the jsonl encoding) here too.
    workdir = tmp_path_factory.mktemp("store-wire")
    spec = workdir / "spec.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_compat, "HAVE_NUMBA", False)
        patch.setenv("REPRO_DISABLE_ARROW", "1")
        store_campaign().save(str(spec))
        for index in range(2):
            argv = [str(spec), "--shard", f"{index}/2", "--store", "arrow", "--quiet"]
            checkpoint = workdir / f"shard{index}.ckpt"
            output = workdir / f"shard{index}.store"
            assert cli_main(argv + ["--checkpoint", str(checkpoint), "--output", str(output)]) == 0
        assert merge(
            workdir / "shard0.store", workdir / "shard1.store",
            "--spec", spec, "--store", "arrow", "--output", workdir / "merged.store",
        ) == 0
    return workdir


@pytest.fixture
def old_shard0(tmp_path):
    """The committed shard 0 in the old line layout."""
    path = tmp_path / "old-shard0.store"
    path.write_bytes(legacy_bytes("store-wire-format.shard0.v1.store"))
    return path


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(SORTED_SHA256))
    def test_digest(self, wire_dir, name):
        assert sha256(wire_dir / name) == SORTED_SHA256[name]

    def test_old_layout_shard_is_pinned(self, old_shard0):
        assert sha256(old_shard0) == SHA256["shard0.store"]

    def test_files_are_jsonl_stores(self, wire_dir):
        for name in SHA256:
            reader = result_store.StoreReader(str(wire_dir / name))
            assert reader.encoding == result_store.ENCODING_JSONL

    @pytest.mark.parametrize("index", [0, 1])
    def test_checkpoint_equals_output(self, wire_dir, index):
        checkpoint = (wire_dir / f"shard{index}.ckpt").read_bytes()
        assert checkpoint == (wire_dir / f"shard{index}.store").read_bytes()


class TestRawLineMerge:
    def test_missing_final_newline_still_merges(self, wire_dir, tmp_path):
        torn = tmp_path / "shard1.store"
        data = (wire_dir / "shard1.store").read_bytes()
        assert data.endswith(b"}\n")
        torn.write_bytes(data[:-1])
        merged = tmp_path / "merged.store"
        assert merge(
            wire_dir / "shard0.store", torn,
            "--spec", wire_dir / "spec.json", "--store", "arrow", "--output", merged,
        ) == 0
        assert merged.read_bytes().endswith(b"}\n")
        assert sha256(merged) == SORTED_SHA256["merged.store"]
        assert len(CampaignResult.load(str(merged))) == len(store_campaign())

    @pytest.mark.parametrize("store", ["arrow", "json"])
    def test_garbled_line_fails_without_output(self, wire_dir, tmp_path, store):
        lines = (wire_dir / "shard0.store").read_bytes().splitlines(keepends=True)
        garbled_line = lines[2][: len(lines[2]) // 2] + b"\n"
        garbled = tmp_path / "garbled.store"
        garbled.write_bytes(b"".join(lines[:2] + [garbled_line] + lines[3:]))
        output = tmp_path / "merged"
        with pytest.raises(ValueError):
            result_store.merge_store_files(
                [str(garbled), str(wire_dir / "shard1.store")], str(output), store=store
            )
        assert merge(garbled, wire_dir / "shard1.store", "--store", store, "--output", output) == 2
        assert os.listdir(tmp_path) == ["garbled.store"]

    def test_garbled_line_keeps_previous_output(self, wire_dir, tmp_path):
        garbled = tmp_path / "garbled.store"
        garbled.write_bytes((wire_dir / "shard0.store").read_bytes() + b"{garbled\n")
        output = tmp_path / "merged.store"
        previous = (wire_dir / "merged.store").read_bytes()
        output.write_bytes(previous)
        shard1 = wire_dir / "shard1.store"
        assert merge(garbled, shard1, "--store", "arrow", "--output", output) == 2
        assert output.read_bytes() == previous
        assert sorted(os.listdir(tmp_path)) == ["garbled.store", "merged.store"]

    def test_undecodable_record_leaves_no_temp_file(self, wire_dir, tmp_path):
        # Parses, but fails to decode (ragged frame columns): the merge
        # stops before it writes any output.
        lines = (wire_dir / "shard0.store").read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["result"]["frames"]["energy_j"].pop()
        ragged = tmp_path / "ragged.store"
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        ragged.write_bytes(lines[0] + line + b"".join(lines[2:]))
        output = tmp_path / "merged.json"
        assert merge(ragged, wire_dir / "shard1.store", "--store", "json", "--output", output) == 2
        assert os.listdir(tmp_path) == ["ragged.store"]

    @pytest.mark.parametrize("store", sorted(MIXED_SHA256))
    def test_mixed_legacy_and_jsonl_inputs(self, wire_dir, old_shard0, tmp_path, store):
        merged = tmp_path / "merged"
        assert merge(
            old_shard0, wire_dir / "shard1.store",
            "--spec", wire_dir / "spec.json", "--store", store, "--output", merged,
        ) == 0
        assert sha256(merged) == MIXED_LAYOUT_SHA256
        assert saved_bytes(CampaignResult.load(str(merged))) == (
            wire_dir / "merged.store"
        ).read_bytes()


class TestOldLayout:
    def test_loads_to_the_current_bytes(self, wire_dir, old_shard0):
        loaded = CampaignResult.load(str(old_shard0), lazy=True)
        assert saved_bytes(loaded) == (wire_dir / "shard0.store").read_bytes()

    def test_digests_are_unchanged(self, wire_dir, old_shard0):
        old = list(result_store.StoreReader(str(old_shard0)).iter_records())
        new = list(result_store.StoreReader(str(wire_dir / "shard0.store")).iter_records())
        assert [r["digest"] for r, _ in old] == [r["digest"] for r, _ in new]
        for record, _ in old + new:
            assert record["digest"] == result_store.record_digest(record)

    def test_resumes_without_rerunning(self, wire_dir, old_shard0):
        spec = CampaignSpec.load(str(wire_dir / "spec.json"))
        argv = [str(wire_dir / "spec.json"), "--shard", "0/2", "--store", "arrow"]
        assert cli_main(argv + ["--checkpoint", str(old_shard0), "--quiet"]) == 0
        # Every scenario was already done: the checkpoint is just rewritten
        # in the current layout.
        assert old_shard0.read_bytes() == (wire_dir / "shard0.store").read_bytes()
        assert len(CampaignResult.load(str(old_shard0))) == len(spec.shard(0, 2))

    def test_shared_scenario_with_a_current_shard_is_a_duplicate(
        self, wire_dir, old_shard0, tmp_path
    ):
        header, first, *_ = (wire_dir / "shard0.store").read_bytes().splitlines(True)
        one = tmp_path / "one.store"
        one.write_bytes(header + first)
        merged = tmp_path / "merged.store"
        stats = result_store.merge_store_files(
            [str(old_shard0), str(one), str(wire_dir / "shard1.store")],
            str(merged),
            spec=CampaignSpec.load(str(wire_dir / "spec.json")),
            store="json",
        )
        assert stats.duplicates == 1
        assert stats.scenarios == len(store_campaign())
