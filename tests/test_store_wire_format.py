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

Lines are written as one sorted-key ``json.dumps`` of the record, frames
packed (every all-float column as base64 of little-endian binary64),
followed by ``metrics`` and ``digest``, under a version-2 header.  Two
older layouts, both under a version-1 header, are committed as shard 0
and still loaded, resumed and merged here:

* ``tests/data/store-wire-format.shard0.v1.store.gz``: record keys in
  insertion order, frames as JSON lists, pinned by :data:`SHA256`;
* ``tests/data/store-wire-format.shard0.text.store.gz``: sorted keys,
  frames as JSON lists, pinned by :data:`SORTED_SHA256`.
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
from repro.errors import ConfigurationError
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

#: sha256 of each file the fixture wrote in the sorted-key, list-framed
#: line layout (version 1); ``shard0.store`` is the committed text shard.
SORTED_SHA256 = {
    "shard0.store": "f5f1cd2ac10d4070748b355d7cb37249ac99340ac2fbab9728b4e44358c9a08a",
    "shard1.store": "75d0a499f7ffccead27f783c99200cd8507e9cd995ee3fbb6a942bcbdb2d102d",
    "merged.store": "e78fb0fcfccd9a6b9b97f06ff401c5bcf14e89bb2a56379ca3269ee0187bfba8",
}

#: sha256 of each file the fixture writes in the current (packed, version
#: 2) layout.  A change here is a change of the on-disk store format.
PACKED_SHA256 = {
    "shard0.store": "f3465fd03062a9efcc08a52cde132b6189705a9a360abc824f8c414221412fa7",
    "shard1.store": "38ddffa3aeb62c6668f47275527badc1a4d59b59933c04e5e9af0a8cc6a7c02b",
    "merged.store": "ba426fd24110d95ecfde44863f44cb64c8cda39050f2beebbf9b7ff3de615359",
}

#: sha256 of the ``--spec`` merge of shard 0 in each layout with the
#: current shard 1, for every ``--store``: a version-1 line is re-sealed
#: (frames packed, digest recomputed), so every layout merges to the bytes
#: of a current merge.
MIXED_LAYOUT_SHA256 = {
    "v1": PACKED_SHA256["merged.store"],
    "text": PACKED_SHA256["merged.store"],
    "packed": PACKED_SHA256["merged.store"],
}

#: The committed shard-0 file of each older layout.
OLD_LAYOUT_FILES = {
    "v1": "store-wire-format.shard0.v1.store",
    "text": "store-wire-format.shard0.text.store",
}


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
def layouts(wire_dir, tmp_path):
    """Shard 0 in every layout: the two committed older ones and the current."""
    paths = {}
    for layout, name in OLD_LAYOUT_FILES.items():
        paths[layout] = tmp_path / f"{layout}-shard0.store"
        paths[layout].write_bytes(legacy_bytes(name))
    paths["packed"] = tmp_path / "packed-shard0.store"
    paths["packed"].write_bytes((wire_dir / "shard0.store").read_bytes())
    return paths


def header_version(path) -> int:
    with open(path, "rb") as handle:
        return result_store._read_header(handle)["version"]


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PACKED_SHA256))
    def test_digest(self, wire_dir, name):
        assert sha256(wire_dir / name) == PACKED_SHA256[name]

    def test_old_layout_shard_is_pinned(self, layouts):
        assert sha256(layouts["v1"]) == SHA256["shard0.store"]
        assert sha256(layouts["text"]) == SORTED_SHA256["shard0.store"]
        assert header_version(layouts["v1"]) == header_version(layouts["text"]) == 1
        assert header_version(layouts["packed"]) == result_store.FORMAT_VERSION == 2

    def test_files_are_jsonl_stores(self, wire_dir):
        for name in SHA256:
            reader = result_store.StoreReader(str(wire_dir / name))
            assert reader.encoding == result_store.ENCODING_JSONL

    @pytest.mark.parametrize("index", [0, 1])
    def test_checkpoint_equals_output(self, wire_dir, index):
        checkpoint = (wire_dir / f"shard{index}.ckpt").read_bytes()
        assert checkpoint == (wire_dir / f"shard{index}.store").read_bytes()

    def test_float_columns_are_packed(self, wire_dir):
        line = (wire_dir / "shard0.store").read_bytes().splitlines()[1]
        frames = json.loads(line)["result"]["frames"]
        lists = sorted(name for name, column in frames.items() if isinstance(column, list))
        assert lists == ["explored", "index", "operating_index"]
        assert set(frames["cycles_per_core"]) == {"packed", "width"}
        assert isinstance(frames["energy_j"], str)


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
        assert sha256(merged) == PACKED_SHA256["merged.store"]
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
        record["result"]["frames"]["index"].pop()
        ragged = tmp_path / "ragged.store"
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        ragged.write_bytes(lines[0] + line + b"".join(lines[2:]))
        output = tmp_path / "merged.json"
        assert merge(ragged, wire_dir / "shard1.store", "--store", "json", "--output", output) == 2
        assert os.listdir(tmp_path) == ["ragged.store"]

    @pytest.mark.parametrize("store", ["arrow", "json"])
    def test_mixed_legacy_and_jsonl_inputs(self, wire_dir, layouts, tmp_path, store):
        for layout, shard0 in layouts.items():
            merged = tmp_path / f"merged-{layout}"
            assert merge(
                shard0, wire_dir / "shard1.store",
                "--spec", wire_dir / "spec.json", "--store", store, "--output", merged,
            ) == 0
            assert sha256(merged) == MIXED_LAYOUT_SHA256[layout], layout
            assert header_version(merged) == result_store.FORMAT_VERSION
            assert saved_bytes(CampaignResult.load(str(merged))) == (
                wire_dir / "merged.store"
            ).read_bytes()


class TestOldLayout:
    """Shard 0 loads, resumes and merges alike in every layout."""

    def test_loads_to_the_current_bytes(self, wire_dir, layouts):
        current = (wire_dir / "shard0.store").read_bytes()
        for layout, path in layouts.items():
            for lazy in (False, True):
                loaded = CampaignResult.load(str(path), lazy=lazy)
                assert saved_bytes(loaded) == current, (layout, lazy)

    def test_record_digest_is_equal_across_layouts(self, wire_dir, layouts):
        digests = {}
        for layout, path in layouts.items():
            records = [r for r, _ in result_store.StoreReader(str(path)).iter_records()]
            digests[layout] = [result_store.record_digest(r) for r in records]
            stored = [r["digest"] for r in records]
            # A version-1 line's stored digest hashed its list-form frames,
            # so it cannot be recomputed; the merge never reads it.
            assert (stored == digests[layout]) == (layout == "packed"), layout
        assert digests["v1"] == digests["text"] == digests["packed"]

    def test_resumes_without_rerunning(self, wire_dir, layouts):
        spec = CampaignSpec.load(str(wire_dir / "spec.json"))
        argv = [str(wire_dir / "spec.json"), "--shard", "0/2", "--store", "arrow"]
        for layout, path in layouts.items():
            assert cli_main(argv + ["--checkpoint", str(path), "--quiet"]) == 0
            # Every scenario was already done: the checkpoint is just
            # rewritten in the current layout.
            assert path.read_bytes() == (wire_dir / "shard0.store").read_bytes(), layout
            assert len(CampaignResult.load(str(path))) == len(spec.shard(0, 2))

    def test_shared_scenario_with_a_current_shard_is_a_duplicate(
        self, wire_dir, layouts, tmp_path
    ):
        header, first, *_ = (wire_dir / "shard0.store").read_bytes().splitlines(True)
        one = tmp_path / "one.store"
        one.write_bytes(header + first)
        for layout, shard0 in layouts.items():
            merged = tmp_path / f"merged-{layout}.store"
            stats = result_store.merge_store_files(
                [str(shard0), str(one), str(wire_dir / "shard1.store")],
                str(merged),
                spec=CampaignSpec.load(str(wire_dir / "spec.json")),
                store="json",
            )
            assert stats.duplicates == 1, layout
            assert stats.scenarios == len(store_campaign())

    def test_appends_never_land_under_a_version_1_header(
        self, wire_dir, layouts, tmp_path, monkeypatch
    ):
        old = layouts["v1"]
        before = old.read_bytes()
        with pytest.raises(ConfigurationError, match="format version 1"):
            result_store.StoreWriter.open_append(str(old))
        assert old.read_bytes() == before
        # Resume from a version-1 checkpoint that lacks one outcome: the
        # missing scenario is run and checkpointed, and every append finds
        # the current header.
        header, *lines = before.splitlines(keepends=True)
        old.write_bytes(header + b"".join(lines[:-1]))
        headers = []
        append = result_store.StoreWriter.append_outcomes

        def checked(writer, outcomes):
            headers.append(header_version(writer.path))
            return append(writer, outcomes)

        monkeypatch.setattr(result_store.StoreWriter, "append_outcomes", checked)
        argv = [str(wire_dir / "spec.json"), "--shard", "0/2", "--store", "arrow"]
        assert cli_main(argv + ["--checkpoint", str(old), "--quiet"]) == 0
        assert headers and set(headers) == {result_store.FORMAT_VERSION}
        assert old.read_bytes() == (wire_dir / "shard0.store").read_bytes()

    @pytest.mark.parametrize("layout", sorted(OLD_LAYOUT_FILES))
    def test_merge_reseals_version_1_lines(self, wire_dir, layouts, tmp_path, layout):
        spec = CampaignSpec.load(str(wire_dir / "spec.json"))
        shards = [layouts[layout], wire_dir / "shard1.store"]
        merged = tmp_path / "merged.store"
        result_store.merge_store_files(
            [str(path) for path in shards], str(merged), spec=spec, store="json"
        )
        records = [r for r, _ in result_store.StoreReader(str(merged)).iter_records()]
        assert len(records) == len(spec.scenarios)
        # Every line answers for itself: its stored digest is its content's.
        assert [r["digest"] for r in records] == [
            result_store.record_digest(r) for r in records
        ]
        inputs = {
            outcome.scenario_id: outcome
            for path in shards
            for outcome in CampaignResult.load(str(path))
        }
        for outcome in CampaignResult.load(str(merged)):
            source = inputs[outcome.scenario_id]
            assert outcome.result == source.result, outcome.label
            assert (outcome.status, outcome.metrics) == (source.status, source.metrics)
        # Re-sealed, the lines are the bytes a merge of current shards writes.
        assert merged.read_bytes() == (wire_dir / "merged.store").read_bytes()
