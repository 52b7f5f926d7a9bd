"""The legacy JSON blob of campaign results, pinned byte for byte.

Nothing writes the blob any more: every outcome is saved as a result
store record (``tests/test_store_wire_format.py`` pins those bytes).
Results saved by earlier releases must still load, resume and merge, so
``tests/data/wire-format.v1.json.gz`` holds the blob the record-at-a-time
serialiser (``FrameRecord.to_dict`` per frame) wrote for
:func:`~tests.conftest.wire_campaign`.  These tests pin that file and hold
its one reader (:func:`repro.campaign.store.blob_store`) to its exact
contents and strictness.
"""

import copy
import hashlib
import json

import pytest

from repro import _compat
from repro.campaign import CampaignExecutor, CampaignResult, Coordinator, run_campaign
from repro.campaign import store as result_store
from repro.sim.epoch import FrameColumns, FrameRecord
from repro.sim.results import SimulationResult
from tests.conftest import (
    legacy_bytes,
    outcome_of,
    saved_bytes,
    store_round_trip,
    wire_campaign,
)


#: sha256 of ``CampaignResult.to_json()`` for :func:`wire_campaign`, as
#: written by the record-at-a-time serialiser (``FrameRecord.to_dict`` per
#: frame): the committed ``tests/data/wire-format.v1.json.gz``.
WIRE_SHA256 = "69051c41c08ab29e27343c0d1a257ced9c2697d87c323a2a379897d2b39b553c"


@pytest.fixture(scope="module")
def wire_store():
    # Module-scoped fixtures run before conftest's function-scoped pin of
    # engine negotiation, so pin it here too: with numba installed, auto
    # negotiation would stamp the closed-loop scenarios "jitpath".
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_compat, "HAVE_NUMBA", False)
        return run_campaign(wire_campaign())


@pytest.fixture(scope="module")
def legacy_text():
    return legacy_bytes("wire-format.v1.json").decode("utf-8")


@pytest.fixture
def legacy_data(legacy_text):
    """A fresh parse of the blob, for tests that edit it."""
    return json.loads(legacy_text)


def legacy_result(data, label):
    """The saved result dict of the outcome labelled ``label``."""
    return next(
        item["result"] for item in data["outcomes"] if item["scenario"]["label"] == label
    )


def blob_result(data, label):
    """The result labelled ``label`` of the blob ``data``, as the store reads it."""
    return result_store.blob_store(data).result(label)


@pytest.fixture(scope="module")
def columnar(wire_store):
    result = wire_store.result("ondemand")
    assert result.columns is not None
    return result


def record_twin(result: SimulationResult) -> SimulationResult:
    """The same run rebuilt from its materialised records (``records=`` input)."""
    return SimulationResult(
        governor_name=result.governor_name,
        application_name=result.application_name,
        reference_time_s=result.reference_time_s,
        records=result.columns.materialize(),
        exploration_count=result.exploration_count,
        converged_epoch=result.converged_epoch,
        engine_used=result.engine_used,
    )


class TestPinnedBytes:
    def test_grid_covers_both_backing_stores(self, wire_store):
        # The scalar engine builds its result from records; like every
        # other engine's, that result is held as frame columns.
        scalar = wire_store.result("ondemand-scalar")
        assert scalar.engine_used == "scalar"
        assert isinstance(scalar.columns, FrameColumns)
        assert isinstance(wire_store.result("ondemand").columns, FrameColumns)

    def test_to_json_digest(self, legacy_text):
        assert hashlib.sha256(legacy_text.encode("utf-8")).hexdigest() == WIRE_SHA256

    def test_blob_round_trip_is_exact(self, wire_store, legacy_data):
        # The blob loads to exactly what a fresh run saves.
        loaded = result_store.blob_store(legacy_data)
        assert saved_bytes(loaded) == saved_bytes(wire_store)

    def test_v1_checkpoint_resumes_and_is_rewritten_as_a_store(
        self, wire_store, legacy_text, tmp_path
    ):
        checkpoint = tmp_path / "ckpt.json"
        checkpoint.write_text(legacy_text, encoding="utf-8")
        resume = CampaignResult.load_checkpoint(str(checkpoint))
        executed = []
        resumed = CampaignExecutor().run(
            wire_campaign(),
            resume=resume,
            progress=lambda label, done, total: executed.append(label),
            checkpoint_path=str(checkpoint),
        )
        assert executed == [] and len(resumed) == len(wire_campaign())
        assert result_store.is_store_file(str(checkpoint))
        assert checkpoint.read_bytes() == saved_bytes(wire_store)

    def test_v1_journal_resumes_and_is_rewritten_as_a_store(
        self, wire_store, legacy_data, tmp_path
    ):
        journal = tmp_path / "journal.json"
        journal.write_text(
            json.dumps(
                {
                    "campaign_name": legacy_data["campaign_name"],
                    "attempts": {},
                    "results": legacy_data,
                }
            ),
            encoding="utf-8",
        )
        coordinator = Coordinator(wire_campaign(), journal_path=str(journal))
        coordinator.close_journal()
        assert coordinator.stats["resumed"] == len(wire_campaign())
        assert saved_bytes(coordinator.result()) == saved_bytes(wire_store)
        assert json.loads(journal.read_text(encoding="utf-8"))["outcomes"] == "store"
        sidecar = CampaignResult.load(f"{journal}.outcomes")
        assert saved_bytes(sidecar) == saved_bytes(wire_store)


class TestBlobReaderHasNoSideEffects:
    def test_blob_is_left_unchanged_and_reads_the_same_twice(self, legacy_data):
        baseline = copy.deepcopy(legacy_data)
        first = result_store.blob_store(legacy_data)
        assert legacy_data == baseline
        second = result_store.blob_store(legacy_data)
        assert legacy_data == baseline
        assert first == second
        assert saved_bytes(first) == saved_bytes(second)


class TestTwoPathsAgree:
    def test_columnar_and_record_backed_serialise_identically(self, columnar):
        # ``records=`` input and ``columns=`` input save the same bytes.
        twin = record_twin(columnar)
        assert twin.columns is not columnar.columns
        assert twin == columnar
        assert twin.records == columnar.records
        assert saved_bytes(outcome_of(columnar)) == saved_bytes(outcome_of(twin))

    def test_to_dict_keeps_the_columns(self, columnar):
        # Saving reads the columns without materialising records.
        before = columnar.columns
        saved_bytes(outcome_of(columnar))
        assert columnar.columns is before

    def test_blob_is_columnar_with_the_same_records(self, columnar, legacy_data):
        data = legacy_result(legacy_data, "ondemand")
        loaded = blob_result(legacy_data, "ondemand")
        assert isinstance(loaded.columns, FrameColumns)
        assert loaded.records == tuple(
            FrameRecord(**{**frame, "cycles_per_core": tuple(frame["cycles_per_core"])})
            for frame in data["records"]
        )
        assert saved_bytes(outcome_of(record_twin(loaded))) == saved_bytes(
            outcome_of(columnar)
        )
        assert saved_bytes(outcome_of(loaded)) == saved_bytes(outcome_of(columnar))

    def test_zero_frames_round_trip(self, legacy_data):
        empty = SimulationResult("ondemand", "mpeg4", 0.04, records=[])
        from_columns = SimulationResult(
            "ondemand", "mpeg4", 0.04, columns=FrameColumns.from_records(())
        )
        assert saved_bytes(outcome_of(empty)) == saved_bytes(outcome_of(from_columns))
        loaded = store_round_trip(empty)
        assert loaded.num_frames == 0
        assert loaded.records == ()
        legacy_result(legacy_data, "ondemand")["records"] = []
        assert blob_result(legacy_data, "ondemand").num_frames == 0

    def test_explored_keeps_its_default(self, legacy_data):
        data = legacy_result(legacy_data, "ondemand")
        for frame in data["records"]:
            del frame["explored"]
        loaded = blob_result(legacy_data, "ondemand")
        assert not any(loaded.columns.explored)


def _corrupt_missing(frame):
    del frame["energy_j"]


def _corrupt_unknown(frame):
    frame["bogus"] = 1.0


def _corrupt_swapped(frame):
    # Same field count, one unknown field standing in for a known one.
    frame["bogus"] = frame.pop("energy_j")


def _corrupt_cycles(frame):
    frame["cycles_per_core"] = 3.0


#: Each corruption of one frame dict, with the error the blob reader raises.
CORRUPTIONS = {
    "missing-field": (_corrupt_missing, KeyError),
    "unknown-field": (_corrupt_unknown, TypeError),
    "swapped-field": (_corrupt_swapped, TypeError),
    "scalar-cycles": (_corrupt_cycles, TypeError),
}


class TestFromDictStaysStrict:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_frame_raises(self, legacy_data, corruption):
        data = legacy_result(legacy_data, "ondemand")
        # One bad frame in the middle: a per-key column gather would turn
        # it into ragged (or silently short) columns instead of an error.
        # The exact type is asserted: CORRUPT_CHECKPOINT_ERRORS would also
        # accept the AttributeError of a reader that does not exist.
        corrupt, error = CORRUPTIONS[corruption]
        corrupt(data["records"][len(data["records"]) // 2])
        with pytest.raises(error) as raised:
            result_store.blob_store(legacy_data)
        assert type(raised.value) is error

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_checkpoint_with_corrupt_frame_is_quarantined(
        self, legacy_data, tmp_path, corruption
    ):
        CORRUPTIONS[corruption][0](legacy_data["outcomes"][0]["result"]["records"][-1])
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(legacy_data), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert CampaignResult.load_checkpoint(str(path)) is None
        assert not path.exists()
        assert (tmp_path / "ckpt.json.corrupt").exists()
