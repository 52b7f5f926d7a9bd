"""The JSON wire format of campaign results, pinned byte for byte.

``SimulationResult.to_dict`` serialises straight from the frame columns
(or, for record-backed results, from the records) and ``from_dict``
gathers the frame dicts back into columns.  These tests hold both
directions to the exact bytes, key order and strictness of the
record-at-a-time format they replaced.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro import _compat
from repro.campaign import CampaignResult, CampaignSpec, FactorySpec, run_campaign
from repro.campaign.results import CORRUPT_CHECKPOINT_ERRORS
from repro.sim.epoch import FrameRecord
from repro.sim.results import SimulationResult
from repro.testing.parity.harness import paper_governors

# The pinned digest names which engine ran each scenario: without numpy
# the vectorised backend is absent and negotiation picks another engine.
pytest.importorskip("numpy")

#: sha256 of ``CampaignResult.to_json()`` for :func:`wire_campaign`, as
#: written by the record-at-a-time serialiser (``FrameRecord.to_dict`` per
#: frame).  A change here is a change of the on-disk format.
WIRE_SHA256 = "69051c41c08ab29e27343c0d1a257ced9c2697d87c323a2a379897d2b39b553c"


def wire_campaign() -> CampaignSpec:
    """The 7 paper governors on mpeg4, plus ondemand pinned to the scalar engine."""
    grid = CampaignSpec.from_grid(
        "wire-format",
        applications=[FactorySpec.of("mpeg4", num_frames=40)],
        governors=paper_governors(),
        seeds=(5,),
    )
    ondemand = next(s for s in grid.scenarios if s.label == "ondemand")
    scalar = replace(ondemand, label="ondemand-scalar", engine="scalar")
    return CampaignSpec(name=grid.name, scenarios=grid.scenarios + (scalar,))


@pytest.fixture(scope="module")
def wire_store():
    # Module-scoped fixtures run before conftest's function-scoped pin of
    # engine negotiation, so pin it here too: with numba installed, auto
    # negotiation would stamp the closed-loop scenarios "jitpath".
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_compat, "HAVE_NUMBA", False)
        return run_campaign(wire_campaign())


@pytest.fixture(scope="module")
def columnar(wire_store):
    result = wire_store.result("ondemand")
    assert result.columns is not None
    return result


def record_twin(result: SimulationResult) -> SimulationResult:
    """The same run backed by materialised records instead of columns."""
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
        assert wire_store.result("ondemand-scalar").engine_used == "scalar"
        assert wire_store.result("ondemand-scalar").columns is None
        assert wire_store.result("ondemand").columns is not None

    def test_to_json_digest(self, wire_store):
        text = wire_store.to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WIRE_SHA256

    def test_from_json_round_trip_is_exact(self, wire_store):
        text = wire_store.to_json()
        assert CampaignResult.from_json(text).to_json() == text


class TestTwoPathsAgree:
    def test_columnar_and_record_backed_serialise_identically(self, columnar):
        twin = record_twin(columnar)
        assert twin.columns is None
        assert json.dumps(columnar.to_dict()) == json.dumps(twin.to_dict())

    def test_to_dict_keeps_the_columns(self, columnar):
        before = columnar.columns
        columnar.to_dict()
        assert columnar.columns is before

    def test_from_dict_is_columnar_with_the_same_records(self, columnar):
        data = columnar.to_dict()
        loaded = SimulationResult.from_dict(data)
        assert loaded.columns is not None
        assert loaded.records == [FrameRecord.from_dict(frame) for frame in data["records"]]
        assert loaded.to_dict() == data

    def test_zero_frames_round_trip(self):
        empty = SimulationResult("ondemand", "mpeg4", 0.04, records=[])
        data = empty.to_dict()
        assert data["records"] == []
        loaded = SimulationResult.from_dict(data)
        assert loaded.num_frames == 0
        assert loaded.records == []
        assert json.dumps(loaded.to_dict()) == json.dumps(data)

    def test_explored_keeps_its_default(self, columnar):
        data = columnar.to_dict()
        for frame in data["records"]:
            del frame["explored"]
        loaded = SimulationResult.from_dict(data)
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


CORRUPTIONS = {
    "missing-field": _corrupt_missing,
    "unknown-field": _corrupt_unknown,
    "swapped-field": _corrupt_swapped,
    "scalar-cycles": _corrupt_cycles,
}


class TestFromDictStaysStrict:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_frame_raises(self, columnar, corruption):
        data = columnar.to_dict()
        # One bad frame in the middle: a per-key column gather would turn
        # it into ragged (or silently short) columns instead of an error.
        bad_frame = data["records"][len(data["records"]) // 2]
        CORRUPTIONS[corruption](bad_frame)
        with pytest.raises(CORRUPT_CHECKPOINT_ERRORS):
            FrameRecord.from_dict(bad_frame)  # the record-at-a-time reference
        with pytest.raises(CORRUPT_CHECKPOINT_ERRORS):
            SimulationResult.from_dict(data)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_checkpoint_with_corrupt_frame_is_quarantined(
        self, wire_store, tmp_path, corruption
    ):
        data = wire_store.to_dict()
        CORRUPTIONS[corruption](data["outcomes"][0]["result"]["records"][-1])
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert CampaignResult.load_checkpoint(str(path)) is None
        assert not path.exists()
        assert (tmp_path / "ckpt.json.corrupt").exists()
