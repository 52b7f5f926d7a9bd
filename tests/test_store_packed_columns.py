"""Packed float columns in jsonl store lines: exact round trips and corruption.

A version-2 jsonl line writes each all-float frame column as base64 of
little-endian IEEE-754 binary64, and ``cycles_per_core`` as one flat
packed column plus its row width.  Columns that do not qualify (ints,
bools, a float column holding an int or a bool, ragged rows) stay JSON
lists.  Every value must come back bit- and type-exact through each path
that reads frames: the eager load, the lazy load, the merge and the
shaping of records for an Arrow segment.  A malformed packed column is
corruption: ``ValueError``, prefix salvage and quarantine on a checkpoint
load, and a merge that fails before writing any output.
"""

import base64
import json
import math
import os
import struct
import sys
from types import ModuleType

import pytest

from repro.campaign import CampaignResult
from repro.campaign import store as result_store
from repro.campaign.results import ScenarioOutcome
from repro.campaign.spec import FactorySpec, ScenarioSpec
from repro.sim.epoch import FRAME_COLUMN_NAMES, FrameColumns
from repro.sim.results import SimulationResult

#: Hard floats: signed zero, NaN, infinities, subnormals, the extremes and
#: values whose shortest repr needs 17 significant digits.
SPECIAL = [
    -0.0,
    0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    2.225073858507201e-308,
    1.7976931348623157e308,
    0.1 + 0.2,
    1 / 3,
    -2.718281828459045,
]
N = len(SPECIAL)
#: A metrics cache, so no summary is taken over deliberately odd frames.
METRICS = {"num_frames": 0}


def _columns(**overrides):
    columns = {
        "index": list(range(N)),
        "operating_index": [i % 3 for i in range(N)],
        "frequency_mhz": [float(200 + 100 * i) for i in range(N)],
        "cycles_per_core": [(value, float(i)) for i, value in enumerate(SPECIAL)],
        "busy_time_s": list(SPECIAL),
        "overhead_time_s": list(reversed(SPECIAL)),
        "frame_time_s": list(SPECIAL),
        "interval_s": list(SPECIAL),
        "deadline_s": [0.04] * N,
        "energy_j": list(SPECIAL),
        "average_power_w": list(SPECIAL),
        "measured_power_w": list(SPECIAL),
        "temperature_c": list(SPECIAL),
        "explored": [i % 2 == 0 for i in range(N)],
    }
    columns.update(overrides)
    return columns


CASES = {
    "specials": _columns(),
    "int-in-float-column": _columns(energy_j=[1] + SPECIAL[1:]),
    "bool-in-float-column": _columns(temperature_c=SPECIAL[:-1] + [True]),
    "ints-in-cycles": _columns(cycles_per_core=[(1, 2.5)] * N),
    "ragged-cycles": _columns(
        cycles_per_core=[(1.0,) if i % 2 else (1.0, 2.0) for i in range(N)]
    ),
    "zero-frames": {name: [] for name in FRAME_COLUMN_NAMES},
}


def outcome_with(columns, label="packed") -> ScenarioOutcome:
    result = SimulationResult(
        governor_name="ondemand",
        application_name="mpeg4",
        reference_time_s=0.04,
        columns=FrameColumns(**columns),
        engine_used="scalar",
    )
    scenario = ScenarioSpec(
        label=label,
        application=FactorySpec.of("mpeg4"),
        governor=FactorySpec.of("ondemand"),
    )
    return ScenarioOutcome(scenario, result, metrics=METRICS)


def exact(column):
    """Each value with its type, floats by their bits (NaN equals itself)."""
    def key(value):
        if isinstance(value, tuple):
            return tuple(key(item) for item in value)
        if type(value) is float:
            return (float, struct.pack("<d", value))
        return (type(value), value)

    return [key(value) for value in column]


def assert_exact(columns: FrameColumns, expected) -> None:
    for name in FRAME_COLUMN_NAMES:
        want = expected[name]
        if name == "cycles_per_core":
            want = [tuple(row) for row in want]
        assert exact(getattr(columns, name)) == exact(want), name


def saved(tmp_path, *outcomes, name="packed.store") -> str:
    store = CampaignResult(campaign_name="packed")
    for outcome in outcomes:
        store.add(outcome)
    path = str(tmp_path / name)
    result_store.save_store(store, path, result_store.ENCODING_JSONL)
    return path


def lines_of(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


@pytest.mark.parametrize("case", sorted(CASES))
class TestExactRoundTrip:
    def test_eager_load(self, tmp_path, case):
        loaded = result_store.load_store(saved(tmp_path, outcome_with(CASES[case])))
        assert_exact(next(iter(loaded)).result.columns, CASES[case])

    def test_lazy_load(self, tmp_path, case):
        path = saved(tmp_path, outcome_with(CASES[case]))
        loaded = result_store.load_store(path, lazy=True)
        assert_exact(next(iter(loaded)).result.columns, CASES[case])

    def test_merge(self, tmp_path, case):
        path = saved(tmp_path, outcome_with(CASES[case]))
        merged = str(tmp_path / "merged.store")
        result_store.merge_store_files([path, path], merged, store="json")
        assert_exact(next(iter(result_store.load_store(merged))).result.columns, CASES[case])

    def test_arrow_shaping(self, tmp_path, case):
        outcome = outcome_with(CASES[case])
        listed = result_store.encode_record(outcome)
        packed = json.loads(lines_of(saved(tmp_path, outcome))[1])
        for record in (listed, packed):
            metas, columns = result_store._arrow_columns([record])
            assert "frames" not in json.loads(metas[0])["result"]
            for name in FRAME_COLUMN_NAMES:
                (column,) = columns[name]
                want = CASES[case][name]
                if name == "cycles_per_core":
                    want = [tuple(row) for row in want]
                assert exact(column) == exact(want), name

    def test_one_digest_in_every_layout(self, tmp_path, case):
        outcome = outcome_with(CASES[case])
        packed = json.loads(lines_of(saved(tmp_path, outcome))[1])
        listed = result_store.encode_record(outcome)
        assert packed["digest"] == listed["digest"] == result_store.record_digest(packed)
        assert result_store.record_digest(listed) == packed["digest"]


class TestWhatIsPacked:
    def packed_frames(self, tmp_path, columns):
        line = lines_of(saved(tmp_path, outcome_with(columns)))[1]
        return json.loads(line)["result"]["frames"]

    def test_float_columns_are_packed_little_endian(self, tmp_path):
        frames = self.packed_frames(tmp_path, CASES["specials"])
        assert base64.b64decode(frames["energy_j"]) == struct.pack(f"<{N}d", *SPECIAL)
        assert frames["cycles_per_core"]["width"] == 2
        assert result_store._pack_floats([1.0]) == "AAAAAAAA8D8="
        for name in ("index", "operating_index", "explored"):
            assert isinstance(frames[name], list), name

    @pytest.mark.parametrize(
        "case, name",
        [
            ("int-in-float-column", "energy_j"),
            ("bool-in-float-column", "temperature_c"),
            ("ints-in-cycles", "cycles_per_core"),
            ("ragged-cycles", "cycles_per_core"),
        ],
    )
    def test_columns_that_do_not_qualify_stay_lists(self, tmp_path, case, name):
        frames = self.packed_frames(tmp_path, CASES[case])
        assert isinstance(frames[name], list)
        assert isinstance(frames["frame_time_s"], str)

    def test_zero_frames_are_all_lists(self, tmp_path):
        frames = self.packed_frames(tmp_path, CASES["zero-frames"])
        assert frames == {name: [] for name in FRAME_COLUMN_NAMES}

    def test_packing_is_idempotent(self, tmp_path):
        frames = self.packed_frames(tmp_path, CASES["specials"])
        assert result_store._packed_frames(frames) == frames


def _bad_base64(frames):
    frames["energy_j"] = "!!!!" + frames["energy_j"][4:]


def _not_a_multiple_of_8(frames):
    frames["energy_j"] = base64.b64encode(b"\0" * 12).decode("ascii")


def _shorter_than_index(frames):
    frames["energy_j"] = result_store._pack_floats(SPECIAL[:-1])


def _cycles_shorter_than_index(frames):
    frames["cycles_per_core"]["packed"] = result_store._pack_floats([1.0] * (2 * N - 2))


def _cycles_bad_width(frames):
    frames["cycles_per_core"]["width"] = 0


CORRUPTIONS = {
    "bad-base64": _bad_base64,
    "not-a-multiple-of-8": _not_a_multiple_of_8,
    "shorter-than-index": _shorter_than_index,
    "cycles-shorter-than-index": _cycles_shorter_than_index,
    "cycles-bad-width": _cycles_bad_width,
}


@pytest.fixture
def three_lines(tmp_path_factory):
    """The lines (header + three packed records) of a three-outcome store."""
    outcomes = [outcome_with(CASES["specials"], label=f"o{i}") for i in range(3)]
    return lines_of(saved(tmp_path_factory.mktemp("three"), *outcomes))


def corrupted_line(line: bytes, corrupt) -> bytes:
    record = json.loads(line)
    corrupt(record["result"]["frames"])
    return json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
class TestCorruptPackedColumn:
    def test_decode_raises_value_error(self, three_lines, name):
        record = json.loads(corrupted_line(three_lines[1], CORRUPTIONS[name]))
        with pytest.raises(ValueError):
            result_store.decode_record(record)
        with pytest.raises(ValueError):
            result_store._frames_for_deferred(record["result"]["frames"])

    def test_checkpoint_salvages_the_prefix(self, tmp_path, three_lines, name):
        path = tmp_path / "ckpt.store"
        bad = corrupted_line(three_lines[2], CORRUPTIONS[name])
        path.write_bytes(b"".join(three_lines[:2] + [bad] + three_lines[3:]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = result_store.load_store_checkpoint(str(path))
        assert [outcome.label for outcome in salvaged] == ["o0"]
        assert not path.exists() and os.path.exists(f"{path}.corrupt")

    def test_lazy_load_defers_the_error_to_column_access(self, tmp_path, three_lines, name):
        path = tmp_path / "lazy.store"
        bad = corrupted_line(three_lines[1], CORRUPTIONS[name])
        path.write_bytes(three_lines[0] + bad)
        (outcome,) = result_store.load_store(str(path), lazy=True)
        with pytest.raises(ValueError):
            outcome.result.columns.energy_j

    @pytest.mark.parametrize("store", ["json", "arrow"])
    def test_merge_fails_before_writing(self, tmp_path, three_lines, name, store):
        shard = tmp_path / "shard.store"
        bad = corrupted_line(three_lines[2], CORRUPTIONS[name])
        shard.write_bytes(b"".join(three_lines[:2] + [bad] + three_lines[3:]))
        with pytest.raises(ValueError):
            result_store.merge_store_files(
                [str(shard)], str(tmp_path / "merged.store"), store=store
            )
        assert os.listdir(tmp_path) == ["shard.store"]


class TestDecodeCost:
    def test_lazy_load_never_unpacks(self, tmp_path, monkeypatch):
        path = saved(tmp_path, outcome_with(CASES["specials"]))
        calls = []
        unpack = result_store._unpack_floats
        monkeypatch.setattr(
            result_store, "_unpack_floats", lambda text: calls.append(1) or unpack(text)
        )
        (outcome,) = result_store.load_store(path, lazy=True)
        assert outcome.metrics == METRICS
        assert calls == []
        outcome.result.columns.index
        assert calls

    def test_decoding_imports_no_numpy(self, tmp_path, monkeypatch):
        assert not [
            value
            for value in vars(result_store).values()
            if isinstance(value, ModuleType) and value.__name__.split(".")[0] == "numpy"
        ]
        path = saved(tmp_path, outcome_with(CASES["specials"]))
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import now fails
        merged = str(tmp_path / "merged.store")
        result_store.merge_store_files([path], merged, store="json")
        for lazy in (False, True):
            (outcome,) = result_store.load_store(merged, lazy=lazy)
            assert_exact(outcome.result.columns, CASES["specials"])
