"""Float frame columns held as ``array('d')``, and ``index`` as a ``range``,
from engine to store and back.

:func:`repro.sim.epoch.float_column` is the one rule for a float column's
type: an ``array('d')`` (8 bytes per value) exactly when the column is
non-empty and every value is an exact ``float``, else a list whose values
keep their types.  Every engine's result, an eager reload and a lazy
reload hold their float columns that way; a column that does not qualify
writes the same line bytes as before arrays existed; equality and
pickling do not depend on the representation; and
:meth:`SimulationResult.window` slices columns instead of building
records.  :func:`repro.sim.epoch.index_column` is the rule for ``index``:
a ``range`` exactly when the values are the ints 0, 1, 2, ..., else a
list whose values keep their types.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import tracemalloc
from array import array

import pytest

from repro.campaign import CampaignResult
from repro.campaign import store as result_store
from repro.campaign.results import ScenarioOutcome
from repro.campaign.spec import FactorySpec, ScenarioSpec
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.epoch import (
    FLOAT_COLUMN_NAMES,
    FRAME_COLUMN_NAMES,
    FrameRecord,
    float_column,
    index_column,
)
from repro.sim.results import SimulationResult
from repro.workload.video import mpeg4_application


def run(governor, engine_name: str, num_frames: int = 60) -> SimulationResult:
    engine = SimulationEngine(
        build_a15_cluster(), SimulationConfig(prefer_fast_path=engine_name != "scalar")
    )
    result = engine.run(mpeg4_application(num_frames=num_frames, seed=3), governor)
    assert engine.engine_used == engine_name
    return result


ENGINE_RUNS = {
    "scalar": lambda: run(OndemandGovernor(), "scalar"),
    "tablepath": lambda: run(OndemandGovernor(), "tablepath"),
    "fastpath": lambda: run(OracleGovernor(), "fastpath"),
}


def assert_array_columns(result: SimulationResult) -> None:
    columns = result.columns
    for name in FLOAT_COLUMN_NAMES:
        column = getattr(columns, name)
        assert type(column) is array and column.typecode == "d", name
    assert columns.index == range(result.num_frames)
    for name in ("operating_index", "cycles_per_core", "explored"):
        assert type(getattr(columns, name)) is list, name


def outcome_of(result: SimulationResult, label: str = "arrays") -> ScenarioOutcome:
    scenario = ScenarioSpec(
        label=label,
        application=FactorySpec.of("mpeg4"),
        governor=FactorySpec.of("ondemand"),
    )
    return ScenarioOutcome(scenario, result, metrics={"num_frames": result.num_frames})


class TestFloatColumnRule:
    def test_all_floats_become_an_array(self):
        column = float_column([1.0, -0.0, 2.5])
        assert type(column) is array and column.tolist() == [1.0, -0.0, 2.5]

    def test_an_array_is_adopted_without_a_copy(self):
        values = array("d", [1.0, 2.0])
        assert float_column(values) is values

    @pytest.mark.parametrize(
        "values",
        [[], (), array("d"), [0, 1.0], [1.0, True], [1, 2]],
        ids=["empty-list", "empty-tuple", "empty-array", "int", "bool", "ints"],
    )
    def test_anything_else_stays_a_list(self, values):
        column = float_column(values)
        assert type(column) is list and column == list(values)
        assert [type(value) for value in column] == [type(value) for value in values]


class TestIndexColumnRule:
    @pytest.mark.parametrize(
        "values", [[0, 1, 2], (0, 1, 2), range(3), [], [0]], ids=repr
    )
    def test_frame_numbers_from_zero_become_a_range(self, values):
        assert index_column(values) == range(len(values))
        assert type(index_column(values)) is range

    @pytest.mark.parametrize(
        "values",
        [[1, 2], [0, 2], [2, 1, 0], range(1, 3), [0, 1.0, 2], [0, 1, 2.0], [False, 1], [0, True]],
        ids=repr,
    )
    def test_anything_else_stays_a_list(self, values):
        column = index_column(values)
        assert type(column) is list and column == list(values)
        assert [type(value) for value in column] == [type(value) for value in values]


@pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
class TestArraysFromEngineToStore:
    def test_engine_result(self, engine):
        assert_array_columns(ENGINE_RUNS[engine]())

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_reload(self, tmp_path, engine, lazy):
        result = ENGINE_RUNS[engine]()
        store = CampaignResult(campaign_name="arrays")
        store.add(outcome_of(result))
        path = str(tmp_path / "arrays.store")
        result_store.save_store(store, path, result_store.ENCODING_JSONL)
        (outcome,) = result_store.load_store(path, lazy=lazy)
        assert_array_columns(outcome.result)
        assert outcome.result == result

    def test_pickle_keeps_arrays_and_equality(self, engine):
        result = ENGINE_RUNS[engine]()
        clone = pickle.loads(pickle.dumps(result))
        assert_array_columns(clone)
        assert clone == result


def int_overhead_result() -> SimulationResult:
    records = [
        FrameRecord(
            index=i,
            operating_index=i % 3,
            frequency_mhz=200.0 + 100.0 * i,
            cycles_per_core=(1.0e6 * (i + 1), 2.5e6),
            busy_time_s=0.01 * (i + 1),
            overhead_time_s=0,
            frame_time_s=0.01 * (i + 1),
            interval_s=0.04,
            deadline_s=0.04,
            energy_j=0.1 / (i + 1),
            average_power_w=2.5 / (i + 1),
            measured_power_w=2.5,
            temperature_c=55.0,
            explored=i == 1,
        )
        for i in range(4)
    ]
    return SimulationResult("ondemand", "mpeg4", 0.04, records=records, engine_used="scalar")


#: sha256 of :func:`int_overhead_result`'s store line, as written before
#: float columns were arrays: its int column stays a JSON list.
INT_OVERHEAD_LINE_SHA256 = "7257f1fd49a7540f501d5a749f400f3cff2fb0698167e793cdb28a8433f97bc8"


class TestColumnsThatStayLists:
    def test_int_in_a_float_column_keeps_a_list_and_the_line_bytes(self):
        result = int_overhead_result()
        assert result.columns.overhead_time_s == [0, 0, 0, 0]
        assert type(result.columns.energy_j) is array
        scenario = ScenarioSpec(
            label="int-overhead",
            application=FactorySpec.of("mpeg4"),
            governor=FactorySpec.of("ondemand"),
        )
        outcome = ScenarioOutcome(scenario, result, metrics={"num_frames": 4})
        line = result_store.encode_line(outcome)
        assert hashlib.sha256(line).hexdigest() == INT_OVERHEAD_LINE_SHA256
        decoded = result_store.decode_record(json.loads(line)).result
        assert decoded.columns.overhead_time_s == [0, 0, 0, 0]
        assert decoded == result

    def test_encode_record_carries_lists(self):
        record = result_store.encode_record(outcome_of(int_overhead_result()))
        frames = record["result"]["frames"]
        assert all(type(frames[name]) is list for name in FRAME_COLUMN_NAMES)


class TestEquality:
    def test_list_and_array_columns_with_equal_values_compare_equal(self):
        result = ENGINE_RUNS["tablepath"]()
        listed = SimulationResult(
            result.governor_name,
            result.application_name,
            result.reference_time_s,
            records=result.records,
            exploration_count=result.exploration_count,
            converged_epoch=result.converged_epoch,
        )
        for name in FLOAT_COLUMN_NAMES:
            setattr(listed.columns, name, getattr(result.columns, name).tolist())
        assert type(listed.columns.energy_j) is list
        assert listed == result and result == listed
        listed.columns.energy_j[0] += 1.0
        assert listed != result and result != listed


def record_window(result: SimulationResult, first, last=None) -> SimulationResult:
    """The window as it was built from records before it sliced columns."""
    subset = [
        r for r in result.records if r.index >= first and (last is None or r.index < last)
    ]
    return SimulationResult(
        governor_name=result.governor_name,
        application_name=result.application_name,
        reference_time_s=result.reference_time_s,
        records=subset,
        exploration_count=result.exploration_count,
        converged_epoch=result.converged_epoch,
        engine_used=result.engine_used,
    )


class TestWindow:
    @pytest.mark.parametrize(
        "first, last",
        [(0, 10), (10, None), (20, 20), (60, None), (100, 200)],
        ids=["head", "tail", "empty", "at-end", "past-end"],
    )
    def test_equals_the_record_built_window(self, first, last):
        result = ENGINE_RUNS["tablepath"]()
        window = result.window(first, last)
        expected = record_window(result, first, last)
        assert window == expected
        assert window.engine_used == expected.engine_used == "tablepath"
        for name in FRAME_COLUMN_NAMES:
            mine, theirs = getattr(window.columns, name), getattr(expected.columns, name)
            assert type(mine) is type(theirs), name

    def test_window_of_a_window(self):
        inner = ENGINE_RUNS["tablepath"]().window(10, 40)
        assert inner.columns.index[0] == 10
        for first, last in [(15, 25), (0, 12), (35, None), (0, 5)]:
            assert inner.window(first, last) == record_window(inner, first, last)

    def test_non_contiguous_indices(self):
        result = ENGINE_RUNS["tablepath"]()
        shuffled = result.records[30:] + result.records[:30]
        mixed = SimulationResult("ondemand", "mpeg4", result.reference_time_s, records=shuffled)
        assert mixed.window(20, 40) == record_window(mixed, 20, 40)
        assert mixed.window(20, 40).columns.index == list(range(30, 40)) + list(range(20, 30))


class TestMemory:
    def test_float_columns_retain_under_16_bytes_per_value(self):
        """A 3000-frame tablepath result's float columns: 8 B per value as
        arrays, against 32 B (list slot plus boxed float) as lists."""
        gc.collect()
        tracemalloc.start()
        try:
            result = run(OndemandGovernor(), "tablepath", num_frames=3000)
            columns = result.columns
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for name in FLOAT_COLUMN_NAMES:
                setattr(columns, name, None)
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        values = len(FLOAT_COLUMN_NAMES) * 3000
        assert 8 * values <= freed < 16 * values

    def test_reloaded_float_columns_are_sized_exactly(self, tmp_path):
        """A reloaded 3000-frame result's float columns retain 8 B per value
        plus each array's header: ``frombytes`` would over-allocate every
        column by about 1/16 (25,600 B against 24,080 B per column)."""
        store = CampaignResult(campaign_name="arrays")
        store.add(outcome_of(run(OndemandGovernor(), "tablepath", num_frames=3000)))
        path = str(tmp_path / "arrays.store")
        result_store.save_store(store, path, result_store.ENCODING_JSONL)
        gc.collect()
        tracemalloc.start()
        try:
            (outcome,) = result_store.load_store(path, lazy=False)
            columns = outcome.result.columns
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for name in FLOAT_COLUMN_NAMES:
                assert type(getattr(columns, name)) is array, name
                setattr(columns, name, None)
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        values = len(FLOAT_COLUMN_NAMES) * 3000
        assert 8 * values <= freed <= 8 * values + 128 * len(FLOAT_COLUMN_NAMES)

    @pytest.mark.parametrize("reload", [False, True], ids=["engine", "reload"])
    def test_index_column_retains_a_constant_size(self, tmp_path, reload):
        """A 3000-frame result's ``index`` is ``range(3000)``, engine-built or
        reloaded: it retains a range object and its stop, where a list of
        the frame numbers retained 105 KiB (a slot per frame plus a boxed
        ``int`` for each value above 256)."""
        result = run(OndemandGovernor(), "tablepath", num_frames=3000)
        if reload:
            store = CampaignResult(campaign_name="arrays")
            store.add(outcome_of(result))
            path = str(tmp_path / "arrays.store")
            result_store.save_store(store, path, result_store.ENCODING_JSONL)
        gc.collect()
        tracemalloc.start()
        try:
            if reload:
                (outcome,) = result_store.load_store(path, lazy=False)
                result = outcome.result
            else:
                result = run(OndemandGovernor(), "tablepath", num_frames=3000)
            columns = result.columns
            assert columns.index == range(3000)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            columns.index = None
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < freed < 256
