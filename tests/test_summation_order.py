"""One spec writes one store on every supported Python.

From Python 3.12 the builtin ``sum()`` of floats is compensated, so any
float it adds on the run path (a workload's thread split, a cluster's
energy, a learner's state) could change the stored bytes with the
interpreter.  The run path adds floats with :func:`repro._compat.left_sum`
instead.  These tests swap ``builtins.sum`` for a compensated sum while
campaigns run and hold their output to the pins taken with the plain one.
"""

import builtins
import hashlib
import json
import math

import pytest

from repro._compat import left_sum
from repro.analysis.stats import mean, population_std
from repro.campaign import CampaignResult, CampaignSpec, FactorySpec, run_campaign
from repro.campaign import executor
from repro.campaign import store as result_store
from tests.conftest import legacy_bytes, saved_bytes, wire_campaign
from tests.test_prediction_history import PROBE_SHA256, probe_campaign

#: sha256 of the jsonl store of :func:`h264_campaign`, as Python 3.10 and 3.11
#: write it with the plain ``sum()``.
H264_STORE_SHA256 = "4bf3e995d8f0e4178618264659ca8bc0da6ecfa49462810acbd23d770392fe41"

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` with float terms added exactly rounded; ints still exact."""
    terms = [start, *iterable]
    types = set(map(type, terms))
    if float in types and types <= {int, bool, float}:
        return math.fsum(terms)
    return _builtin_sum(terms[1:], start)


def clear_build_caches():
    """Drop the per-process application and physics-table caches."""
    executor._build_application.cache_clear()
    executor._TABLE_CACHE.clear()


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """Run the test with ``builtins.sum`` compensated and no prebuilt workload."""
    clear_build_caches()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) != left_sum([0.1] * 10)
    yield
    clear_build_caches()


def h264_campaign() -> CampaignSpec:
    return CampaignSpec.from_grid(
        "h264-sums",
        applications=[FactorySpec.of("h264-football", num_frames=60)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
            "proposed": FactorySpec.of("proposed"),
        },
        seeds=(1,),
    )


def jsonl_sha256(store: CampaignResult, tmp_path) -> str:
    path = tmp_path / "store.jsonl"
    result_store.save_store(store, str(path), result_store.ENCODING_JSONL)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_left_sum_adds_left_to_right_from_int_zero():
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([1, 2, 3])) == 6 and type(left_sum([1, 2, 3])) is int
    assert left_sum([]) == 0


@pytest.mark.usefixtures("compensated_builtin_sum")
class TestCompensatedBuiltinSum:
    def test_wire_campaign_saves_the_pinned_blob(self):
        pinned = result_store.blob_store(json.loads(legacy_bytes("wire-format.v1.json")))
        assert saved_bytes(run_campaign(wire_campaign())) == saved_bytes(pinned)

    def test_probe_payloads_are_pinned(self):
        digests = {
            outcome.label: hashlib.sha256(
                json.dumps(outcome.probe, sort_keys=True).encode("utf-8")
            ).hexdigest()
            for outcome in run_campaign(probe_campaign())
        }
        assert digests == PROBE_SHA256

    def test_h264_store_is_pinned(self, tmp_path):
        assert jsonl_sha256(run_campaign(h264_campaign()), tmp_path) == H264_STORE_SHA256

    def test_table_statistics_add_left_to_right(self):
        """The means and deviations of Tables II and III add left to right."""
        values = [0.1] * 10 + [0.7]
        mu = left_sum(values) / len(values)
        assert mean([0.1] * 10) == left_sum([0.1] * 10) / 10
        assert mean(values) == mu
        assert population_std(values) == (
            left_sum([(v - mu) ** 2 for v in values]) / len(values)
        ) ** 0.5
