"""The predictors' history is two float columns; records are built when read.

Pins the history against values taken when every ``observe`` still built
a :class:`~repro.rtm.prediction.PredictionRecord`: the records (epoch,
predicted, actual) and :meth:`WorkloadPredictor.misprediction_stats` over
several windows, bit for bit, for EWMA, last-value and NLMS predictors,
before and after ``reset``.  Also pins the ``rl-prediction`` probe output
(the Fig. 3 series), for every core of the many-core learner in both
normalisation modes, and checks that a learning run builds no record
until one is read.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct

import pytest

from repro.campaign import CampaignSpec, FactorySpec, run_campaign
from repro.campaign.registry import governor_factory
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm import prediction
from repro.rtm.prediction import (
    EWMAPredictor,
    LastValuePredictor,
    NLMSPredictor,
    summarize_mispredictions,
)
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.video import mpeg4_application

PREDICTORS = {
    "ewma-0.6": lambda: EWMAPredictor(0.6),
    "ewma-0.3": lambda: EWMAPredictor(0.3),
    "last-value": LastValuePredictor,
    "nlms": NLMSPredictor,
}

#: ``(first_epoch, last_epoch)`` windows: whole, leading, single, inner,
#: trailing, negative start, inverted, last record only, past the end.
WINDOWS = [
    (0, None),
    (0, 10),
    (1, 2),
    (5, 50),
    (50, None),
    (-3, 4),
    (10, 5),
    (119, None),
    (500, None),
]

#: sha256 of the records and window statistics (:func:`history_digest`)
#: after 120 observations, then after ``reset`` and 60 more, as every
#: ``observe`` building a ``PredictionRecord`` produced them.
HISTORY_SHA256 = {
    "ewma-0.6": (
        "f6a3c4ecc4e210387fca85fdce04ed687b783e57ac9c41e2b8dae6d2a0c40735",
        "6c5d2ee6d2caac4aa1a112073f5dfa5c3c111243e3be967a05eb45ef1b504c08",
    ),
    "ewma-0.3": (
        "8cb8e9f89112e75b7b9af0a39533fcde7ba0a3b14adcc2813e2c9c7ea0a188ff",
        "81e0f5d6bb97de14279e3e59ca55f26cb87284317f17a3eaef0a71006d2a7459",
    ),
    "last-value": (
        "8d89500a0ae1b2a315061786eeedfa7aaa92af30deed80c8d05c66886fe60361",
        "cf618ed55cdc259deb031e4ed38c9fec4cea8882a42e9c19d97d344b7cedcef1",
    ),
    "nlms": (
        "14ed40d056f58b232d1e5c8678f1f2480f71f1b499477e47130ee90be1a95083",
        "b7e6f4ea6a86862db4c81ed48a398f20399c449901ff659f4e4f608c31fe9394",
    ),
}

#: sha256 of the sorted-key JSON of the ``rl-prediction`` probe payload of
#: :func:`probe_campaign`, per scenario label.
PROBE_SHA256 = {
    "proposed": "10d68386120166169d04feb78e9a25829992ead8c092d5055f8e92f0549d6dd0",
    "proposed-single": "10d68386120166169d04feb78e9a25829992ead8c092d5055f8e92f0549d6dd0",
    "shen-upd": "06616eb825eb5db68cb3edbfb781dc712ce03caf6aafe5bc00154c1483f756d8",
}

#: sha256 of the ``rl-prediction`` probe payload of :func:`core_probe_campaign`
#: per (scenario label, probed core): ``proposed`` in its default capacity
#: mode and in eq.-7 mode (``use_total_share_normalisation=True``), as one
#: ``EWMAPredictor`` per core produced them.
CORE_PROBE_SHA256 = {
    ("proposed", 0): "10d68386120166169d04feb78e9a25829992ead8c092d5055f8e92f0549d6dd0",
    ("proposed", 1): "573150df2b052ead734f40b338b89efa18fdef0bac895fce31fecf650c8f843b",
    ("proposed", 2): "e1a94dd503153653a444427a7b413972d99dc2d42b698c23ecd8e5de277e23a0",
    ("proposed", 3): "ca302da2280f33ca6ead77ef31e7162c417744ad8bc8e9394e83888e9ceda06c",
    ("proposed-eq7", 0): "49a1dd6be6fa8235f3c78f2db729fb0d87de7de965b9ed0830ae9f7ea39d866d",
    ("proposed-eq7", 1): "d5558a933868611ce2c78a9e4cb4b45a4bc72c2f434a56d94c896a8353793d81",
    ("proposed-eq7", 2): "995b3cce9fc8531bbba1c955dc9a795568a3d34a6d4dae0eb514ad76c02ab4e8",
    ("proposed-eq7", 3): "2aa47af8dee9d274d54df100a768d77e4255afa9ff6bdd541bd10e6f17b0a11f",
}


def workload_trace(count, seed):
    """Cycle counts with a zero (the 0-actual error branch) and a flat run."""
    rng = random.Random(seed)
    values = [rng.uniform(1e6, 5e7) for _ in range(count)]
    values[17] = 0.0
    values[60:70] = [values[59]] * 10
    return values


def history_digest(predictor):
    digest = hashlib.sha256()
    for record in predictor.records:
        digest.update(
            struct.pack("<qdd", record.epoch_index, record.predicted, record.actual)
        )
    for first, last in WINDOWS:
        stats = predictor.misprediction_stats(first, last)
        digest.update(
            struct.pack(
                "<qddd",
                stats.num_epochs,
                stats.mean_absolute_relative_error,
                stats.max_absolute_relative_error,
                stats.underprediction_fraction,
            )
        )
    return digest.hexdigest()


def bits(value):
    return struct.pack("<d", value)


def observe_all(predictor, values):
    return [predictor.observe(value) for value in values]


@pytest.mark.parametrize("name", sorted(PREDICTORS))
class TestRecordExactHistory:
    def test_matches_the_pinned_history(self, name):
        predictor = PREDICTORS[name]()
        observe_all(predictor, workload_trace(120, 2017))
        before_reset = history_digest(predictor)
        predictor.reset()
        assert predictor.records == []
        assert predictor.last_prediction is None
        observe_all(predictor, workload_trace(60, 7))
        assert (before_reset, history_digest(predictor)) == HISTORY_SHA256[name]

    @pytest.mark.parametrize("reset_first", [False, True], ids=["fresh", "after-reset"])
    def test_record_k_pairs_prediction_k_minus_1_with_actual_k(self, name, reset_first):
        predictor = PREDICTORS[name]()
        if reset_first:
            observe_all(predictor, workload_trace(90, 3))
            predictor.reset()
        values = workload_trace(80, 11)
        predictions = observe_all(predictor, values)
        records = predictor.records
        assert [r.epoch_index for r in records] == list(range(1, len(values)))
        for record in records:
            k = record.epoch_index
            assert bits(record.predicted) == bits(predictions[k - 1])
            assert bits(record.actual) == bits(values[k])

    def test_window_stats_equal_summaries_of_the_window_records(self, name):
        predictor = PREDICTORS[name]()
        observe_all(predictor, workload_trace(120, 2017))
        records = predictor.records
        for first, last in WINDOWS:
            window = [
                r
                for r in records
                if r.epoch_index >= first and (last is None or r.epoch_index < last)
            ]
            assert predictor.misprediction_stats(first, last) == (
                summarize_mispredictions(window)
            ), (first, last)


class TestRecordsAreBuiltWhenRead:
    def test_learning_run_builds_no_record_until_read(self, monkeypatch):
        built = []
        record_type = prediction.PredictionRecord

        def counting(*args, **kwargs):
            built.append(1)
            return record_type(*args, **kwargs)

        monkeypatch.setattr(prediction, "PredictionRecord", counting)
        governor = governor_factory("proposed")()
        engine = SimulationEngine(build_a15_cluster(), SimulationConfig())
        engine.run(mpeg4_application(num_frames=60, seed=3), governor)
        assert built == []
        records = governor.core_predictors[0].records
        assert len(records) == 58
        assert len(built) == 58
        assert all(type(r) is record_type for r in records)


def probe_campaign():
    return CampaignSpec.from_grid(
        "fig3-probe",
        applications=[FactorySpec.of("mpeg4", num_frames=120)],
        governors={
            "proposed": FactorySpec.of("proposed"),
            "proposed-single": FactorySpec.of("proposed-single"),
            "shen-upd": FactorySpec.of("shen-upd"),
        },
        seeds=(1,),
        probe=FactorySpec.of("rl-prediction", core=0, early_window=50),
    )


def test_rl_prediction_probe_output_is_pinned():
    store = run_campaign(probe_campaign())
    digests = {}
    for outcome in store:
        payload = json.dumps(outcome.probe, sort_keys=True).encode("utf-8")
        digests[outcome.label] = hashlib.sha256(payload).hexdigest()
    assert digests == PROBE_SHA256


def core_probe_campaign(core):
    return CampaignSpec.from_grid(
        "fig3-core-probe",
        applications=[FactorySpec.of("mpeg4", num_frames=120)],
        governors={
            "proposed": FactorySpec.of("proposed"),
            "proposed-eq7": FactorySpec.of("proposed", use_total_share_normalisation=True),
        },
        seeds=(1,),
        probe=FactorySpec.of("rl-prediction", core=core, early_window=50),
    )


@pytest.mark.parametrize("core", range(4))
def test_rl_prediction_probe_of_every_core_is_pinned(core):
    digests = {}
    for outcome in run_campaign(core_probe_campaign(core)):
        payload = json.dumps(outcome.probe, sort_keys=True).encode("utf-8")
        digests[outcome.label, core] = hashlib.sha256(payload).hexdigest()
    assert digests == {
        key: digest for key, digest in CORE_PROBE_SHA256.items() if key[1] == core
    }
