"""Unit tests for the workload predictors (EWMA eq. 1, last-value, NLMS)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.rtm.prediction import (
    EWMAPredictor,
    LastValuePredictor,
    NLMSPredictor,
    PredictionRecord,
    summarize_mispredictions,
)


class TestEWMAPredictor:
    def test_matches_equation_1(self):
        """CC_{i+1} = gamma * actual_i + (1 - gamma) * pred_i."""
        gamma = 0.6
        predictor = EWMAPredictor(gamma=gamma)
        first = predictor.observe(100.0)
        assert first == pytest.approx(100.0)  # seeded with the first observation
        second = predictor.observe(200.0)
        assert second == pytest.approx(gamma * 200.0 + (1 - gamma) * 100.0)
        third = predictor.observe(150.0)
        assert third == pytest.approx(gamma * 150.0 + (1 - gamma) * second)

    def test_converges_to_constant_input(self):
        predictor = EWMAPredictor(gamma=0.6)
        for _ in range(50):
            prediction = predictor.observe(1e7)
        assert prediction == pytest.approx(1e7)
        assert predictor.misprediction_stats().mean_percent == pytest.approx(0.0)

    def test_tracks_step_change_with_lag(self):
        predictor = EWMAPredictor(gamma=0.6)
        for _ in range(20):
            predictor.observe(1e7)
        predictor.observe(2e7)
        after_step = predictor.last_prediction
        assert 1e7 < after_step < 2e7
        for _ in range(20):
            predictor.observe(2e7)
        assert predictor.last_prediction == pytest.approx(2e7, rel=1e-3)

    def test_gamma_bounds(self):
        with pytest.raises(ConfigurationError):
            EWMAPredictor(gamma=0.0)
        with pytest.raises(ConfigurationError):
            EWMAPredictor(gamma=1.5)
        # gamma = 1 degenerates to last-value prediction.
        predictor = EWMAPredictor(gamma=1.0)
        predictor.observe(5.0)
        assert predictor.observe(9.0) == pytest.approx(9.0)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            EWMAPredictor().observe(-1.0)

    def test_reset(self):
        predictor = EWMAPredictor()
        predictor.observe(1.0)
        predictor.observe(2.0)
        predictor.reset()
        assert predictor.last_prediction is None
        assert predictor.records == []


class TestLastValuePredictor:
    def test_predicts_previous_observation(self):
        predictor = LastValuePredictor()
        assert predictor.observe(3.0) == 3.0
        assert predictor.observe(7.0) == 7.0
        records = predictor.records
        assert records[0].predicted == 3.0
        assert records[0].actual == 7.0


class TestNLMSPredictor:
    def test_converges_on_stationary_signal(self):
        rng = random.Random(0)
        predictor = NLMSPredictor(order=4, step_size=0.5)
        for _ in range(300):
            predictor.observe(1e7 * (1.0 + 0.01 * rng.gauss(0, 1)))
        assert predictor.misprediction_stats(200).mean_percent < 5.0

    def test_lags_on_abrupt_changes_more_than_ewma(self):
        """The paper's argument: adaptive filters lag on dynamic workloads."""

        def signal(i):
            return 2e7 if (i // 25) % 2 else 1e7  # square wave with period 50

        nlms = NLMSPredictor(order=4, step_size=0.5)
        ewma = EWMAPredictor(gamma=0.6)
        for i in range(400):
            nlms.observe(signal(i))
            ewma.observe(signal(i))
        assert ewma.misprediction_stats(100).mean_absolute_relative_error <= \
            nlms.misprediction_stats(100).mean_absolute_relative_error * 1.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            NLMSPredictor(order=0)
        with pytest.raises(ConfigurationError):
            NLMSPredictor(step_size=2.5)


class TestMispredictionStats:
    def test_record_properties(self):
        record = PredictionRecord(epoch_index=3, predicted=80.0, actual=100.0)
        assert record.error == pytest.approx(20.0)
        assert record.absolute_relative_error == pytest.approx(0.2)
        assert record.is_underprediction

    def test_zero_actual_error_is_zero(self):
        record = PredictionRecord(0, predicted=5.0, actual=0.0)
        assert record.absolute_relative_error == 0.0

    def test_summary(self):
        records = [
            PredictionRecord(0, 90.0, 100.0),
            PredictionRecord(1, 110.0, 100.0),
        ]
        stats = summarize_mispredictions(records)
        assert stats.num_epochs == 2
        assert stats.mean_percent == pytest.approx(10.0)
        assert stats.underprediction_fraction == pytest.approx(0.5)

    def test_empty_summary(self):
        stats = summarize_mispredictions([])
        assert stats.num_epochs == 0
        assert stats.mean_percent == 0.0

    def test_mean_percent(self):
        # The Fig. 3 statistic: mean |actual - predicted| / actual, in percent.
        def mean_percent(predicted, actual):
            pairs = enumerate(zip(predicted, actual))
            records = [PredictionRecord(i, p, a) for i, (p, a) in pairs]
            return summarize_mispredictions(records).mean_percent

        assert mean_percent([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0)
        assert mean_percent([5.0], [0.0]) == 0.0
        assert mean_percent([], []) == 0.0

    def test_windowed_stats(self):
        predictor = EWMAPredictor(gamma=0.6)
        values = [1e7] * 10 + [2e7] * 10
        for value in values:
            predictor.observe(value)
        early = predictor.misprediction_stats(0, 10)
        late = predictor.misprediction_stats(15, None)
        assert early.num_epochs <= 10
        assert late.mean_absolute_relative_error < 0.05
