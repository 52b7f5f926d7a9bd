"""Workload predictors.

The paper predicts the next epoch's CPU cycle count with an Exponential
Weighted Moving Average (eq. 1):

    CC_{i+1} = gamma * actualCC_i + (1 - gamma) * predCC_i

and motivates this choice against adaptive-filter predictors, which lag on
dynamic workloads.  This module provides the EWMA predictor, a last-value
predictor and an NLMS adaptive filter (the baseline the paper argues
against), plus the misprediction statistics reported in Fig. 3.

Every predictor keeps its predicted/actual history as two ``array('d')``
columns, appended once per epoch: a learning governor observes one
predictor per core per epoch, so the history must cost no object
allocation.  :attr:`WorkloadPredictor.records` builds the
:class:`PredictionRecord` view only when it is read, and
:meth:`WorkloadPredictor.misprediction_stats` reads the columns directly,
with the same arithmetic as :func:`summarize_mispredictions`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro._compat import SLOTS, left_sum
from repro.errors import ConfigurationError


@dataclass(frozen=True, **SLOTS)
class PredictionRecord:
    """One predicted/actual pair, kept for misprediction analysis."""

    epoch_index: int
    predicted: float
    actual: float

    @property
    def error(self) -> float:
        """Signed error (actual minus predicted); positive = under-prediction."""
        return self.actual - self.predicted

    @property
    def absolute_relative_error(self) -> float:
        """``|actual - predicted| / actual`` (0 when actual is 0)."""
        if self.actual == 0:
            return 0.0
        return abs(self.error) / abs(self.actual)

    @property
    def is_underprediction(self) -> bool:
        """True when the actual workload exceeded the prediction (deadline risk)."""
        return self.actual > self.predicted


@dataclass(frozen=True)
class MispredictionStats:
    """Aggregate misprediction statistics over a window of epochs."""

    num_epochs: int
    mean_absolute_relative_error: float
    max_absolute_relative_error: float
    underprediction_fraction: float

    @property
    def mean_percent(self) -> float:
        """Mean absolute relative error as a percentage (the paper's ~8% / ~3%)."""
        return 100.0 * self.mean_absolute_relative_error


def summarize_mispredictions(records: Sequence[PredictionRecord]) -> MispredictionStats:
    """Aggregate a sequence of prediction records into misprediction statistics."""
    return _summarize([r.predicted for r in records], [r.actual for r in records])


def _summarize(predicted: Sequence[float], actual: Sequence[float]) -> MispredictionStats:
    """Misprediction statistics of paired predicted/actual columns.

    Per pair, the same operations as :attr:`PredictionRecord.absolute_relative_error`
    and :attr:`PredictionRecord.is_underprediction`.
    """
    if not actual:
        return MispredictionStats(
            num_epochs=0,
            mean_absolute_relative_error=0.0,
            max_absolute_relative_error=0.0,
            underprediction_fraction=0.0,
        )
    errors = [0.0 if a == 0 else abs(a - p) / abs(a) for p, a in zip(predicted, actual)]
    under = sum(1 for p, a in zip(predicted, actual) if a > p)
    return MispredictionStats(
        num_epochs=len(actual),
        mean_absolute_relative_error=left_sum(errors) / len(errors),
        max_absolute_relative_error=max(errors),
        underprediction_fraction=under / len(actual),
    )


class WorkloadPredictor:
    """Predicts the next epoch's workload from the history of observed workloads.

    The history is two float columns: entry ``i`` pairs the prediction made
    for epoch ``i + 1`` with the workload observed in it (epoch 0 has no
    prediction to score), so a record's epoch index is its position plus
    one and is not stored.
    """

    def __init__(self) -> None:
        self._predicted = array("d")
        self._actual = array("d")
        self._last_prediction: Optional[float] = None

    def _predict_next(self, actual: float) -> float:
        """Update internal state with ``actual`` and return the next prediction.

        The step :meth:`observe` calls after recording the finished epoch.
        A predictor implements it, or overrides :meth:`observe` whole as
        :class:`EWMAPredictor` does, whose ``observe`` is eq. 1's only home.
        """
        raise NotImplementedError(f"{type(self).__name__} does not predict")

    def observe(self, actual: float) -> float:
        """Record the observed workload for the finished epoch and predict the next.

        Returns the prediction for the *next* epoch.  The predicted/actual
        pair for the finished epoch is recorded for misprediction analysis.
        """
        if actual < 0:
            raise ValueError(f"observed workload must be non-negative, got {actual}")
        if self._last_prediction is not None:
            self._predicted.append(self._last_prediction)
            self._actual.append(actual)
        prediction = self._predict_next(actual)
        self._last_prediction = prediction
        return prediction

    @property
    def last_prediction(self) -> Optional[float]:
        """The most recent prediction (``None`` before the first observation)."""
        return self._last_prediction

    @property
    def records(self) -> List[PredictionRecord]:
        """All predicted/actual pairs recorded so far, built from the columns."""
        return [
            PredictionRecord(epoch_index=index, predicted=predicted, actual=actual)
            for index, (predicted, actual) in enumerate(
                zip(self._predicted, self._actual), start=1
            )
        ]

    def misprediction_stats(
        self, first_epoch: int = 0, last_epoch: Optional[int] = None
    ) -> MispredictionStats:
        """Misprediction statistics restricted to ``[first_epoch, last_epoch)``."""
        # Entry i holds epoch i + 1, so the window is one slice of each column.
        count = len(self._actual)
        start = max(first_epoch - 1, 0)
        stop = count if last_epoch is None else max(min(last_epoch - 1, count), start)
        return _summarize(self._predicted[start:stop], self._actual[start:stop])

    def reset(self) -> None:
        """Forget all history."""
        del self._predicted[:]
        del self._actual[:]
        self._last_prediction = None


class EWMAPredictor(WorkloadPredictor):
    """Exponential weighted moving average predictor — the paper's eq. (1).

    Parameters
    ----------
    gamma:
        Smoothing factor; the paper determines 0.6 experimentally for the
        MPEG-4 analysis of Fig. 3.
    """

    def __init__(self, gamma: float = 0.6) -> None:
        super().__init__()
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"EWMA gamma must lie in (0, 1], got {gamma}")
        self.gamma = gamma
        self._one_minus_gamma = 1.0 - gamma
        self._state: Optional[float] = None

    def observe(self, actual: float) -> float:
        """:meth:`WorkloadPredictor.observe` with eq. 1 fused in, for the per-epoch hot loop.

        The same bookkeeping as the generic implementation (record the
        predicted/actual pair, then return the next prediction), with the
        EWMA update ``gamma * actual + (1 - gamma) * state`` in line rather
        than behind a :meth:`~WorkloadPredictor._predict_next` call.
        """
        if actual < 0:
            raise ValueError(f"observed workload must be non-negative, got {actual}")
        last = self._last_prediction
        if last is not None:
            self._predicted.append(last)
            self._actual.append(actual)
        state = self._state
        if state is None:
            state = actual
        else:
            state = self.gamma * actual + self._one_minus_gamma * state
        self._state = state
        self._last_prediction = state
        return state

    def reset(self) -> None:
        super().reset()
        self._state = None


class LastValuePredictor(WorkloadPredictor):
    """Predicts that the next epoch repeats the last observed workload."""

    def _predict_next(self, actual: float) -> float:
        return actual


class NLMSPredictor(WorkloadPredictor):
    """Normalised least-mean-squares adaptive-filter predictor.

    This is the class of predictor the paper argues *against* (Sinha &
    Chandrakasan's adaptive filtering of workload traces): a linear filter
    over the last ``order`` observations whose taps adapt by the NLMS rule.
    It is included as the ablation baseline for the prediction study.

    Parameters
    ----------
    order:
        Number of past observations in the filter window.
    step_size:
        NLMS adaptation step (mu); values in (0, 2) are stable.
    """

    def __init__(self, order: int = 4, step_size: float = 0.5) -> None:
        super().__init__()
        if order < 1:
            raise ConfigurationError(f"filter order must be >= 1, got {order}")
        if not 0.0 < step_size < 2.0:
            raise ConfigurationError(f"step_size must lie in (0, 2), got {step_size}")
        self.order = order
        self.step_size = step_size
        self._weights = [1.0 / order] * order
        self._history: List[float] = []

    def _predict_next(self, actual: float) -> float:
        # Adapt the weights using the error on the prediction we just made
        # (if we had a full window), then slide the window and predict.
        if len(self._history) == self.order and self._last_prediction is not None:
            error = actual - self._last_prediction
            norm = left_sum(x * x for x in self._history) + 1e-12
            self._weights = [
                w + self.step_size * error * x / norm
                for w, x in zip(self._weights, self._history)
            ]
        self._history.append(actual)
        if len(self._history) > self.order:
            self._history.pop(0)
        if len(self._history) < self.order:
            return actual
        return left_sum(w * x for w, x in zip(self._weights, self._history))

    def reset(self) -> None:
        super().reset()
        self._weights = [1.0 / self.order] * self.order
        self._history.clear()
