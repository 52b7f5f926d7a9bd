"""Small statistics helpers used by the experiments and the analysis examples.

Only plain-Python statistics are needed (means, deviations, percentiles,
windowed summaries); keeping them here avoids a hard dependency on numpy in
the reporting path and keeps the formulas explicit and testable.
"""

from __future__ import annotations

from typing import List, Sequence

from repro._compat import left_sum


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence."""
    if not values:
        return 0.0
    return left_sum(values) / len(values)


def population_std(values: Sequence[float]) -> float:
    """Population standard deviation; 0 for sequences shorter than 2."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return (left_sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation divided by the mean (0 if the mean is 0)."""
    mu = mean(values)
    if mu == 0:
        return 0.0
    return population_std(values) / mu


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) using linear interpolation.

    Raises
    ------
    ValueError
        If ``values`` is empty or ``q`` is outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def windowed_mean(values: Sequence[float], window: int) -> List[float]:
    """Trailing-window running mean (window clipped at the start of the sequence)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    output: List[float] = []
    for index in range(len(values)):
        start = max(0, index - window + 1)
        output.append(mean(values[start:index + 1]))
    return output
