"""Thread-split models.

Each frame of the paper's periodic applications spawns multiple threads,
one per core of the A15 cluster.  Real decoders and benchmarks do not split
their work perfectly evenly, and that imbalance is what makes the per-core
workload normalisation of the paper's many-core formulation (eq. 7)
meaningful.  These models turn a frame's *total* cycle demand into
per-thread demands.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence, Tuple

from repro._compat import left_sum
from repro.errors import WorkloadError


class ThreadSplitModel(ABC):
    """Strategy for splitting a frame's total cycles over its threads."""

    @abstractmethod
    def split(self, total_cycles: float, num_threads: int, rng: random.Random) -> Tuple[float, ...]:
        """Split ``total_cycles`` into ``num_threads`` non-negative demands summing to the total."""

    @staticmethod
    def _validate(total_cycles: float, num_threads: int) -> None:
        if total_cycles < 0:
            raise WorkloadError("total_cycles must be non-negative")
        if num_threads <= 0:
            raise WorkloadError("num_threads must be positive")


class EvenSplit(ThreadSplitModel):
    """Perfectly balanced split (each thread receives ``total / n`` cycles)."""

    def split(self, total_cycles: float, num_threads: int, rng: random.Random) -> Tuple[float, ...]:
        self._validate(total_cycles, num_threads)
        share = total_cycles / num_threads
        return tuple(share for _ in range(num_threads))


class ImbalancedSplit(ThreadSplitModel):
    """Randomly imbalanced split with a bounded imbalance factor.

    Each thread draws a weight uniformly from ``[1 - imbalance, 1 + imbalance]``
    and receives the corresponding share of the total.  ``imbalance = 0``
    degenerates to :class:`EvenSplit`.
    """

    def __init__(self, imbalance: float = 0.25) -> None:
        if not 0.0 <= imbalance < 1.0:
            raise WorkloadError(f"imbalance must lie in [0, 1), got {imbalance}")
        self.imbalance = imbalance

    def split(self, total_cycles: float, num_threads: int, rng: random.Random) -> Tuple[float, ...]:
        self._validate(total_cycles, num_threads)
        if num_threads == 1 or self.imbalance == 0.0:
            return EvenSplit().split(total_cycles, num_threads, rng)
        weights = [rng.uniform(1.0 - self.imbalance, 1.0 + self.imbalance) for _ in range(num_threads)]
        weight_sum = left_sum(weights)
        return tuple(total_cycles * w / weight_sum for w in weights)


class DominantThreadSplit(ThreadSplitModel):
    """One dominant thread plus helpers (typical of pipelined decoders).

    The dominant thread receives ``dominant_share`` of the total; the
    remainder is split evenly (with small jitter) over the other threads.
    """

    def __init__(self, dominant_share: float = 0.4, jitter: float = 0.1) -> None:
        if not 0.0 < dominant_share < 1.0:
            raise WorkloadError("dominant_share must lie in (0, 1)")
        if not 0.0 <= jitter < 1.0:
            raise WorkloadError("jitter must lie in [0, 1)")
        self.dominant_share = dominant_share
        self.jitter = jitter

    def split(self, total_cycles: float, num_threads: int, rng: random.Random) -> Tuple[float, ...]:
        self._validate(total_cycles, num_threads)
        if num_threads == 1:
            return (total_cycles,)
        dominant = total_cycles * self.dominant_share
        rest = total_cycles - dominant
        helpers = ImbalancedSplit(self.jitter).split(rest, num_threads - 1, rng)
        return (dominant,) + helpers


def validate_split(split: Sequence[float], total_cycles: float, tolerance: float = 1e-6) -> bool:
    """Check that a split is non-negative and sums to ``total_cycles``."""
    if any(s < 0 for s in split):
        return False
    return abs(sum(split) - total_cycles) <= tolerance * max(1.0, total_cycles)
