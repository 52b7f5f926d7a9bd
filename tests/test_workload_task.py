"""Unit tests for the frame/application/thread-split workload abstractions."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.application import Application, PerformanceRequirement
from repro.workload.task import Frame
from repro.workload.threads import (
    DominantThreadSplit,
    EvenSplit,
    ImbalancedSplit,
    validate_split,
)


class TestFrame:
    def test_totals_and_critical_path(self):
        frame = Frame(index=0, thread_cycles=(1e6, 3e6, 2e6), deadline_s=0.04)
        assert frame.total_cycles == pytest.approx(6e6)
        assert frame.max_thread_cycles == pytest.approx(3e6)
        assert frame.num_threads == 3

    def test_cycles_per_core_round_robin_mapping(self):
        frame = Frame(index=0, thread_cycles=(1e6, 2e6, 3e6, 4e6, 5e6), deadline_s=0.04)
        per_core = frame.cycles_per_core(4)
        # Thread 4 wraps onto core 0.
        assert per_core == pytest.approx((6e6, 2e6, 3e6, 4e6))
        assert sum(per_core) == pytest.approx(frame.total_cycles)

    def test_cycles_per_core_more_cores_than_threads(self):
        frame = Frame(index=0, thread_cycles=(1e6,), deadline_s=0.04)
        per_core = frame.cycles_per_core(4)
        assert per_core == (1e6, 0.0, 0.0, 0.0)

    def test_required_frequency(self):
        frame = Frame(index=0, thread_cycles=(4e7, 4e7), deadline_s=0.04)
        assert frame.required_frequency_hz(2) == pytest.approx(1e9)

    def test_scaled(self):
        frame = Frame(index=1, thread_cycles=(1e6, 2e6), deadline_s=0.04, kind="P")
        doubled = frame.scaled(2.0)
        assert doubled.total_cycles == pytest.approx(6e6)
        assert doubled.kind == "P"
        with pytest.raises(WorkloadError):
            frame.scaled(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"index": -1, "thread_cycles": (1.0,), "deadline_s": 0.04},
            {"index": 0, "thread_cycles": (), "deadline_s": 0.04},
            {"index": 0, "thread_cycles": (-1.0,), "deadline_s": 0.04},
            {"index": 0, "thread_cycles": (1.0,), "deadline_s": 0.0},
        ],
    )
    def test_invalid_frames_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            Frame(**kwargs)

    def test_invalid_core_count_rejected(self):
        frame = Frame(index=0, thread_cycles=(1.0,), deadline_s=0.04)
        with pytest.raises(WorkloadError):
            frame.cycles_per_core(0)


class TestPerformanceRequirement:
    def test_tref_from_fps(self):
        assert PerformanceRequirement(25.0).tref_s == pytest.approx(0.040)

    def test_explicit_reference_time_overrides_fps(self):
        requirement = PerformanceRequirement(25.0, reference_time_s=0.031)
        assert requirement.tref_s == pytest.approx(0.031)

    def test_invalid_values_rejected(self):
        with pytest.raises(WorkloadError):
            PerformanceRequirement(0.0)
        with pytest.raises(WorkloadError):
            PerformanceRequirement(25.0, reference_time_s=-1.0)


class TestApplication:
    def _frames(self, count):
        return [
            Frame(index=i, thread_cycles=(1e6 * (i + 1),), deadline_s=0.04)
            for i in range(count)
        ]

    def test_basic_accessors(self):
        application = Application("demo", self._frames(5), PerformanceRequirement(25.0))
        assert len(application) == 5
        assert application.num_frames == 5
        assert application[2].index == 2
        assert application.reference_time_s == pytest.approx(0.040)
        assert application.total_cycles == pytest.approx(sum(1e6 * (i + 1) for i in range(5)))

    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4, 6])
    def test_cycles_per_core_is_each_frames(self, num_cores):
        """Every frame's own mapping, sharing the frame's tuple when it has
        one thread per core, for uniform and mixed thread counts."""
        rng = random.Random(num_cores)
        for counts in ([num_cores] * 6, [num_cores, 3, num_cores, 1, 4, num_cores]):
            frames = [
                Frame(index=i, thread_cycles=tuple(rng.uniform(1e6, 9e6) for _ in range(count)),
                      deadline_s=0.04)
                for i, count in enumerate(counts)
            ]
            rows = Application("demo", frames, PerformanceRequirement(25.0)).cycles_per_core(num_cores)
            assert rows == [frame.cycles_per_core(num_cores) for frame in frames]
            if set(counts) == {num_cores}:
                assert all(row is frame.thread_cycles for row, frame in zip(rows, frames))
        with pytest.raises(WorkloadError):
            Application("demo", frames, PerformanceRequirement(25.0)).cycles_per_core(0)

    def test_frames_must_be_consecutively_numbered(self):
        frames = self._frames(3)
        frames[1] = Frame(index=7, thread_cycles=(1e6,), deadline_s=0.04)
        with pytest.raises(WorkloadError):
            Application("broken", frames, PerformanceRequirement(25.0))

    def test_empty_application_rejected(self):
        with pytest.raises(WorkloadError):
            Application("empty", [], PerformanceRequirement(25.0))

    def test_workload_variability_zero_for_constant_demand(self):
        frames = [Frame(index=i, thread_cycles=(2e6,), deadline_s=0.04) for i in range(10)]
        application = Application("const", frames, PerformanceRequirement(25.0))
        assert application.workload_variability() == pytest.approx(0.0)

    def test_workload_variability_positive_for_varying_demand(self):
        application = Application("vary", self._frames(10), PerformanceRequirement(25.0))
        assert application.workload_variability() > 0.2

    def test_truncated(self):
        application = Application("demo", self._frames(10), PerformanceRequirement(25.0))
        short = application.truncated(4)
        assert short.num_frames == 4
        assert short.reference_time_s == application.reference_time_s
        with pytest.raises(WorkloadError):
            application.truncated(0)


class TestThreadSplits:
    @pytest.mark.parametrize("split_model", [EvenSplit(), ImbalancedSplit(0.3), DominantThreadSplit()])
    def test_splits_conserve_total(self, split_model):
        rng = random.Random(1)
        for total in (0.0, 1e6, 9.7e7):
            for threads in (1, 2, 4, 7):
                split = split_model.split(total, threads, rng)
                assert len(split) == threads
                assert validate_split(split, total)

    def test_even_split_is_even(self):
        split = EvenSplit().split(8e6, 4, random.Random(0))
        assert all(s == pytest.approx(2e6) for s in split)

    def test_imbalanced_split_bounded(self):
        model = ImbalancedSplit(0.25)
        split = model.split(4e6, 4, random.Random(2))
        share = [s / 1e6 for s in split]
        assert max(share) / min(share) < (1.25 / 0.75) + 1e-6

    def test_dominant_split_has_dominant_thread(self):
        model = DominantThreadSplit(dominant_share=0.4)
        split = model.split(1e7, 4, random.Random(3))
        assert split[0] == pytest.approx(4e6)
        assert split[0] >= max(split[1:])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            ImbalancedSplit(1.5)
        with pytest.raises(WorkloadError):
            DominantThreadSplit(dominant_share=1.2)
        with pytest.raises(WorkloadError):
            EvenSplit().split(-1.0, 2, random.Random(0))
        with pytest.raises(WorkloadError):
            EvenSplit().split(1.0, 0, random.Random(0))

    def test_validate_split_detects_mismatch(self):
        assert not validate_split([1.0, 1.0], 3.0)
        assert not validate_split([-1.0, 4.0], 3.0)
        assert validate_split([1.0, 2.0], 3.0)
