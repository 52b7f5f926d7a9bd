"""A run's aggregates: the result properties and the summary built on them.

The :class:`~repro.sim.results.SimulationResult` properties are the one
Python definition of every aggregate.
:func:`~repro.sim.metrics.summarize_result` reduces the same columns in
``numpy.sum``'s pairwise order (:func:`~repro.sim.metrics.pairwise_sum`),
the definition the result store writes, which matches the properties up to
the last digits and is the same with or without numpy installed.
"""

import filecmp
import random
from array import array

import pytest

from repro.errors import SimulationError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.rl_governor import RLGovernor
from repro.sim.comparison import energy_saving_percent
from repro.sim.engine import SimulationEngine
from repro.sim.epoch import DEADLINE_TOLERANCE_S, FrameRecord
from repro.sim.metrics import (
    MetricsSummary,
    pairwise_sum,
    summarize_result,
)
from repro.sim.results import SimulationResult
from repro.testing.parity import smoke_parity_campaign
from repro.workload.video import mpeg4_application
from tests.conftest import run_python

#: The summary fields that are result properties.
PROPERTY_FIELDS = (
    "num_frames",
    "total_energy_j",
    "total_time_s",
    "average_power_w",
    "average_frame_time_s",
    "deadline_miss_ratio",
    "mean_slack_ratio",
    "total_overhead_s",
)


def make_result(frame_times, total_energy_j=100.0, total_time_s=50.0, reference_time_s=0.040):
    """A hand-built run: one frame per time, energy and time spread evenly."""
    num = len(frame_times)
    records = [
        FrameRecord(
            index=index,
            operating_index=0,
            frequency_mhz=1000.0,
            cycles_per_core=(1e7,),
            busy_time_s=frame_time,
            overhead_time_s=0.0,
            frame_time_s=frame_time,
            interval_s=total_time_s / num,
            deadline_s=reference_time_s,
            energy_j=total_energy_j / num,
            average_power_w=total_energy_j / total_time_s,
            measured_power_w=total_energy_j / total_time_s,
            temperature_c=50.0,
        )
        for index, frame_time in enumerate(frame_times)
    ]
    return SimulationResult("test", "app", reference_time_s, records=records)


@pytest.fixture
def result() -> SimulationResult:
    return make_result([0.030, 0.040, 0.050])


class TestResultAggregates:
    def test_average_power(self, result):
        assert result.average_power_w == pytest.approx(2.0)

    def test_average_frame_time(self, result):
        assert result.average_frame_time_s == pytest.approx(0.040)

    def test_normalized_performance_definition(self, result):
        # Average frame time equals Tref -> normalised performance of exactly 1.
        assert result.normalized_performance == pytest.approx(1.0)

    def test_normalized_performance_over_and_under(self):
        assert make_result([0.020]).normalized_performance == pytest.approx(0.5)
        assert make_result([0.080]).normalized_performance == pytest.approx(2.0)

    def test_normalized_energy(self, result):
        oracle = make_result([0.040], total_energy_j=80.0)
        assert result.normalized_energy(oracle) == pytest.approx(1.25)
        with pytest.raises(SimulationError):
            result.normalized_energy(make_result([0.040], total_energy_j=0.0))

    def test_deadline_miss_ratio(self, result):
        assert result.deadline_miss_ratio == pytest.approx(1.0 / 3.0)

    def test_deadline_tolerance(self):
        on_time = 0.040 + DEADLINE_TOLERANCE_S
        result = make_result([on_time, 0.040 + 1e-9])
        assert [record.met_deadline for record in result.records] == [True, False]
        assert result.deadline_miss_ratio == 0.5
        assert summarize_result(result).deadline_miss_ratio == 0.5

    def test_empty_result(self):
        empty = SimulationResult("test", "app", 0.040)
        assert empty.average_power_w == 0.0
        assert empty.average_frame_time_s == 0.0
        assert empty.deadline_miss_ratio == 0.0
        assert summarize_result(empty) == MetricsSummary(
            0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0
        )


class TestEnergySaving:
    def test_positive_saving(self):
        assert energy_saving_percent(84.0, 100.0) == pytest.approx(16.0)

    def test_negative_saving_when_candidate_worse(self):
        assert energy_saving_percent(110.0, 100.0) == pytest.approx(-10.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            energy_saving_percent(1.0, 0.0)


def numpy_summary(result: SimulationResult) -> MetricsSummary:
    """The summary as numpy reduced the columns when it defined the stored bytes."""
    np = pytest.importorskip("numpy")
    columns = result.columns
    num = result.num_frames
    frame_times = np.asarray(columns.frame_time_s)
    deadlines = np.asarray(columns.deadline_s)
    operating = np.asarray(columns.operating_index)
    total_energy = float(np.sum(np.asarray(columns.energy_j)))
    total_time = float(np.sum(np.asarray(columns.interval_s)))
    misses = int(np.count_nonzero(frame_times > deadlines + DEADLINE_TOLERANCE_S))
    positive = deadlines > 0
    slack = np.where(positive, (deadlines - frame_times) / np.where(positive, deadlines, 1.0), 0.0)
    return MetricsSummary(
        num_frames=num,
        total_energy_j=total_energy,
        total_time_s=total_time,
        average_power_w=total_energy / total_time if total_time > 0 else 0.0,
        average_frame_time_s=float(np.sum(frame_times)) / num,
        average_frequency_mhz=float(np.sum(np.asarray(columns.frequency_mhz))) / num,
        deadline_miss_ratio=misses / num,
        mean_slack_ratio=float(np.sum(slack)) / num,
        total_overhead_s=float(np.sum(np.asarray(columns.overhead_time_s))),
        exploration_epochs=int(np.count_nonzero(np.asarray(columns.explored))),
        dvfs_changes=int(np.count_nonzero(operating[1:] != operating[:-1])),
    )


class TestPairwiseSum:
    """``pairwise_sum`` adds in exactly ``numpy.sum``'s order."""

    @staticmethod
    def _values(rng: random.Random, count: int) -> list:
        # Signed values over nine decades, so the order of additions shows.
        return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-4.0, 5.0) for _ in range(count)]

    @pytest.mark.parametrize("lengths", [range(0, 301), (1000, 3000, 4097)], ids=["0-300", "long"])
    def test_equals_numpy_sum(self, lengths):
        np = pytest.importorskip("numpy")
        rng = random.Random(2017)
        for count in lengths:
            values = self._values(rng, count)
            expected = float(np.sum(np.asarray(values)))
            assert pairwise_sum(values) == expected, count
            assert pairwise_sum(array("d", values)) == expected, count

    def test_rows_equal_numpy_axis_1_sums(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(55)
        for width in range(1, 17):
            matrix = [self._values(rng, width) for _ in range(20)]
            expected = np.asarray(matrix).sum(axis=1).tolist()
            assert [pairwise_sum(row) for row in matrix] == expected, width

    def test_plain_left_to_right_addition_differs(self):
        """The order matters: a sequential sum misses numpy's in the last digits."""
        rng = random.Random(7)
        differs = 0
        for _ in range(50):
            values = self._values(rng, 200)
            sequential = 0.0
            for value in values:
                sequential += value
            differs += sequential != pairwise_sum(values)
        assert differs > 0

    def test_starts_from_positive_zero(self):
        assert str(pairwise_sum([-0.0] * 3)) == "0.0"
        assert str(pairwise_sum([-0.0] * 9)) == "0.0"


class TestSummarizeResult:
    @pytest.mark.parametrize(
        "governor_factory, engine",
        [
            (OndemandGovernor, "tablepath"),
            (RLGovernor, "tablepath"),
            (OracleGovernor, "fastpath"),
            (RLGovernor, "scalar"),
        ],
    )
    def test_summary_is_the_numpy_reduction(self, governor_factory, engine):
        """The summary equals numpy's reduction exactly and the properties to 1e-12."""
        result = SimulationEngine(build_a15_cluster(), engine=engine).run(
            mpeg4_application(num_frames=600, seed=3), governor_factory()
        )
        assert result.engine_used == engine
        summary = summarize_result(result)
        assert summary == numpy_summary(result)
        for name in PROPERTY_FIELDS:
            assert getattr(summary, name) == pytest.approx(getattr(result, name), rel=1e-12)

    def test_list_columns_are_read_as_floats(self):
        """A float column that holds an int sums as numpy's float64 view did."""
        result = make_result([0.030, 0.040, 0.050])
        result.columns.overhead_time_s = [0, 0.25, 1]
        assert type(result.columns.overhead_time_s) is list
        assert summarize_result(result) == numpy_summary(result)


#: Run the CLI on a spec, then reload its store eagerly and lazily; print
#: each outcome's engine, the reloaded summaries and the numpy modules left
#: in ``sys.modules`` as one JSON line.  ``block`` makes numpy unimportable.
_CAMPAIGN_RUN = """
import json
import sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from repro.campaign.cli import main
from repro.campaign.results import CampaignResult

spec, output = sys.argv[2:]
assert main([spec, "--store", "json", "--output", output, "--quiet"]) == 0
engines = [outcome.result.engine_used for outcome in CampaignResult.load(output)]
for outcome in CampaignResult.load(output, lazy=True):
    outcome.metrics_summary()
numpy = [name for name, module in sys.modules.items()
         if name.split(".")[0] == "numpy" and module is not None]
print(json.dumps({"engines": engines, "numpy": numpy}))
"""


class TestWithoutNumpy:
    def test_numpy_less_campaign_writes_the_same_store(self, tmp_path):
        """With numpy unimportable a campaign negotiates the same engines and
        writes a store ``cmp``-equal to the run with numpy installed."""
        pytest.importorskip("numpy")
        campaign = smoke_parity_campaign(num_frames=100)
        spec = str(tmp_path / "spec.json")
        campaign.save(spec)
        blocked = run_python(_CAMPAIGN_RUN, "block", spec, "block.store", cwd=tmp_path)
        allowed = run_python(_CAMPAIGN_RUN, "allow", spec, "allow.store", cwd=tmp_path)
        assert len(blocked["engines"]) == len(campaign.scenarios)
        assert set(blocked["engines"]) == {"fastpath", "tablepath"}
        assert blocked == allowed == {"engines": blocked["engines"], "numpy": []}
        assert filecmp.cmp(tmp_path / "block.store", tmp_path / "allow.store", shallow=False)
