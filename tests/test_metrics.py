"""A run's aggregates: the result properties and the summary built on them.

The :class:`~repro.sim.results.SimulationResult` properties are the one
Python definition of every aggregate.  Without NumPy,
:func:`~repro.sim.metrics.summarize_result` builds its summary from them;
with NumPy it reduces the columns with ``np.sum``, the definition the
result store writes, which matches the properties up to the last digits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.rl_governor import RLGovernor
from repro.sim.comparison import energy_saving_percent
from repro.sim.engine import SimulationEngine
from repro.sim.epoch import DEADLINE_TOLERANCE_S, FrameRecord
from repro.sim.metrics import MetricsSummary, summarize_result
from repro.sim.results import SimulationResult
from repro.testing.parity import smoke_parity_campaign
from repro.workload.video import mpeg4_application

SRC = Path(__file__).resolve().parents[1] / "src"

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


#: Run a campaign and reload its store, eagerly then lazily, with numpy
#: blocked throughout; print each outcome's status, engine, stored metrics
#: and the reloaded result's properties as one JSON line.
_NUMPY_LESS_RUN = f"""
import json
import sys

sys.modules["numpy"] = None
from repro.campaign.cli import main
from repro.campaign.results import CampaignResult

spec, output = sys.argv[1:]
assert main([spec, "--store", "json", "--output", output, "--quiet"]) == 0
outcomes = []
for lazy in (False, True):
    for outcome in CampaignResult.load(output, lazy=lazy):
        result = outcome.result
        properties = {{name: getattr(result, name) for name in {PROPERTY_FIELDS!r}}}
        outcomes.append([outcome.status, result.engine_used, outcome.metrics, properties])
assert sys.modules["numpy"] is None
print(json.dumps(outcomes))
"""


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
    def test_python_summary_is_the_properties(self, monkeypatch, governor_factory, engine):
        pytest.importorskip("numpy")
        result = SimulationEngine(build_a15_cluster(), engine=engine).run(
            mpeg4_application(num_frames=60, seed=3), governor_factory()
        )
        assert result.engine_used == engine
        stored = summarize_result(result)
        monkeypatch.setitem(sys.modules, "numpy", None)
        python = summarize_result(result)
        for name in PROPERTY_FIELDS:
            assert getattr(python, name) == getattr(result, name), name
            assert getattr(stored, name) == pytest.approx(getattr(result, name), rel=1e-12)
        assert python.average_frequency_mhz == pytest.approx(
            stored.average_frequency_mhz, rel=1e-12
        )
        assert python.exploration_epochs == stored.exploration_epochs
        assert python.dvfs_changes == stored.dvfs_changes

    def test_numpy_less_campaign_stores_the_properties(self, tmp_path):
        """A numpy-less campaign runs on ``scalar`` and stores the properties."""
        campaign = smoke_parity_campaign(num_frames=100)
        spec = tmp_path / "spec.json"
        campaign.save(str(spec))
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), environment.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _NUMPY_LESS_RUN, str(spec), str(tmp_path / "out.store")],
            env=environment,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        outcomes = json.loads(completed.stdout.strip().splitlines()[-1])
        assert len(outcomes) == 2 * len(campaign.scenarios)
        for status, engine_used, metrics, properties in outcomes:
            assert status == "done"
            assert engine_used == "scalar"
            for name in PROPERTY_FIELDS:
                assert metrics[name] == properties[name], name

