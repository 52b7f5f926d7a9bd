"""Benchmark the campaign result-store I/O path (``repro.campaign.store``).

Three measurements per store encoding on a synthetic large campaign (one
columnar :class:`~repro.sim.epoch.FrameColumns` result per scenario, no
simulation in the timed region — this benchmarks persistence, not
physics):

* **Write throughput** (``write_outcomes_per_s``): persisting the whole
  store in one go (the chunked bulk save).
* **Checkpoint latency** (``checkpoint_events_per_s``): the cost of
  keeping the on-disk checkpoint current while a campaign runs: the
  store *appends one record and flushes* per event (O(1) each).
* **Summary-query latency** (``summary_queries_per_s``): loading the
  persisted store lazily and summarising every outcome
  (:meth:`ScenarioOutcome.metrics_summary`) from the cached per-record
  metrics, without touching frames.

The ``result_store_io`` section always carries the ``jsonl`` row (pure
stdlib).  The Arrow encoding lives in its own
``result_store_arrow_io`` section, recorded empty with a
``result_store_arrow_io_note`` on pyarrow-less runners — exactly the
optional-dependency pattern of the ``jit_closed_loop`` section.

Run as a script to (re)generate the tracked numbers::

    PYTHONPATH=src python benchmarks/bench_result_store.py --smoke \
        --update BENCH_results.json

(``--update`` merges the sections into an existing results file, e.g.
the one ``bench_fastpath.py`` just wrote; ``--output`` writes a
standalone file.)  Or through pytest
(``pytest benchmarks/bench_result_store.py``) for the assertion-bearing
smoke version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import tempfile
import time
from dataclasses import replace
from typing import Dict, List

from repro.campaign import store as result_store
from repro.campaign.results import CampaignResult, ScenarioOutcome
from repro.campaign.spec import FactorySpec, ScenarioSpec
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult

#: Scenarios in the synthetic campaign (full / --smoke).
FULL_SCENARIOS = 1000
SMOKE_SCENARIOS = 200

#: Frames per synthetic scenario result.
FRAMES = 40

#: Checkpoint events timed per encoding, spread across the campaign.
CHECKPOINT_EVENTS = 100

#: Note recorded in place of ``result_store_arrow_io`` rows without pyarrow.
ARROW_SKIP_NOTE = (
    "skipped: Arrow encoding unavailable (pyarrow not importable — install "
    "the 'arrow' extra — or REPRO_DISABLE_ARROW set)"
)


def synthetic_store(num_scenarios: int, seed: int = 7) -> CampaignResult:
    """A campaign result store with deterministic synthetic frame data."""
    rng = random.Random(seed)
    store = CampaignResult(campaign_name=f"synthetic-{num_scenarios}")
    for index in range(num_scenarios):
        frequency = 200.0 + 100.0 * (index % 19)
        frame_time = 0.030 + 0.0001 * (index % 7)
        columns = FrameColumns(
            index=list(range(FRAMES)),
            operating_index=[index % 19 for _ in range(FRAMES)],
            frequency_mhz=[frequency] * FRAMES,
            cycles_per_core=[
                (1e6 * rng.random(), 1e6 * rng.random()) for _ in range(FRAMES)
            ],
            busy_time_s=[frame_time * 0.8] * FRAMES,
            overhead_time_s=[frame_time * 0.01] * FRAMES,
            frame_time_s=[frame_time] * FRAMES,
            interval_s=[max(frame_time, 1 / 30.0)] * FRAMES,
            deadline_s=[1 / 30.0] * FRAMES,
            energy_j=[0.1 + 0.01 * rng.random() for _ in range(FRAMES)],
            average_power_w=[3.0] * FRAMES,
            measured_power_w=[3.1] * FRAMES,
            temperature_c=[55.0] * FRAMES,
            explored=[False] * FRAMES,
        )
        result = SimulationResult(
            governor_name="synthetic",
            application_name="synthetic-app",
            reference_time_s=1 / 30.0,
            columns=columns,
            engine_used="tablepath",
        )
        scenario = ScenarioSpec(
            label=f"synthetic-{index:05d}",
            application=FactorySpec.of("mpeg4", num_frames=FRAMES, seed=index),
            governor=FactorySpec.of("ondemand"),
        )
        store.add(ScenarioOutcome(scenario=scenario, result=result))
    return store


def fresh_outcomes(store: CampaignResult) -> CampaignResult:
    """A copy of ``store`` whose outcomes have never been encoded.

    A written outcome keeps a slot naming its bytes on disk, and a later
    write copies those bytes back instead of encoding the outcome, so
    timing a second write of the same objects would time slot copies.
    In a campaign a checkpoint append is its outcome's first encode;
    every timed write therefore gets fresh copies.
    """
    copy = CampaignResult(campaign_name=store.campaign_name)
    for outcome in store:
        copy.add(replace(outcome))
    return copy


def _bench_write(store: CampaignResult, path: str, flavor: str) -> float:
    started = time.perf_counter()
    result_store.save_store(store, path, flavor)
    return time.perf_counter() - started


def _bench_checkpoint(store: CampaignResult, path: str, flavor: str) -> float:
    """Wall-clock of ``CHECKPOINT_EVENTS`` checkpoint events mid-campaign.

    Each event persists one more completed outcome the way the executor
    does: the store appends the one record and flushes.
    """
    outcomes = list(store)
    events = min(CHECKPOINT_EVENTS, len(outcomes))
    stride = len(outcomes) // events
    writer = result_store.StoreWriter.create(path, store.campaign_name, flavor)
    elapsed = 0.0
    try:
        for position, outcome in enumerate(outcomes):
            if position % stride == 0:
                started = time.perf_counter()
                writer.append(outcome)
                writer.flush()
                elapsed += time.perf_counter() - started
            else:
                writer.append(outcome)
    finally:
        writer.close()
    return elapsed


def _bench_summary(path: str) -> float:
    """Wall-clock of loading ``path`` and summarising every outcome."""
    started = time.perf_counter()
    loaded = CampaignResult.load(path, lazy=True)
    for outcome in loaded:
        summary = outcome.metrics_summary()
        if summary is None or not math.isfinite(summary.total_energy_j):
            raise AssertionError("summary query produced no usable metrics")
    return time.perf_counter() - started


def bench_flavor(
    store: CampaignResult, flavor: str, workdir: str
) -> Dict[str, object]:
    """All three measurements for one store encoding, with a parity check."""
    path = os.path.join(workdir, f"store-{flavor}.bin")
    write_s = _bench_write(fresh_outcomes(store), path, flavor)
    if list(map(result_store.encode_line, CampaignResult.load(path))) != list(
        map(result_store.encode_line, store)
    ):
        raise AssertionError(f"{flavor} store did not round-trip")
    summary_s = _bench_summary(path)
    checkpoint_path = os.path.join(workdir, f"ckpt-{flavor}.bin")
    checkpoint_s = _bench_checkpoint(fresh_outcomes(store), checkpoint_path, flavor)
    events = min(CHECKPOINT_EVENTS, len(store))
    return {
        "scenario": f"synthetic-campaign/{flavor}",
        "flavor": flavor,
        "scenarios": len(store),
        "frames_per_scenario": FRAMES,
        "write_wall_s": write_s,
        "checkpoint_wall_s": checkpoint_s,
        "checkpoint_events": events,
        "summary_wall_s": summary_s,
        "write_outcomes_per_s": len(store) / write_s,
        "checkpoint_events_per_s": events / checkpoint_s,
        "summary_queries_per_s": len(store) / summary_s,
        "store_bytes": os.path.getsize(path),
        "round_trip_identical": True,
    }


def run_suite(num_scenarios: int, smoke: bool) -> Dict[str, object]:
    store = synthetic_store(num_scenarios)
    with tempfile.TemporaryDirectory(prefix="bench-result-store-") as workdir:
        io_rows = [bench_flavor(store, result_store.ENCODING_JSONL, workdir)]
        arrow_rows: List[Dict[str, object]] = []
        if result_store.arrow_available():
            arrow_rows.append(
                bench_flavor(store, result_store.ENCODING_ARROW, workdir)
            )
    results: Dict[str, object] = {
        "result_store_mode": "smoke" if smoke else "full",
        "result_store_scenarios": num_scenarios,
        "result_store_io": io_rows,
        # Always a list (the regression gate indexes sections by rows); the
        # sibling note marks a deliberate skip, never silent truncation.
        "result_store_arrow_io": arrow_rows,
    }
    if not arrow_rows:
        results["result_store_arrow_io_note"] = ARROW_SKIP_NOTE
    return results


# -- pytest entry point (explicit: `pytest benchmarks/bench_result_store.py`) --
def test_bench_result_store_checkpoint_and_parity():
    results = run_suite(SMOKE_SCENARIOS, smoke=True)
    rows = results["result_store_io"] + results["result_store_arrow_io"]
    print()
    for row in rows:
        print(
            f"{row['scenario']:28s} write {row['write_outcomes_per_s']:8.0f}/s  "
            f"ckpt {row['checkpoint_events_per_s']:8.0f}/s  "
            f"summary {row['summary_queries_per_s']:8.0f}/s  "
            f"({row['store_bytes'] / 1e6:.1f} MB)"
        )
    for row in rows:
        assert row["round_trip_identical"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=None, help="write a standalone results file here"
    )
    parser.add_argument(
        "--update",
        default=None,
        metavar="RESULTS_JSON",
        help="merge the result-store sections into this existing results file",
    )
    parser.add_argument(
        "--scenarios",
        type=int,
        default=FULL_SCENARIOS,
        help=f"synthetic campaign size (full mode; default {FULL_SCENARIOS})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"reduced scale for CI ({SMOKE_SCENARIOS} scenarios)",
    )
    args = parser.parse_args()
    if (args.output is None) == (args.update is None):
        parser.error("pass exactly one of --output / --update")
    num_scenarios = SMOKE_SCENARIOS if args.smoke else args.scenarios

    results = run_suite(num_scenarios, args.smoke)
    if args.update:
        with open(args.update, encoding="utf-8") as handle:
            merged = json.load(handle)
        merged.update(results)
        target = args.update
    else:
        merged = {"generated_by": "benchmarks/bench_result_store.py", **results}
        target = args.output
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")

    print(f"wrote {target}")
    for row in results["result_store_io"] + results["result_store_arrow_io"]:
        print(
            f"  {row['scenario']:28s} write {row['write_outcomes_per_s']:8.0f}/s  "
            f"ckpt {row['checkpoint_events_per_s']:8.0f}/s  "
            f"summary {row['summary_queries_per_s']:8.0f}/s"
        )
    if not results["result_store_arrow_io"]:
        print(f"  result_store_arrow_io: {results['result_store_arrow_io_note']}")


if __name__ == "__main__":
    main()
