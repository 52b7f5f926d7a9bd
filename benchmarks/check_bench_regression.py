"""CI bench regression gate: compare a fresh ``BENCH_results.json`` to a baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke --output BENCH_results.json
    python benchmarks/check_bench_regression.py BENCH_results.json \
        --baseline benchmarks/BENCH_baseline_smoke.json --tolerance 0.30

For every benchmark scenario the gate compares the measured frames/sec
against the committed baseline and **fails (exit 1) if any scenario
regresses by more than the tolerance** (default 30%, sized to absorb CI
runner noise).  Scenarios present in the baseline but missing from the
current run also fail — dropping a scenario must never masquerade as a
speedup.  Faster-than-baseline runs always pass; refresh the baseline by
committing a new smoke-run output when the hardware or the expected
performance changes for a good reason.

The results file's ``metadata`` block (python/numpy versions, CPU count,
git sha) is provenance only: the gate compares nothing outside the
benchmark sections listed in :data:`GATED_METRICS`, so baselines produced
before the block existed — or on a different box — still parse and gate
identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

#: (results section, metric) pairs gated on frames/sec.
GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("vectorized_fast_path", "fast_frames_per_s"),
    ("vectorized_fast_path", "scalar_frames_per_s"),
    ("table_closed_loop", "table_frames_per_s"),
    ("table_closed_loop", "cold_table_frames_per_s"),
    ("table_closed_loop", "scalar_frames_per_s"),
    ("thermal_closed_loop", "thermal_frames_per_s"),
    ("thermal_closed_loop", "cold_thermal_frames_per_s"),
    ("thermal_closed_loop", "scalar_frames_per_s"),
    ("jit_closed_loop", "jit_frames_per_s"),
    ("jit_closed_loop", "baseline_frames_per_s"),
    ("result_store_io", "write_outcomes_per_s"),
    ("result_store_io", "checkpoint_events_per_s"),
    ("result_store_io", "summary_queries_per_s"),
    ("result_store_arrow_io", "write_outcomes_per_s"),
    ("result_store_arrow_io", "checkpoint_events_per_s"),
    ("result_store_arrow_io", "summary_queries_per_s"),
)


def _section_skipped(results: Dict, section: str) -> bool:
    """A section deliberately recorded empty with a ``<section>_note``.

    The jit section is skipped-with-a-note on runners without numba, the
    result-store arrow section on runners without pyarrow; a noted skip
    in the *current* results must not count baseline scenarios as
    missing (an optional backend's absence is not a regression).
    """
    return not results.get(section) and bool(results.get(f"{section}_note"))


def _rows_by_scenario(results: Dict, section: str) -> Dict[str, Dict]:
    return {row["scenario"]: row for row in results.get(section, [])}


def compare(current: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Return one failure message per regressed (or missing) scenario metric.

    A scenario metric regresses when ``current < baseline * (1 - tolerance)``.
    An empty return value means the gate passes.
    """
    failures: List[str] = []
    for section, metric in GATED_METRICS:
        if _section_skipped(current, section):
            continue
        current_rows = _rows_by_scenario(current, section)
        for scenario, base_row in _rows_by_scenario(baseline, section).items():
            base_value = float(base_row[metric])
            row = current_rows.get(scenario)
            if row is None:
                failures.append(
                    f"{section}/{scenario}: scenario missing from current results"
                )
                continue
            value = float(row[metric])
            floor = base_value * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{section}/{scenario}: {metric} {value:.0f} < "
                    f"{floor:.0f} (baseline {base_value:.0f} - {tolerance:.0%})"
                )
    return failures


def summarize(current: Dict, baseline: Dict) -> List[str]:
    """Human-readable current/baseline ratio per gated scenario metric."""
    lines: List[str] = []
    skipped_noted = set()
    for section, metric in GATED_METRICS:
        if _section_skipped(current, section):
            if section not in skipped_noted:
                skipped_noted.add(section)
                lines.append(
                    f"  {section}: SKIPPED ({current.get(f'{section}_note')})"
                )
            continue
        current_rows = _rows_by_scenario(current, section)
        for scenario, base_row in _rows_by_scenario(baseline, section).items():
            row = current_rows.get(scenario)
            if row is None:
                lines.append(f"  {section}/{scenario:28s} {metric}: MISSING")
                continue
            value, base_value = float(row[metric]), float(base_row[metric])
            ratio = value / base_value if base_value else float("inf")
            lines.append(
                f"  {section}/{scenario:28s} {metric}: {value:10.0f} "
                f"vs {base_value:10.0f}  ({ratio:5.2f}x)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly generated BENCH_results.json")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_baseline_smoke.json",
        help="committed baseline to gate against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed frames/sec regression fraction (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")

    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    print(f"bench gate: {args.current} vs {args.baseline} (tolerance {args.tolerance:.0%})")
    for line in summarize(current, baseline):
        print(line)

    failures = compare(current, baseline, args.tolerance)
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nPASS: no scenario regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
