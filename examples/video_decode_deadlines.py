#!/usr/bin/env python3
"""Soft-real-time video decoding: deadlines, slack and frame drops.

The paper's motivating scenario is an H.264/MPEG-4 decoder that must sustain
its frame rate: frames missing their deadline are dropped and degrade the
viewing experience, while finishing frames early wastes energy.  This example
looks inside a single run of the proposed RTM on the football sequence:

* how the selected operating point evolves as the Q-table is learnt,
* how the average slack ratio settles around its target after the
  exploration phase,
* where deadline misses (dropped frames) occur,
* how the learnt Q-table's greedy policy looks per state.

The run is a one-scenario campaign with the ``rl-policy`` probe attached:
the probe captures the learnt greedy policy inside the worker, so the same
script works unchanged on the process backend (where the governor object
never crosses back into this process).

Run with:  python examples/video_decode_deadlines.py
"""

from repro import CampaignSpec, FactorySpec, ScenarioSpec, run_campaign
from repro.analysis import format_table, windowed_mean
from repro.sim import frequency_histogram


def sparkline(values, buckets=60, symbols=" .:-=+*#%@"):
    """Render a list of values as a coarse text sparkline."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // buckets)
    sampled = [values[i] for i in range(0, len(values), step)]
    return "".join(symbols[int((v - lo) / span * (len(symbols) - 1))] for v in sampled)


def main() -> None:
    scenario = ScenarioSpec(
        label="football",
        application=FactorySpec.of("h264-football", num_frames=1000),
        governor=FactorySpec.of("proposed"),
        probe=FactorySpec.of("rl-policy"),
    )
    campaign = CampaignSpec(name="video-decode-deadlines", scenarios=(scenario,))
    outcome = run_campaign(campaign).outcome("football")
    result = outcome.result

    print(f"Application: {result.application_name}, "
          f"Tref = {result.reference_time_s * 1e3:.0f} ms")
    print(f"Exploration phase: {result.exploration_count} frames; "
          f"policy converged at epoch {result.converged_epoch}")
    print(f"Total energy: {result.total_energy_j:.1f} J, "
          f"average power {result.average_power_w:.2f} W")
    print(f"Normalised performance: {result.normalized_performance:.2f}, "
          f"dropped frames: {result.deadline_miss_ratio:.1%}")
    print()

    records = result.records
    frequencies = [record.frequency_mhz for record in records]
    slack = [record.slack_ratio for record in records]
    print("Selected frequency over time (MHz, low→high):")
    print("  " + sparkline(frequencies))
    print("Per-frame slack ratio over time (negative = dropped frame):")
    print("  " + sparkline(windowed_mean(slack, 10)))
    print()

    histogram = frequency_histogram(records)
    rows = [
        (f"{mhz:.0f} MHz", count, f"{100.0 * count / len(records):.1f}%")
        for mhz, count in histogram.items()
    ]
    print(format_table(["Operating point", "Frames", "Share"], rows,
                       title="Frequency residency"))
    print()

    # Inspect the learnt policy the probe captured inside the worker.
    policy_rows = [
        (
            f"workload L{entry['workload_level']}",
            f"slack L{entry['slack_level']}",
            f"{entry['frequency_mhz']:.0f} MHz",
        )
        for entry in (outcome.probe or {}).get("greedy_policy", [])
    ]
    print(format_table(["Workload level", "Slack level", "Greedy V-F"], policy_rows,
                       title="Learnt greedy policy (visited states)"))


if __name__ == "__main__":
    main()
