"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 e2ebench/spread.py --workload rl-sweep --seeds 1-10 --seconds 36

Runs ``e2ebench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric its median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  That share is what a metric's bound in ``BENCHMARK.json`` must
cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=36)
    args = parser.parse_args(argv)

    values = {}
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(BENCH_DIR.parent), capture_output=True, text=True,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else 0.0
        print(f"{name:24s} median={median:.6g} iqr/median={share:.4f} n={len(series)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
