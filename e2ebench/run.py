"""End-to-end campaign benchmark: spec -> saved result -> summary table.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper-grid-json --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload sharded-store-merge --seed 7 --seconds 20 --trace 1

Workloads (see ``e2ebench/README.md`` for why each was chosen):

* ``paper-grid-json``: the 7 paper governors x mpeg4/fft x 3 seeds, run
  through the CLI defaults with ``--output`` (a monolithic JSON store),
  then reloaded and summarised in a fresh interpreter;
* ``rl-sweep``: ``proposed`` over nine ``ewma_gamma`` values beside
  ondemand/conservative/shen-upd/oracle on h264-football/fft x 2 seeds,
  CLI defaults, no ``--output``: it ends at the printed summary table;
* ``sharded-store-merge``: the paper grid as two shards, each
  ``--store arrow --checkpoint --output`` (jsonl-encoded without pyarrow),
  then ``merge``, then a lazy reload and the summary.

Every phase runs in a fresh interpreter (``e2ebench/phase.py``), one at a
time, all on one vCPU.  A calibration slice (``e2ebench/calibrate.py``)
timed right before and after every phase gives the host's speed during it,
and each phase's times are reported scaled to one reference host speed;
the host seconds as measured are printed on the ``env`` line.  A run
repeats the workload until ``--seconds`` have passed and reports medians
over its iterations.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs untraced/traced pairs of iterations and prints the per-layer metrics
of the first traced one, writing its spans to ``.e2ebench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

``--write-digest`` records the statistics of the given seed as the
committed reference in ``e2ebench/digest.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGEST_PATH = BENCH_DIR / "digest.json"
#: Scratch space for per-run outputs, removed at the end of every run.
WORK_ROOT = ROOT / ".e2ebench" / "work"
#: Span files of traced runs (kept for inspection).
TRACE_ROOT = ROOT / ".e2ebench" / "traces"

DEFAULT_SEED = 1
#: Untraced/traced iteration pairs a traced run makes at least.
TRACE_PAIRS = 2
#: A run never starts another iteration past this many seconds.
HARD_LIMIT_S = 150.0
#: Seconds of repeated load + summary passes in an untraced iteration's
#: reload interpreter, and of repeated summary renders on ``rl-sweep``
#: (a traced iteration makes one pass).
PASS_BUDGET_S = 0.5

#: Frames per scenario of each grid (the campaign scale of every workload).
PAPER_GRID_FRAMES = 300
RL_SWEEP_FRAMES = 300

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_wall_s": "s",
    "reload_summary_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
    "scenario_success_ratio": "ratio",
}

BACKENDS = ("batchpath", "fastpath", "jitpath", "scalar", "tablepath", "thermalpath")

PER_LAYER_UNITS = {
    "campaign.spec.build_s": "s",
    "campaign.spec.scenarios": "count",
    "campaign.registry.build_s": "s",
    "campaign.registry.builds": "count",
    "sim.engine.run_s": "s",
    "sim.engine.frames": "count",
    **{f"sim.backends.scenarios.{name}": "count" for name in BACKENDS},
    "sim.tables.precompute_s": "s",
    "sim.tables.precomputes": "count",
    "campaign.executor.table_cache_hits": "count",
    "campaign.executor.table_cache_misses": "count",
    "campaign.executor.table_cache_hit_ratio": "ratio",
    "sim.batchpath.run_batch_s": "s",
    "sim.batchpath.batches": "count",
    "sim.batchpath.members": "count",
    "campaign.executor.run_s": "s",
    "campaign.executor.self_s": "s",
    "campaign.executor.units": "count",
    "campaign.executor.failed": "count",
    "campaign.executor.attempts": "count",
    "sim.metrics.summarize_s": "s",
    "sim.metrics.summaries": "count",
    "sim.results.to_dict_s": "s",
    "sim.results.from_dict_s": "s",
    "sim.results.records": "count",
    "campaign.results.encode_s": "s",
    "campaign.results.write_s": "s",
    "campaign.results.decode_s": "s",
    "campaign.results.bytes": "B",
    "campaign.store.encode_s": "s",
    "campaign.store.append_s": "s",
    "campaign.store.write_s": "s",
    "campaign.store.appends": "count",
    "campaign.store.merge_s": "s",
    "campaign.store.load_s": "s",
    "campaign.store.records": "count",
    "campaign.store.bytes": "B",
    "campaign.store.duplicates": "count",
    "campaign.store.deferred_frame_loads": "count",
    "analysis.reporting.summary_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer time metric -> (span name, "total" or "self" time).
SPAN_METRICS = {
    "campaign.spec.build_s": ("campaign.spec.build", "total"),
    "campaign.registry.build_s": ("campaign.registry.build", "total"),
    "sim.engine.run_s": ("sim.engine.run", "total"),
    "sim.tables.precompute_s": ("sim.tables.precompute", "total"),
    "sim.batchpath.run_batch_s": ("sim.batchpath.run_batch", "total"),
    "campaign.executor.run_s": ("campaign.executor.run", "total"),
    "campaign.executor.self_s": ("campaign.executor.run", "self"),
    "sim.metrics.summarize_s": ("sim.metrics.summarize", "total"),
    "sim.results.to_dict_s": ("sim.results.to_dict", "total"),
    "sim.results.from_dict_s": ("sim.results.from_dict", "total"),
    "campaign.results.encode_s": ("campaign.results.to_json", "self"),
    "campaign.results.write_s": ("campaign.results.save", "self"),
    "campaign.results.decode_s": ("campaign.results.from_json", "self"),
    "campaign.store.encode_s": ("campaign.store.encode", "total"),
    "campaign.store.append_s": ("campaign.store.append", "self"),
    "campaign.store.write_s": ("campaign.store.save", "self"),
    "campaign.store.merge_s": ("campaign.store.merge", "total"),
    "campaign.store.load_s": ("campaign.store.load", "total"),
    "analysis.reporting.summary_s": ("analysis.reporting.summary", "total"),
}


# ---------------------------------------------------------------------------
# Inputs: campaign specs generated from the workload seed.
# ---------------------------------------------------------------------------


def derived_seeds(seed: int, application: str, count: int) -> List[int]:
    """Per-application workload seeds derived from the benchmark seed."""
    seeds = []
    for k in range(count):
        digest = hashlib.sha256(f"{seed}/{application}/{k}".encode()).hexdigest()
        seeds.append(int(digest[:8], 16) % 1_000_000)
    return seeds


def grid_spec(name, applications, governors, seeds_per_application, seed):
    """application x governor x derived seeds, labelled ``app/governor/seed=N``."""
    from repro.campaign.spec import CampaignSpec

    scenarios = []
    for label, application in applications.items():
        part = CampaignSpec.from_grid(
            name,
            applications={label: application},
            governors=governors,
            seeds=derived_seeds(seed, label, seeds_per_application),
        )
        scenarios.extend(replace(s, label=f"{label}/{s.label}") for s in part)
    return CampaignSpec(name=name, scenarios=tuple(scenarios))


def paper_grid(seed: int):
    from repro.campaign.spec import FactorySpec
    from repro.testing.parity.harness import paper_governors

    applications = {
        "mpeg4": FactorySpec.of("mpeg4", num_frames=PAPER_GRID_FRAMES),
        "fft": FactorySpec.of("fft", num_frames=PAPER_GRID_FRAMES),
    }
    return grid_spec("paper-grid", applications, paper_governors(), 3, seed)


def rl_sweep_grid(seed: int):
    from repro.campaign.spec import FactorySpec

    governors = {
        f"proposed-g{gamma / 10:.1f}": FactorySpec.of("proposed", ewma_gamma=gamma / 10)
        for gamma in range(1, 10)
    }
    for name in ("ondemand", "conservative", "shen-upd", "oracle"):
        governors[name] = FactorySpec.of(name)
    applications = {
        "h264-football": FactorySpec.of("h264-football", num_frames=RL_SWEEP_FRAMES),
        "fft": FactorySpec.of("fft", num_frames=RL_SWEEP_FRAMES),
    }
    return grid_spec("rl-sweep", applications, governors, 2, seed)


# ---------------------------------------------------------------------------
# Phases: one fresh interpreter each, one at a time.
# ---------------------------------------------------------------------------


class PhaseFailed(Exception):
    """A phase interpreter exited non-zero or wrote no report."""


@dataclass
class Runner:
    workdir: Path
    deadline: float
    calls: int = 0

    def phase(self, kind: str, trace: bool = False, role: str = "", **request) -> dict:
        """Run one phase in a fresh interpreter and return its report.

        A calibration slice is timed right before and right after the
        phase; their mean, ``host_s``, is the host's speed during it.
        """
        self.calls += 1
        request_path = self.workdir / f"phase-{self.calls}.json"
        report_path = self.workdir / f"report-{self.calls}.json"
        request.update(kind=kind, trace=trace, report=str(report_path))
        request_path.write_text(json.dumps(request), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(self.workdir)
        # Same string hashing in every interpreter: one source of
        # run-to-run variation less, and no effect on the results.
        env["PYTHONHASHSEED"] = "0"
        timeout = max(1.0, self.deadline - time.monotonic() + 20.0)
        before = calibrate.slice_s()
        spawned = time.monotonic()
        try:
            completed = subprocess.run(
                [sys.executable, str(BENCH_DIR / "phase.py"), str(request_path)],
                cwd=str(ROOT),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise PhaseFailed(f"{kind} phase timed out after {timeout:.0f} s") from exc
        if completed.returncode != 0 or not report_path.exists():
            tail = completed.stderr.decode("utf-8", "replace")[-2000:]
            raise PhaseFailed(f"{kind} phase exited {completed.returncode}: {tail}")
        after = calibrate.slice_s()
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["t_spawn"] = spawned
        report["host_s"] = (before + after) / 2
        report["role"] = role
        return report


def at_reference(report: dict, seconds: float) -> float:
    """``seconds`` measured in ``report``'s phase, scaled to the reference
    host speed (``calibrate.REFERENCE_S`` over the phase's ``host_s``)."""
    return seconds * calibrate.REFERENCE_S / report["host_s"]


@dataclass
class Iteration:
    """What one pass over a workload measured.

    ``sources`` maps where statistics were read (in-memory, reloaded,
    merged, ...) to label -> statistics; the first is the in-memory result.
    ``campaign`` lists the phases whose spec-loaded-to-end times add up to
    ``campaign_wall_s``; ``passes`` is the phase whose timed ``passes``
    give ``reload_summary_s``.  Times are at the reference host speed; the
    ``raw_`` ones are host seconds as measured.
    """

    reports: List[dict]
    sources: Dict[str, dict]
    campaign: List[dict]
    passes: dict
    output_bytes: int
    traced: bool = False

    @property
    def stats(self) -> dict:
        return next(iter(self.sources.values()))

    @property
    def raw_wall_s(self) -> float:
        return sum(r["t_end"] - r["t_spec_loaded"] for r in self.campaign)

    @property
    def wall_s(self) -> float:
        return sum(at_reference(r, r["t_end"] - r["t_spec_loaded"]) for r in self.campaign)

    @property
    def raw_reload_s(self) -> float:
        """Mean of the phase's passes: they fall into a fast and a slow
        group with the host's speed, and the mean moves only with the share
        of slow passes where a median would jump between them."""
        return statistics.fmean(self.passes["passes"])

    @property
    def reload_s(self) -> float:
        return at_reference(self.passes, self.raw_reload_s)

    @property
    def raw_setup_samples(self) -> List[float]:
        return [r["t_spec_loaded"] - r["t_spawn"] for r in self.reports if "t_spec_loaded" in r]

    @property
    def setup_samples(self) -> List[float]:
        return [
            at_reference(r, r["t_spec_loaded"] - r["t_spawn"])
            for r in self.reports if "t_spec_loaded" in r
        ]

    @property
    def rss_mb(self) -> float:
        return max(r["rss_mb"] for r in self.reports)


def compare(labels, sources: Dict[str, dict]):
    """(label, statistics per source) of every scenario whose statistics are
    missing, failed or not identical in every source."""
    failures = []
    for label in labels:
        values = {name: stats.get(label) for name, stats in sources.items()}
        first = next(iter(values.values()))
        if first is None or any(v != first for v in values.values()):
            failures.append((label, values))
    return failures


def merged_stats(*reports) -> dict:
    merged = {}
    for report in reports:
        merged.update(report.get("stats") or {})
    return merged


@dataclass
class Workload:
    name: str
    grid: str
    make_spec: Callable
    run: Callable  # (runner, spec path, iteration directory, trace) -> Iteration


def reload_phase(runner: Runner, output: Path, lazy: bool, trace: bool) -> dict:
    """Reopen the output in a fresh interpreter, passes for ``PASS_BUDGET_S``."""
    return runner.phase(
        "reload", trace, role="reload", output=str(output), lazy=lazy,
        budget_s=0.0 if trace else PASS_BUDGET_S,
    )


def run_paper_grid_json(runner: Runner, spec_path: str, itdir: Path, trace: bool) -> Iteration:
    out = itdir / "results.json"
    campaign = runner.phase(
        "campaign", trace, role="campaign", argv=[spec_path, "--output", str(out), "--quiet"]
    )
    reload = reload_phase(runner, out, False, trace)
    return Iteration(
        reports=[campaign, reload],
        sources={"in-memory": merged_stats(campaign), "reload": merged_stats(reload)},
        campaign=[campaign],
        passes=reload,
        output_bytes=out.stat().st_size,
        traced=trace,
    )


def run_rl_sweep(runner: Runner, spec_path: str, itdir: Path, trace: bool) -> Iteration:
    campaign = runner.phase(
        "campaign", trace, role="campaign", argv=[spec_path, "--quiet"],
        budget_s=0.0 if trace else PASS_BUDGET_S,
    )
    # No file is written: the summary table on stdout is the whole output,
    # and rendering it from the in-memory result is the summary step.
    return Iteration(
        reports=[campaign],
        sources={"in-memory": merged_stats(campaign)},
        campaign=[campaign],
        passes=campaign,
        output_bytes=campaign["stdout_bytes"],
        traced=trace,
    )


def run_sharded_store_merge(runner: Runner, spec_path: str, itdir: Path, trace: bool) -> Iteration:
    shards = [
        runner.phase(
            "campaign", trace, role="campaign",
            argv=[
                spec_path, "--shard", f"{index}/2", "--store", "arrow",
                "--checkpoint", str(itdir / f"shard{index}.ckpt"),
                "--output", str(itdir / f"shard{index}.store"), "--quiet",
            ],
        )
        for index in range(2)
    ]
    merged_path = itdir / "merged.store"
    merge = runner.phase(
        "campaign", trace, role="merge",
        argv=[
            "merge", str(itdir / "shard0.store"), str(itdir / "shard1.store"),
            "--spec", spec_path, "--store", "arrow", "--output", str(merged_path),
        ],
    )
    reload = reload_phase(runner, merged_path, True, trace)
    return Iteration(
        reports=shards + [merge, reload],
        sources={
            "shards": merged_stats(*shards),
            "merged": merged_stats(merge),
            "reload": merged_stats(reload),
        },
        campaign=shards + [merge],
        passes=reload,
        output_bytes=merged_path.stat().st_size,
        traced=trace,
    )


WORKLOADS = {
    "paper-grid-json": Workload("paper-grid-json", "paper-grid", paper_grid, run_paper_grid_json),
    "rl-sweep": Workload("rl-sweep", "rl-sweep", rl_sweep_grid, run_rl_sweep),
    "sharded-store-merge": Workload(
        "sharded-store-merge", "paper-grid", paper_grid, run_sharded_store_merge
    ),
}


# ---------------------------------------------------------------------------
# Committed reference statistics of the default seed.
# ---------------------------------------------------------------------------


def spec_fingerprint(spec) -> str:
    return hashlib.sha256(spec.to_json(indent=None).encode("utf-8")).hexdigest()


def load_digest(grid: str, spec, seed: int) -> Optional[dict]:
    """The committed statistics for ``grid`` at ``seed``, if any.

    A committed entry whose spec fingerprint differs (the grid was resized
    without refreshing the digest) is returned as an empty reference, so
    every scenario fails the check instead of passing unchecked.
    """
    try:
        entries = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    entry = entries.get(grid)
    if entry is None or entry["seed"] != seed:
        return None
    if entry["spec_sha256"] != spec_fingerprint(spec):
        return {}
    return entry["stats"]


def write_digest(grid: str, spec, seed: int, stats: dict) -> None:
    try:
        entries = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        entries = {}
    entries[grid] = {"seed": seed, "spec_sha256": spec_fingerprint(spec), "stats": stats}
    DIGEST_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_times(reports):
    """Per span name: (total seconds, self seconds, calls)."""
    totals, selfs, calls = Counter(), Counter(), Counter()
    for report in reports:
        spans = report.get("trace", {}).get("spans", [])
        children = defaultdict(list)
        for _, parent, _, start, end in spans:
            children[parent].append((start, end))
        for span_id, _, name, start, end in spans:
            duration = end - start
            totals[name] += duration
            selfs[name] += duration - covered_length(children[span_id])
            calls[name] += 1
    return totals, selfs, calls


def layer_metrics(iterations: List[Iteration]) -> Dict[str, float]:
    """Per-layer metrics of the first traced iteration.

    ``trace.overhead_s`` is the median over the run's untraced/traced pairs
    of traced minus untraced ``campaign_wall_s``.
    """
    untraced = [i for i in iterations if not i.traced]
    traced = [i for i in iterations if i.traced]
    reports = traced[0].reports
    totals, selfs, _ = span_times(reports)
    counts = Counter()
    for report in reports:
        counts.update(report.get("trace", {}).get("counts", {}))
    values: Dict[str, float] = {name: 0 for name in PER_LAYER_UNITS}
    for metric, (span, kind) in SPAN_METRICS.items():
        values[metric] = (totals if kind == "total" else selfs)[span]
    for metric in PER_LAYER_UNITS:
        if PER_LAYER_UNITS[metric] != "s" and metric in counts:
            values[metric] = counts[metric]
    executors = [r for r in reports if r["role"] == "campaign"]
    hits = sum(r["table_cache"]["hits"] for r in executors)
    misses = sum(r["table_cache"]["misses"] for r in executors)
    values["campaign.executor.table_cache_hits"] = hits
    values["campaign.executor.table_cache_misses"] = misses
    values["campaign.executor.table_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name, count in engine_mix(traced[0]).items():
        key = f"sim.backends.scenarios.{name}"
        if key in values:
            values[key] = count
    values["trace.overhead_s"] = statistics.median(
        t.wall_s - u.wall_s for u, t in zip(untraced, traced)
    )
    return values


def engine_mix(iteration: Iteration) -> Dict[str, int]:
    """Which backend ran each scenario, from the executors' in-memory results."""
    mix = Counter()
    for report in iteration.reports:
        if report["role"] == "campaign":
            mix.update(report.get("engines", {}))
    return dict(sorted(mix.items()))


def end_to_end_metrics(iterations: List[Iteration]) -> Dict[str, float]:
    """Medians over the run's iterations (the success ratio is added by the caller)."""
    return {
        "setup_s": statistics.median(s for i in iterations for s in i.setup_samples),
        "campaign_wall_s": statistics.median(i.wall_s for i in iterations),
        "reload_summary_s": statistics.median(i.reload_s for i in iterations),
        "peak_rss_mb": statistics.median(i.rss_mb for i in iterations),
        "output_bytes": statistics.median(i.output_bytes for i in iterations),
    }


def environment_stamp(workload: str, spec) -> dict:
    """Versions and flags behind this run: printed, never written into results."""
    import numpy
    from repro.campaign import store as result_store

    def importable(module: str) -> bool:
        try:
            __import__(module)
        except ImportError:
            return False
        return True

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "workload": workload,
        "scenarios": len(spec),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": importable("numba"),
        "pyarrow": importable("pyarrow"),
        "store_auto": result_store.negotiate_store("auto"),
        "store_arrow": result_store.negotiate_store("arrow"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process and every phase it starts on one vCPU.

    The host slows each vCPU down on its own, so the calibration slices
    timed here must run where the phases run.  Returns the vCPU, or None
    where affinity cannot be set (the slices then still track the host,
    only less closely).
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digest", action="store_true",
        help="record this seed's statistics as the committed reference",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and
    # waits for the running phase, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    spec = workload.make_spec(args.seed)
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workload, spec, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload: Workload, spec, workdir: Path, started: float) -> int:
    spec_path = workdir / "spec.json"
    spec.save(str(spec_path))
    runner = Runner(workdir=workdir, deadline=started + HARD_LIMIT_S)
    stamp = environment_stamp(workload.name, spec)
    stamp["cpu"] = pin_to_one_cpu()
    # The first slices in this process also grow its heap and run slow,
    # which would scale the first phases down: time a few that do not count.
    for _ in range(3):
        calibrate.slice_s()

    def iterate(trace: bool) -> Iteration:
        itdir = workdir / f"it{runner.calls}"
        itdir.mkdir()
        try:
            return workload.run(runner, str(spec_path), itdir, trace)
        finally:
            shutil.rmtree(itdir, ignore_errors=True)

    def repeat(step: Callable[[], None], minimum: int) -> None:
        """Call ``step`` at least ``minimum`` times, then again while at
        least half of the last call still fits in --seconds, so a run's
        length stays close to what was asked."""
        measuring = time.monotonic()
        last, calls = 0.0, 0
        while calls < minimum or (
            time.monotonic() - measuring + last / 2 < args.seconds
            and time.monotonic() < runner.deadline
        ):
            begun = time.monotonic()
            step()
            last = time.monotonic() - begun
            calls += 1

    def measured_iteration() -> None:
        iteration = iterate(False)
        print(
            f"iteration {len(iterations)}: campaign_wall_s={iteration.wall_s:.3f} "
            f"reload_summary_s={iteration.reload_s:.4f} "
            f"setup_s={[round(s, 3) for s in iteration.setup_samples]} "
            f"(host seconds {iteration.raw_wall_s:.3f} {iteration.raw_reload_s:.4f} "
            f"{[round(s, 3) for s in iteration.raw_setup_samples]}; "
            f"{len(iteration.passes['passes'])} passes) "
            f"peak_rss_mb={iteration.rss_mb:.1f}",
            file=sys.stderr,
        )
        iterations.append(iteration)

    def trace_pair() -> None:
        # Alternate which of the two goes first, so a drift of the host's
        # speed during a pair does not always land on the traced one.
        order = (False, True) if len(iterations) % 4 == 0 else (True, False)
        iterations.extend(iterate(trace) for trace in order)

    iterations: List[Iteration] = []
    try:
        # Reference statistics every iteration must reproduce: the committed
        # digest for the default seed, else the unsharded run of the same
        # grid (untimed), else the first iteration.
        reference = None if args.write_digest else load_digest(workload.grid, spec, args.seed)
        if reference is None and workload.name == "sharded-store-merge":
            unsharded = runner.phase("campaign", role="reference", argv=[str(spec_path), "--quiet"])
            reference = merged_stats(unsharded)
        if args.trace:
            repeat(trace_pair, TRACE_PAIRS)
        else:
            repeat(measured_iteration, 1)
    except PhaseFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    # A scenario fails when it fails any check in any iteration, so one
    # intermittent mismatch costs a whole scenario of the ratio.
    failed_labels = set()
    for iteration in iterations:
        sources = dict(iteration.sources)
        if reference is None:
            reference = iteration.stats
        sources["reference"] = reference
        failures = compare(spec.labels, sources)
        failed_labels.update(label for label, _ in failures)
        for label, values in failures[:5]:
            print(f"e2ebench: output check failed: {label}: {values}", file=sys.stderr)
    attempted = len(spec.labels)
    verified = attempted - len(failed_labels)

    if args.trace:
        metrics, units = layer_metrics(iterations), PER_LAYER_UNITS
        write_trace(args, workload, next(i for i in iterations if i.traced))
    else:
        metrics, units = end_to_end_metrics(iterations), END_TO_END_UNITS
        metrics["scenario_success_ratio"] = verified / attempted
    if args.write_digest:
        write_digest(workload.grid, spec, args.seed, iterations[0].stats)
    stamp["engines"] = engine_mix(iterations[-1])
    stamp["iterations"] = len(iterations)
    stamp["host_s"] = statistics.median(r["host_s"] for i in iterations for r in i.reports)
    stamp["raw_s"] = {
        "setup_s": statistics.median(s for i in iterations for s in i.raw_setup_samples),
        "campaign_wall_s": statistics.median(i.raw_wall_s for i in iterations),
        "reload_summary_s": statistics.median(i.raw_reload_s for i in iterations),
    }
    stamp["wall_s"] = round(time.monotonic() - started, 3)
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": verified == attempted,
        "attempted": attempted,
        "failed": attempted - verified,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


def write_trace(args, workload: Workload, traced: Iteration) -> None:
    """Write the traced iteration's spans and per-span totals to ``.e2ebench/``."""
    totals, selfs, calls = span_times(traced.reports)
    TRACE_ROOT.mkdir(parents=True, exist_ok=True)
    path = TRACE_ROOT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "phases": [
            {
                "kind": r["kind"],
                "role": r["role"],
                "spans": r.get("trace", {}).get("spans", []),
                "counts": r.get("trace", {}).get("counts", {}),
                "missing": r.get("trace", {}).get("missing", []),
            }
            for r in traced.reports
        ],
        "by_name": {
            name: {"total_s": totals[name], "self_s": selfs[name], "calls": calls[name]}
            for name in sorted(totals)
        },
    }), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    raise SystemExit(main())
