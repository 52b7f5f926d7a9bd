"""One benchmark phase in a fresh interpreter: run the CLI, or reload a result.

Usage::

    python3 e2ebench/phase.py REQUEST.json

The request names the phase ``kind`` and where to write the report:

* ``campaign``: call ``repro.campaign.cli.main(argv)``, the way a user runs
  ``repro-campaign`` (``argv`` may start with ``merge``);
* ``reload``: ``CampaignResult.load`` the output and render
  ``format_campaign_summary``, as a user reopening results would, repeated
  until ``budget_s`` has passed; each pass is timed.

A ``campaign`` request with ``budget_s`` re-renders the CLI's summary table
from the in-memory result after the timed region until ``budget_s`` has
passed, timing each render.

The report holds monotonic timestamps (the clock is shared with the parent,
which subtracts its own spawn time), the per-scenario statistics of every
store the phase saw, the engine mix, the table-cache counters, the peak RSS
and, when ``trace`` is set, the recorded spans.  Statistics are gathered
after the timed region, with tracing switched off.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter


def scenario_stats(store) -> dict:
    """label -> [total energy, total time, deadline misses, explorations].

    ``None`` marks a failed outcome.  Floats are kept exact, so equality of
    two stats dicts means bit-identical simulated statistics.
    """
    stats = {}
    for outcome in store:
        if not outcome.ok or outcome.result is None:
            stats[outcome.label] = None
            continue
        summary = outcome.metrics_summary()
        misses = round(summary.deadline_miss_ratio * summary.num_frames)
        stats[outcome.label] = [
            summary.total_energy_j,
            summary.total_time_s,
            misses,
            outcome.result.exploration_count,
        ]
    return stats


def repeat_timed(call, budget_s: float, first: bool = True) -> list:
    """Time ``call`` repeatedly until ``budget_s`` has passed; at least once
    when ``first``.  A pass is short and the host's speed jitters from one
    fraction of a second to the next, so one pass is too few samples."""
    passes = []
    started = time.monotonic()
    while (first and not passes) or time.monotonic() - started < budget_s:
        begun = time.monotonic()
        call()
        passes.append(time.monotonic() - begun)
    return passes


def _install_tracer(request: dict):
    if not request.get("trace"):
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _run_cli(request: dict, report: dict) -> None:
    from repro.campaign import cli
    from repro.campaign.executor import table_cache_stats
    from repro.campaign.spec import CampaignSpec

    tracer = _install_tracer(request)
    marks = {}
    load_spec = CampaignSpec.__dict__["load"].__func__

    def load(cls, path):
        spec = load_spec(cls, path)
        marks.setdefault("spec_loaded", time.monotonic())
        return spec

    CampaignSpec.load = classmethod(load)

    # The CLI renders its summary from the in-memory result (or, for a
    # merge, from the lazily reloaded merged store): keep that store for
    # the output check and time the render.
    seen = []
    summary_s = [0.0]
    render = cli.format_campaign_summary

    def summary(store, *args, **kwargs):
        started = time.monotonic()
        text = render(store, *args, **kwargs)
        summary_s[0] += time.monotonic() - started
        seen.append(store)
        return text

    cli.format_campaign_summary = summary

    argv = request.get("argv", [])
    printed = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(printed):
        if tracer is not None:
            report["exit_code"] = tracer.call("campaign.cli.main", cli.main, (argv,), {})
        else:
            report["exit_code"] = cli.main(argv)
    report["t_end"] = time.monotonic()
    if tracer is not None:
        tracer.enabled = False
    report["t_spec_loaded"] = marks.get("spec_loaded", started)
    report["summary_s"] = summary_s[0]
    if seen:
        report["passes"] = [summary_s[0]] + repeat_timed(
            lambda: render(seen[-1]), request.get("budget_s", 0.0), first=False
        )
    report["stdout_bytes"] = len(printed.getvalue().encode("utf-8"))
    report["table_cache"] = table_cache_stats()
    if seen:
        store = seen[-1]
        report["stats"] = scenario_stats(store)
        report["engines"] = dict(
            Counter(o.result.engine_used or "-" for o in store if o.ok)
        )
    if tracer is not None:
        report["trace"] = tracer.to_dict()


def _run_reload(request: dict, report: dict) -> None:
    from repro.analysis import reporting
    from repro.campaign.results import CampaignResult

    tracer = _install_tracer(request)

    def reopen():
        store = CampaignResult.load(request["output"], lazy=request.get("lazy", False))
        reporting.format_campaign_summary(store)
        return store

    def reload():
        nonlocal store
        store = None  # free the previous pass's store before loading again
        if tracer is not None:
            store = tracer.call("bench.reload", reopen, (), {})
        else:
            store = reopen()

    store = None
    report["passes"] = repeat_timed(reload, request.get("budget_s", 0.0))
    if tracer is not None:
        tracer.enabled = False
        report["trace"] = tracer.to_dict()
    report["stats"] = scenario_stats(store)


def peak_rss_mb() -> float:
    """High-water RSS of this interpreter's own address space (``VmHWM``).

    ``ru_maxrss`` would also count the memory the parent process had when
    it started this interpreter.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    report = {"kind": request["kind"]}
    if request["kind"] == "reload":
        _run_reload(request, report)
    else:
        _run_cli(request, report)
    report["rss_mb"] = peak_rss_mb()
    with open(request["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
