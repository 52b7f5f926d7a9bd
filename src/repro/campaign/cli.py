"""``repro-campaign`` — run, serve, and merge campaigns from the shell.

Usage::

    repro-campaign spec.json --backend process --workers 4 --output results.store
    repro-campaign spec.json --resume results.store --output results.store
    repro-campaign spec.json --checkpoint ckpt.store --checkpoint-every 5 --retries 2
    repro-campaign spec.json --shard 0/2 --output shard0.store
    repro-campaign spec.json --engine scalar --output reference.store
    repro-campaign spec.json --store arrow --checkpoint ckpt.bin --output results.bin
    repro-campaign merge shard0.store shard1.store --spec spec.json --output merged.store
    repro-campaign serve spec.json --port 8765 --journal journal.json --output results.store
    repro-campaign work --coordinator http://127.0.0.1:8765
    repro-campaign --list

The spec file is a :class:`~repro.campaign.spec.CampaignSpec` JSON document
(``CampaignSpec.save`` writes one).  With ``--resume``, scenarios already
``done`` in the given results file are skipped (``failed`` ones re-run);
``--checkpoint`` additionally appends each outcome to a store file as it
completes, flushed every ``--checkpoint-every`` completions — and on
Ctrl-C — so a crashed or killed campaign resumes from its last checkpoint
instead of starting over (an existing checkpoint file is picked up
automatically; a torn tail is salvaged and a corrupt file quarantined
with a warning instead of aborting the run).
``--shard I/N`` runs the deterministic 1/N slice of the campaign; the
``merge`` subcommand streams shard result files back into the store an
unsharded run would produce — never holding more than one shard's batch
in memory (pass ``--spec`` to verify completeness and restore campaign
order).  Every file written is a result store (see
:mod:`repro.campaign.store`); ``--store`` picks its encoding: ``json``
is the stdlib jsonl encoding, ``arrow`` and ``auto`` (the default) use
Arrow when pyarrow is installed and jsonl otherwise.  Results files of
earlier releases (one JSON blob) are still read by ``--resume``,
``--checkpoint`` and ``merge``.

``serve`` starts the fault-tolerant coordinator of
:mod:`repro.campaign.service`: scenarios are handed to ``work`` sites as
leases with deadlines, heartbeats keep leases alive, and dead or
partitioned workers have their scenarios requeued on a capped
exponential backoff — the merged result is bit-identical to an unsharded
serial run.  ``work`` runs one pull-based worker site against a serving
coordinator (any number may join or leave mid-campaign).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

# Shared by every subcommand; what only one subcommand runs (the executor
# with its engines and governors; the distributed service with its
# HTTP stack) is imported at the top of that subcommand's handler, before
# it parses arguments, so ``merge`` never loads an engine and no run loads
# the service.
from repro.analysis.reporting import format_campaign_summary
from repro.errors import ConfigurationError, ReproError
from repro.campaign import store as result_store
from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec
from repro.sim.config import AUTO, ENGINES

#: Everything spec/results parsing+validation can raise: I/O and JSON errors,
#: missing keys, spec validation, unexpected fields.
LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, ConfigurationError)

#: Exit codes: hard usage/configuration error vs completed-with-failures.
EXIT_USAGE = 2
EXIT_FAILED_SCENARIOS = 1
EXIT_INTERRUPTED = 130


def _print_registries() -> None:
    from repro.campaign.registry import registered_names

    for kind, names in registered_names().items():
        print(f"{kind}:")
        for name in names:
            print(f"  {name}")


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``I/N`` shard selector into ``(index, count)``."""
    try:
        index_text, count_text = text.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"--shard expects INDEX/COUNT (e.g. 0/2), got {text!r}"
        ) from None


def _load_resume_stores(
    resume_path: Optional[str], checkpoint_path: Optional[str]
) -> Optional[CampaignResult]:
    """Combine ``--resume`` and an existing ``--checkpoint`` file into one store.

    An explicitly named ``--resume`` file must parse (garbage there is a
    user error worth stopping for); the automatic checkpoint is loaded
    through the quarantining path — a file truncated by a crash
    mid-write is moved aside with a warning and the campaign restarts,
    rather than dying on a ``JSONDecodeError``.
    """
    stores: List[CampaignResult] = []
    if resume_path:
        stores.append(CampaignResult.load(resume_path))
    if checkpoint_path:
        checkpoint = CampaignResult.load_checkpoint(checkpoint_path)
        if checkpoint is not None:
            stores.append(checkpoint)
    if not stores:
        return None
    combined = CampaignResult(campaign_name=stores[0].campaign_name)
    for store in stores:
        for outcome in store:
            combined.add(outcome)
    return combined


def _run_main(argv: Sequence[str]) -> int:
    from repro.campaign.executor import (
        BACKENDS,
        CampaignExecutor,
        CampaignInterrupted,
        RetryPolicy,
        table_cache_stats,
    )

    parser = argparse.ArgumentParser(prog="repro-campaign", description=__doc__)
    parser.add_argument("spec", nargs="?", help="path to a CampaignSpec JSON file")
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial", help="execution backend"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker count for the process backend"
    )
    parser.add_argument(
        "--output", default=None, help="write the campaign results to this store file"
    )
    parser.add_argument(
        "--resume",
        default=None,
        help="results file whose done scenarios are skipped (failed ones re-run)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="append each outcome to this store file as it completes; an "
        "existing file is resumed from automatically",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="K",
        help="completions between checkpoint flushes (default 10)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a crashing scenario up to this many extra times before "
        "recording it as failed",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="S",
        help="base seconds between retry attempts; grows exponentially per "
        "attempt (capped, with deterministic jitter)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-scenario wall-clock budget; a scenario still running after "
        "S seconds is recorded as failed with a timeout error",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only the deterministic 1/N slice I of the campaign "
        "(merge the shard outputs with the merge subcommand)",
    )
    parser.add_argument(
        "--engine",
        choices=[AUTO, *ENGINES],
        default=None,
        help="pin every scenario to this simulation engine "
        "(overrides the specs' engine field; 'auto' negotiates the fastest "
        "eligible engine per scenario; a scenario the named engine cannot "
        "run fails with a capability-mismatch error)",
    )
    parser.add_argument(
        "--store",
        choices=result_store.STORE_CHOICES,
        default=result_store.STORE_AUTO,
        help="encoding of the --output and --checkpoint stores: 'json' is "
        "the stdlib jsonl encoding, 'arrow' and 'auto' (default) use Arrow "
        "when pyarrow is installed and jsonl otherwise",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered factories and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-scenario progress lines"
    )
    arguments = parser.parse_args(argv)

    if arguments.list:
        _print_registries()
        return 0
    if not arguments.spec:
        parser.error("a campaign spec file is required (or use --list)")

    try:
        campaign = CampaignSpec.load(arguments.spec)
    except LOAD_ERRORS as exc:
        print(f"repro-campaign: cannot load campaign spec {arguments.spec!r}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if arguments.engine:
            campaign = CampaignSpec(
                name=campaign.name,
                scenarios=tuple(
                    replace(scenario, engine=arguments.engine)
                    for scenario in campaign.scenarios
                ),
            )
        if arguments.shard:
            shard_index, shard_count = _parse_shard(arguments.shard)
            campaign = campaign.shard(shard_index, shard_count)
        resume = _load_resume_stores(arguments.resume, arguments.checkpoint)
    except LOAD_ERRORS as exc:
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        executor = CampaignExecutor(
            backend=arguments.backend,
            max_workers=arguments.workers,
            retry=RetryPolicy(
                max_attempts=arguments.retries + 1,
                backoff_s=arguments.retry_backoff,
                timeout_s=arguments.timeout,
            ),
            store=arguments.store,
        )
    except ConfigurationError as exc:
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def progress(label: str, done: int, total: int) -> None:
        if not arguments.quiet:
            print(f"[{done}/{total}] {label}", file=sys.stderr)

    started = time.perf_counter()
    try:
        store = executor.run(
            campaign,
            resume=resume,
            progress=progress,
            checkpoint_path=arguments.checkpoint,
            checkpoint_every=arguments.checkpoint_every,
        )
    except CampaignInterrupted as interrupted:
        # Never lose completed work on Ctrl-C: the executor already saved
        # the checkpoint (if one was configured); otherwise persist the
        # partial store to --output so the run can be resumed from it.
        print(f"repro-campaign: {interrupted}", file=sys.stderr)
        if interrupted.checkpoint_path is None and arguments.output:
            interrupted.partial.save(arguments.output, store=arguments.store)
            print(
                f"repro-campaign: partial results saved to {arguments.output}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    except ConfigurationError as exc:
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started

    # Persist before printing: a broken stdout pipe (e.g. `| head`) must not
    # lose the results of a long campaign.
    if arguments.output:
        store.save(arguments.output, store=arguments.store)
    # The table cache lives per process: only the serial backend's counters
    # describe this run (process-pool workers each kept their own).
    cache_stats = table_cache_stats() if arguments.backend == "serial" else None
    print(format_campaign_summary(store, cache_stats=cache_stats))
    print(f"completed in {elapsed:.1f} s on the {arguments.backend!r} backend")
    if arguments.output:
        print(f"results written to {arguments.output}")
    return EXIT_FAILED_SCENARIOS if store.failed() else 0


def _merge_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign merge",
        description="Streaming union of shard result files by scenario id "
        "(conflict = error); never holds more than one shard in memory.",
    )
    parser.add_argument(
        "stores", nargs="+", help="shard result files to merge (any encoding, or legacy JSON)"
    )
    parser.add_argument(
        "--output", required=True, help="write the merged store to this file"
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="campaign spec JSON; when given, the merged store is verified "
        "complete and re-ordered to campaign order (bit-identical to an "
        "unsharded run)",
    )
    parser.add_argument(
        "--store",
        choices=result_store.STORE_CHOICES,
        default=result_store.STORE_AUTO,
        help="encoding of the merged store: 'json' is jsonl, 'arrow' and "
        "'auto' (default) use Arrow when pyarrow is installed and jsonl "
        "otherwise (input formats are auto-detected per shard)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the merged-store summary"
    )
    arguments = parser.parse_args(argv)

    try:
        campaign = CampaignSpec.load(arguments.spec) if arguments.spec else None
        stats = result_store.merge_store_files(
            arguments.stores,
            arguments.output,
            spec=campaign,
            store=arguments.store,
        )
    except (ReproError,) + LOAD_ERRORS as exc:
        print(f"repro-campaign merge: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Lazy reload for the summary + exit code: columnar outputs answer
    # from cached metrics without touching any frames.
    merged = CampaignResult.load(arguments.output, lazy=True)
    if not arguments.quiet:
        print(format_campaign_summary(merged))
    print(
        f"merged {stats.stores} store(s), {stats.scenarios} scenarios "
        f"({stats.duplicates} duplicate(s)) -> {arguments.output}"
    )
    return EXIT_FAILED_SCENARIOS if merged.failed() else 0


def _serve_main(argv: Sequence[str]) -> int:
    from repro.campaign.executor import RetryPolicy
    from repro.campaign.service import (
        DEFAULT_DELIVERY_RETRY,
        DEFAULT_LEASE_TIMEOUT_S,
        Coordinator,
        CoordinatorServer,
    )

    parser = argparse.ArgumentParser(
        prog="repro-campaign serve",
        description="Serve a campaign to pull-based worker sites "
        "(leases + heartbeats + journalled state; see repro.campaign.service).",
    )
    parser.add_argument("spec", help="path to a CampaignSpec JSON file")
    parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (default 0 = pick a free one)"
    )
    parser.add_argument(
        "--output", default=None, help="write the merged campaign results here"
    )
    parser.add_argument(
        "--journal",
        default=None,
        help="journal every state transition to this file; an existing "
        "journal is resumed from (a corrupt one is quarantined). Outcomes "
        "append to the store <journal>.outcomes in O(1) per completion",
    )
    parser.add_argument(
        "--resume",
        default=None,
        help="results file whose done scenarios are skipped "
        "(failed ones re-run, delivery budget permitting)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT_S,
        metavar="S",
        help="seconds a lease survives without a heartbeat "
        f"(default {DEFAULT_LEASE_TIMEOUT_S:g})",
    )
    parser.add_argument(
        "--delivery-retries",
        type=int,
        default=DEFAULT_DELIVERY_RETRY.max_attempts - 1,
        metavar="N",
        help="extra times a scenario is re-leased after its worker died "
        "before it is recorded as failed "
        f"(default {DEFAULT_DELIVERY_RETRY.max_attempts - 1})",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=DEFAULT_DELIVERY_RETRY.backoff_s,
        metavar="S",
        help="base seconds of the requeue backoff (capped exponential with "
        f"deterministic jitter; default {DEFAULT_DELIVERY_RETRY.backoff_s:g})",
    )
    parser.add_argument(
        "--summary-every",
        type=int,
        default=0,
        metavar="K",
        help="print the live campaign summary table every K completions "
        "(default 0 = only at the end)",
    )
    parser.add_argument(
        "--store",
        choices=result_store.STORE_CHOICES,
        default=result_store.STORE_AUTO,
        help="encoding of the journal's outcomes and the --output store: "
        "json (jsonl), arrow or auto (default; Arrow when pyarrow is "
        "installed, jsonl otherwise)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-transition progress lines"
    )
    arguments = parser.parse_args(argv)

    try:
        campaign = CampaignSpec.load(arguments.spec)
        resume = (
            CampaignResult.load(arguments.resume) if arguments.resume else None
        )
        coordinator = Coordinator(
            campaign,
            retry=RetryPolicy(
                max_attempts=arguments.delivery_retries + 1,
                backoff_s=arguments.retry_backoff,
                backoff_cap_s=max(arguments.retry_backoff, 30.0),
            ),
            lease_timeout_s=arguments.lease_timeout,
            journal_path=arguments.journal,
            journal_store=arguments.store,
            resume=resume,
        )
    except (ReproError,) + LOAD_ERRORS as exc:
        print(f"repro-campaign serve: {exc}", file=sys.stderr)
        return EXIT_USAGE

    server = CoordinatorServer(coordinator, host=arguments.host, port=arguments.port)
    server.start()
    # Parsed by scripts (benchmarks/chaos_smoke.py): keep the format stable.
    print(f"serving campaign {campaign.name!r} at {server.address}", flush=True)
    last_summary_at = len(coordinator.store)
    try:
        while not coordinator.finished:
            coordinator.tick()
            for event in coordinator.drain_events():
                if not arguments.quiet:
                    print(
                        f"[{event.done}/{event.total}] {event.kind} "
                        f"{event.label} ({event.worker})",
                        file=sys.stderr,
                    )
            done = len(coordinator.store)
            if (
                arguments.summary_every > 0
                and done - last_summary_at >= arguments.summary_every
                and done
            ):
                last_summary_at = done
                print(format_campaign_summary(coordinator.store), flush=True)
            time.sleep(0.05)
        # Let in-flight workers observe the drained state before the socket
        # disappears: wait until every worker seen has been told, for at most
        # a second (a killed worker never is).
        deadline = time.monotonic() + 1.0
        while coordinator.workers_not_told_drained and time.monotonic() < deadline:
            time.sleep(0.05)
    except KeyboardInterrupt:
        print(
            "repro-campaign serve: interrupted; state is in the journal"
            if arguments.journal
            else "repro-campaign serve: interrupted (no --journal: progress lost)",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    finally:
        server.stop()
        coordinator.close_journal()

    store = coordinator.result()
    if arguments.output:
        store.save(arguments.output, store=arguments.store)
    print(format_campaign_summary(store))
    if arguments.output:
        print(f"results written to {arguments.output}")
    return EXIT_FAILED_SCENARIOS if store.failed() else 0


def _work_main(argv: Sequence[str]) -> int:
    from repro.campaign.executor import BACKENDS, RetryPolicy
    from repro.campaign.service import HTTPClient, WorkerSite

    parser = argparse.ArgumentParser(
        prog="repro-campaign work",
        description="Run one pull-based worker site against a serving coordinator.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="base URL printed by `repro-campaign serve` "
        "(e.g. http://127.0.0.1:8765)",
    )
    parser.add_argument(
        "--id", default=None, help="stable worker id (default: random site-XXXX)"
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="executor backend for leased scenarios",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker count for the process backend"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="in-process re-runs of a crashing scenario before reporting failed",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="S",
        help="base seconds between in-process retry attempts",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-scenario wall-clock budget (timeout -> failed outcome)",
    )
    parser.add_argument(
        "--lease-count",
        type=int,
        default=1,
        metavar="N",
        help="scenarios to lease per request (default 1)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="seconds between lease attempts while the queue is empty",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between heartbeats while computing (0 disables)",
    )
    parser.add_argument(
        "--fallback",
        default=None,
        metavar="PATH",
        help="checkpoint undeliverable results to this store file when the "
        "coordinator becomes unreachable (merge them back later)",
    )
    parser.add_argument(
        "--max-scenarios",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N scenarios (default: run until drained)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress lines"
    )
    arguments = parser.parse_args(argv)

    try:
        site = WorkerSite(
            HTTPClient(arguments.coordinator),
            worker_id=arguments.id,
            retry=RetryPolicy(
                max_attempts=arguments.retries + 1,
                backoff_s=arguments.retry_backoff,
                timeout_s=arguments.timeout,
            ),
            backend=arguments.backend,
            max_workers=arguments.workers,
            lease_count=arguments.lease_count,
            poll_interval_s=arguments.poll,
            heartbeat_interval_s=arguments.heartbeat or None,
            fallback_path=arguments.fallback,
            max_scenarios=arguments.max_scenarios,
        )
    except ConfigurationError as exc:
        print(f"repro-campaign work: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def on_event(kind: str, payload: dict) -> None:
        if arguments.quiet:
            return
        if kind == "submitted":
            print(
                f"{site.worker_id}: {payload['status']} {payload['label']}",
                file=sys.stderr,
            )
        else:
            print(f"{site.worker_id}: {kind} {payload}", file=sys.stderr)

    site.on_event = on_event
    try:
        stats = site.run()
    except KeyboardInterrupt:
        print(f"repro-campaign work: {site.worker_id} interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(
        f"{site.worker_id}: completed {stats.completed} scenario(s), "
        f"stranded {stats.stranded}, drained={stats.drained}"
    )
    for error in stats.errors:
        print(f"repro-campaign work: {error}", file=sys.stderr)
    return 0 if stats.drained else EXIT_FAILED_SCENARIOS


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "merge":
        return _merge_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        return _serve_main(arguments[1:])
    if arguments and arguments[0] == "work":
        return _work_main(arguments[1:])
    return _run_main(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
