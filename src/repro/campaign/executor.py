"""Campaign execution: fault-tolerant serial and process-pool backends.

The unit of work is :func:`run_scenario` — a module-level function so the
process-pool backend can pickle it.  Each invocation builds its *own*
cluster from the scenario spec: clusters are stateful (meters, PMU, thermal
and DVFS history) and must never be shared between concurrent runs.
Applications are immutable, so each worker builds one per (application,
seed) and shares it across the scenarios that run it.

Fault tolerance: backends execute scenarios through
:func:`run_scenario_safely`, which converts an exception on the final
allowed attempt into a ``failed`` :class:`ScenarioOutcome` (error message +
traceback captured) instead of letting it abort the campaign, and honours
the executor's :class:`RetryPolicy` in between.  Backends yield
``(index, outcome)`` pairs in *completion* order so the executor can
checkpoint incrementally — a slow early scenario never blocks persistence
of the work completing behind it — while the externally returned
:class:`CampaignResult` is re-ordered to campaign order, keeping a parallel
run bit-identical to a serial run of the same campaign (every scenario is
fully determined by its spec: workload seed, governor config seed, cluster
seed).
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError, ScenarioTimeoutError
from repro.campaign import registry
from repro.campaign import store as result_store
from repro.campaign.results import CampaignResult, ScenarioOutcome
from repro.campaign.spec import CampaignSpec, FactorySpec, ScenarioSpec
from repro.platform.cluster import WorkloadTable
from repro.sim import tablepath
from repro.sim.engine import SimulationEngine
from repro.workload.application import Application

#: Optional per-scenario completion callback (label, index, total).
ProgressCallback = Callable[[str, int, int], None]

#: Fractional jitter amplitude of every retry delay: the delay is scaled by
#: a factor in ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`` drawn
#: deterministically from ``(BACKOFF_SEED, key, attempt)``, so concurrent
#: workers de-synchronise their retries without losing reproducibility.
BACKOFF_JITTER = 0.1
#: Seed folded into the jitter hash.
BACKOFF_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times — and on what schedule — a scenario may be (re)run.

    The same policy drives both layers of fault tolerance: the executor's
    in-process retries around :func:`run_scenario_safely`, and the
    distributed service's lease requeue/backoff in
    :mod:`repro.campaign.service`.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per scenario (1 = no retries).  Only the
        final attempt's exception is recorded in a failed outcome.
    backoff_s:
        Base delay in seconds before re-running a failed attempt.  Kept
        under its original name (old specs and call sites load unchanged)
        but now seeds a *capped exponential* schedule: attempt ``k``
        waits ``backoff_s * 2**(k-1)`` seconds, capped at
        :attr:`backoff_cap_s`, then spread by :data:`BACKOFF_JITTER`.
    backoff_cap_s:
        Upper bound on the exponential delay (before jitter).
    timeout_s:
        Optional per-attempt wall-clock budget.  A scenario still running
        after this many seconds is recorded as a ``failed`` attempt with
        :class:`~repro.errors.ScenarioTimeoutError` instead of wedging
        its worker forever (``None`` = no limit).
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_cap_s: float = 60.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_cap_s < 0:
            raise ConfigurationError(
                f"backoff_cap_s must be >= 0, got {self.backoff_cap_s}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive or None, got {self.timeout_s}"
            )

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed ``attempt`` (1-based) before retrying.

        Deterministic: the same ``(policy, attempt, key)`` always yields
        the same delay — pass a stable ``key`` (e.g. the scenario id) so
        different scenarios spread out while any one scenario's schedule
        stays reproducible.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        if self.backoff_s <= 0:
            return 0.0
        delay = min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)
        token = f"{BACKOFF_SEED}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
        return delay * (1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0))


class CampaignInterrupted(ReproError):
    """A campaign run was interrupted (Ctrl-C) after completing some scenarios.

    Carries the partial result store so callers can persist it; when the
    executor was given a checkpoint path the store has already been saved
    there before this exception was raised.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        partial: CampaignResult,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.partial = partial
        self.checkpoint_path = checkpoint_path
        saved = f" (checkpoint saved to {checkpoint_path})" if checkpoint_path else ""
        super().__init__(
            f"campaign {campaign.name!r} interrupted after "
            f"{len(partial)}/{len(campaign)} scenarios{saved}"
        )


#: Per-worker-process cache of precomputed closed-loop physics tables
#: (:class:`~repro.platform.cluster.WorkloadTable`, consumed by the
#: ``tablepath`` and ``jitpath`` backends).  Keyed by everything the tables
#: depend on — application factory + seed, cluster factory and the
#: deadline-padding flag — so scenarios of one campaign grid that sweep
#: governors over the same application and cluster (the common Table-I
#: shape) precompute the (frame x operating-point) tables once per worker
#: instead of once per scenario.  Engines only read a table, so sharing one
#: across scenarios cannot leak state between them.  Entries are
#: validated against the live cluster's physics on every reuse (see
#: :meth:`~repro.platform.cluster.WorkloadTable.matches`), so a stale or
#: colliding entry degrades to a rebuild, never to wrong numbers.
_TABLE_CACHE: "OrderedDict[Tuple, object]" = OrderedDict()
_TABLE_CACHE_MAX_ENTRIES = 8

#: Per-worker-process table-cache traffic counters.  A hit means a scenario
#: reused tables precomputed by an earlier scenario of the same worker; the
#: hit rate is therefore a direct readout of how well the campaign's
#: scenario grouping lines up with the cache key.
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def table_cache_stats() -> dict:
    """This process's physics-table cache counters (hits/misses/evictions)."""
    return dict(_CACHE_STATS)


def reset_table_cache_stats() -> None:
    """Zero the cache counters (the cache itself is left warm)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def _cached_application(scenario: ScenarioSpec) -> Application:
    """The scenario's application, built on the first request per worker."""
    spec = scenario.application
    # The raw registered factory, not the resolver: the resolver may be
    # wrapped (instrumentation) and must run only when a build happens.
    return _build_application(registry._APPLICATIONS.get(spec.name), spec, scenario.seed)


@functools.lru_cache(maxsize=8)
def _build_application(
    factory: object, spec: FactorySpec, seed: Optional[int]
) -> Application:
    """Build one application; cached per worker process.

    Keyed by the application factory spec and the scenario seed — the same
    pair the table cache keys on — so a grid sweeping governors over one
    workload builds it once per worker instead of once per scenario.
    Sharing is safe: an :class:`~repro.workload.application.Application`
    keeps its frames in a private list and every frame is frozen, so no run
    can change what the next one reads.  ``factory`` (the registered
    factory) is only part of the key, so re-registering a name never
    serves a stale build.  A factory that raises leaves no entry behind.
    """
    app_kwargs = dict(spec.kwargs)
    if seed is not None:
        app_kwargs["seed"] = seed
    return registry.application_factory(spec.name)(**app_kwargs)


def _cached_table_provider(scenario: ScenarioSpec) -> tablepath.TableProvider:
    """A table provider backed by the worker cache."""
    key = (
        scenario.application,
        scenario.seed,
        scenario.cluster,
        scenario.config.idle_until_deadline,
    )

    def provider(cluster, application, config):
        tables = _TABLE_CACHE.get(key)
        if (
            isinstance(tables, WorkloadTable)
            and tables.num_frames == application.num_frames
            and tables.matches(cluster, config.idle_until_deadline)
        ):
            _TABLE_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return tables
        _CACHE_STATS["misses"] += 1
        tables = tablepath.precompute_tables(cluster, application, config)
        _TABLE_CACHE[key] = tables
        if len(_TABLE_CACHE) > _TABLE_CACHE_MAX_ENTRIES:
            _TABLE_CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
        return tables

    return provider


def run_scenario(scenario: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario from scratch and return its (``done``) outcome.

    Builds a fresh cluster and governor from the scenario's named
    factories, takes the application from the per-worker cache (built on
    first use), runs the closed-loop simulation, then applies the
    scenario's probe (if any) while the governor is still live.  Exceptions
    propagate — use :func:`run_scenario_safely` to record them instead.

    Engine selection goes through the engine ladder in
    :mod:`repro.sim.backends`: the scenario's ``engine`` field either pins
    an engine by name (validated against the request) or —
    the default ``"auto"`` — negotiates the fastest eligible one:
    static-schedule governors on isothermal clusters take the vectorised
    trace engine, everything else the table-driven engine (which carries
    the thermal state when the model is enabled), with precomputed physics
    shared through a per-worker cache across scenarios of the same
    application + cluster.  The backend that ran is
    recorded on the result as ``engine_used``.  Clusters built through the
    registry default to ``record_history=False``, so campaign memory stays
    bounded however many frames a scenario sweeps.
    """
    cluster = registry.cluster_factory(scenario.cluster.name)(**scenario.cluster.kwargs)
    application = _cached_application(scenario)
    governor = registry.governor_factory(scenario.governor.name)(**scenario.governor.kwargs)

    engine = SimulationEngine(
        cluster,
        scenario.config,
        table_provider=_cached_table_provider(scenario),
        engine=scenario.engine,
    )
    result = engine.run(application, governor)

    probe_data = None
    if scenario.probe is not None:
        probe = registry.probe_factory(scenario.probe.name)
        probe_data = probe(governor, result, **scenario.probe.kwargs)
    return ScenarioOutcome(scenario=scenario, result=result, probe=probe_data)


def _run_scenario_with_timeout(
    scenario: ScenarioSpec, timeout_s: float
) -> ScenarioOutcome:
    """Run one scenario on a watchdog thread, bounded to ``timeout_s`` seconds.

    The scenario executes on a daemon thread and the caller waits at most
    ``timeout_s``; on expiry a :class:`~repro.errors.ScenarioTimeoutError`
    is raised (and recorded by :func:`run_scenario_safely` like any other
    attempt failure).  The abandoned thread cannot be killed — it is left
    to finish (or hang) as a daemon and its eventual result is discarded,
    which is the price of never wedging the worker.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["outcome"] = run_scenario(scenario)
        except BaseException as exc:  # noqa: BLE001 — re-raised on the caller
            box["error"] = exc

    thread = threading.Thread(
        target=target, name=f"scenario-{scenario.scenario_id}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise ScenarioTimeoutError(
            f"scenario {scenario.label!r} still running after timeout_s={timeout_s}"
        )
    if "error" in box:
        raise box["error"]
    return box["outcome"]


def run_scenario_safely(
    scenario: ScenarioSpec, retry: Optional[RetryPolicy] = None
) -> ScenarioOutcome:
    """Execute one scenario, converting failure into a ``failed`` outcome.

    Runs :func:`run_scenario` up to ``retry.max_attempts`` times (once
    when no :class:`RetryPolicy` is given), waiting the policy's capped
    exponential backoff between attempts and guarding each attempt with
    its optional ``timeout_s``.  The first successful attempt wins (its
    outcome is stamped with the attempt count); if every attempt raises,
    the final exception's message and traceback are captured in a
    ``failed`` outcome so the campaign records the crash instead of dying
    from it.  ``KeyboardInterrupt`` (and other non-``Exception``
    interrupts) still propagate.
    """
    policy = retry if retry is not None else RetryPolicy()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if policy.timeout_s is not None:
                outcome = _run_scenario_with_timeout(scenario, policy.timeout_s)
            else:
                outcome = run_scenario(scenario)
        except Exception as exc:  # noqa: BLE001 — the whole point is to record it
            if attempt >= policy.max_attempts:
                return ScenarioOutcome.failure(
                    scenario,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback_text=traceback_module.format_exc(),
                    attempts=attempt,
                )
            delay = policy.delay_for(attempt, scenario.scenario_id)
            if delay > 0:
                time.sleep(delay)
        else:
            if attempt > 1:
                outcome = ScenarioOutcome(
                    scenario=outcome.scenario,
                    result=outcome.result,
                    probe=outcome.probe,
                    attempts=attempt,
                )
            return outcome
    raise AssertionError("unreachable")  # pragma: no cover


class SerialBackend:
    """Runs scenarios one after another in the calling process."""

    name = "serial"

    def run_unordered(
        self, entries: Sequence[Tuple[int, ScenarioSpec]], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        for index, scenario in entries:
            yield index, run_scenario_safely(scenario, retry=retry)


class ProcessPoolBackend:
    """Runs scenarios concurrently on a :class:`ProcessPoolExecutor`.

    ``max_workers`` defaults to the machine's CPU count capped by the
    number of scenarios.  Outcomes are yielded in *completion* order (the
    executor re-orders them), so incremental checkpoints are never held up
    by a slow early scenario; retries happen inside the worker process.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be a positive integer")
        self.max_workers = max_workers

    def run_unordered(
        self, entries: Sequence[Tuple[int, ScenarioSpec]], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        if not entries:
            return
        workers = self.max_workers or min(len(entries), os.cpu_count() or 1)
        workers = min(workers, len(entries))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(run_scenario_safely, scenario, retry=retry): index
                for index, scenario in entries
            }
            try:
                remaining = set(futures)
                while remaining:
                    completed, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in completed:
                        yield futures[future], future.result()
            except BaseException:
                # Run abandoned — GeneratorExit from the consumer, Ctrl-C
                # landing in wait(), or a broken pool: drop the queued
                # scenarios instead of draining them during pool shutdown.
                pool.shutdown(wait=False, cancel_futures=True)
                raise


#: Backend registry used by :class:`CampaignExecutor` and the CLI.
BACKENDS = ("serial", "process")


def make_backend(backend: str, max_workers: Optional[int] = None):
    """Build a backend by name (``"serial"`` or ``"process"``)."""
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessPoolBackend(max_workers=max_workers)
    raise ConfigurationError(f"unknown campaign backend {backend!r}; expected one of {BACKENDS}")


class CampaignExecutor:
    """Runs campaigns on a pluggable backend with resume and checkpointing."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        store: str = result_store.STORE_AUTO,
    ) -> None:
        self.backend = make_backend(backend, max_workers)
        self.retry = retry or RetryPolicy()
        result_store.negotiate_store(store)  # reject unknown names up front
        self.store_format = store

    def run(
        self,
        campaign: CampaignSpec,
        resume: Optional[CampaignResult] = None,
        progress: Optional[ProgressCallback] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 10,
    ) -> CampaignResult:
        """Execute every scenario of ``campaign`` still pending in ``resume``.

        Parameters
        ----------
        campaign:
            The campaign to run.
        resume:
            A previously saved (possibly partial) result store; scenarios
            it already records as ``done`` are skipped and their stored
            outcomes carried over, while ``failed`` ones are re-run.
        progress:
            Optional callback invoked after each newly executed scenario
            with ``(label, completed_count, total_pending)``.
        checkpoint_path:
            When given, completed work is persisted to this path as the
            campaign runs, as a result store file
            (:mod:`repro.campaign.store`): the first completion publishes
            it atomically together with the resume state, then each
            outcome is *appended* as it completes (O(1) per scenario,
            never O(campaign)).  Whatever stops the run, the appended
            tail is flushed (a ``KeyboardInterrupt`` is re-raised as
            :class:`CampaignInterrupted` carrying the partial store), and
            a finished run rewrites the file once more with the
            completed, campaign-ordered store.  A legacy JSON blob at
            the path is read by :meth:`CampaignResult.load_checkpoint`
            and replaced by a store file here.
        checkpoint_every:
            Completions between checkpoint flushes (>= 1).

        Returns
        -------
        CampaignResult
            A store with one outcome per campaign scenario, in the
            campaign's scenario order — bit-identical across backends and
            across interrupted-then-resumed runs.
        """
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        store = CampaignResult(campaign_name=campaign.name)
        if resume is not None:
            for outcome in resume:
                store.add(outcome)
        pending: List[ScenarioSpec] = store.pending(campaign)
        writer: Optional[result_store.StoreWriter] = None
        completed = 0
        try:
            for _, outcome in self.backend.run_unordered(
                list(enumerate(pending)), self.retry
            ):
                store.add(outcome)
                if writer is not None:
                    writer.append(outcome)
                elif checkpoint_path is not None:
                    # The first completion publishes the checkpoint (the
                    # resume state included) atomically; later ones append.
                    store.save(checkpoint_path, store=self.store_format)
                    writer = result_store.StoreWriter.open_append(checkpoint_path)
                completed += 1
                if writer is not None and completed % checkpoint_every == 0:
                    writer.flush()
                if progress is not None:
                    progress(outcome.label, completed, len(pending))
        except BaseException as exc:
            # Emergency checkpoint: whatever killed the run — Ctrl-C, a
            # broken worker pool, a crashing progress callback — the work
            # completed since the last flush must survive.  The writer
            # already holds every completion; closing it flushes the tail
            # appends to disk.  Without one (nothing completed, or the
            # first publish itself was interrupted) the store is saved.
            if writer is not None:
                writer.close()
                writer = None
            elif checkpoint_path is not None:
                store.save(checkpoint_path, store=self.store_format)
            if isinstance(exc, KeyboardInterrupt):
                raise CampaignInterrupted(campaign, store, checkpoint_path) from exc
            raise
        if writer is not None:
            writer.close()
        ordered = store.ordered_for(campaign)
        if checkpoint_path is not None:
            # Final atomic rewrite in campaign order, so the surviving
            # checkpoint equals --output bit for bit.
            ordered.save(checkpoint_path, store=self.store_format)
        return ordered


def run_campaign(
    campaign: CampaignSpec,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    resume: Optional[CampaignResult] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 10,
    store: str = result_store.STORE_AUTO,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignExecutor`."""
    return CampaignExecutor(
        backend=backend,
        max_workers=max_workers,
        retry=retry,
        store=store,
    ).run(
        campaign,
        resume=resume,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )
