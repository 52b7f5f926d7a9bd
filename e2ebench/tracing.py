"""In-memory span recorder that wraps the program's layer entry points.

Used only by the traced run of the end-to-end benchmark.  Each wrapper
records a span ``(id, parent, name, start, end)`` around one call into a
layer, plus counts taken from the call's arguments or result, so every
per-layer number is measured at the boundary where the work happens.
Nothing under ``src/`` is edited: the wrappers replace module and class
attributes for the lifetime of one benchmark interpreter.

A wrapped name that no longer exists is recorded in ``missing`` and its
counts simply stay at zero, so a later refactor of the program degrades
the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: (span id, parent span id or None, name, start, end),
#: times in seconds of the system-wide monotonic clock.
Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """Span stack plus counters for one single-threaded interpreter."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.enabled = True
        self._stack: List[int] = []
        self._next_id = 0

    def call(self, name: str, function: Callable, args, kwargs,
             after: Optional[Callable] = None):
        """Run ``function`` inside a span; ``after(result, args, kwargs)`` counts."""
        if not self.enabled:
            return function(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.monotonic()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if after is not None:
            after(self, result, args, kwargs)
        return result

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, function, args, kwargs, after)

        traced.__wrapped__ = function
        return traced

    # -- installing wrappers ----------------------------------------------------
    def resolve(self, path: str):
        """Import ``package.module`` or ``package.module:Name``; None if gone."""
        module_name, _, attribute = path.partition(":")
        try:
            found = importlib.import_module(module_name)
        except ImportError:
            found = None
        if found is not None and attribute:
            found = getattr(found, attribute, None)
        if found is None:
            self.missing.append(path)
        return found

    def patch_function(self, name: str, sites: Sequence[Tuple[str, str]],
                       after: Optional[Callable] = None) -> None:
        """Wrap one module-level function everywhere it was imported.

        ``sites`` lists ``(module, attribute)`` pairs; the first names the
        defining module, the rest are ``from ... import`` copies that only
        get the wrapper when they still hold the same function object.
        """
        module_name, attribute = sites[0]
        original = self.resolve(f"{module_name}:{attribute}")
        if original is None:
            return
        traced = self.wrap(name, original, after)
        for module_name, attribute in sites:
            module = self.resolve(module_name)
            if module is not None and getattr(module, attribute, None) is original:
                setattr(module, attribute, traced)

    def patch_method(self, name: str, owner: str, attribute: str,
                     after: Optional[Callable] = None) -> None:
        """Wrap a plain method or a classmethod of the class ``module:Class``."""
        cls = self.resolve(owner)
        raw = cls.__dict__.get(attribute) if cls is not None else None
        if raw is None:
            if cls is not None:
                self.missing.append(f"{owner}.{attribute}")
            return
        if isinstance(raw, classmethod):
            setattr(cls, attribute, classmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attribute, self.wrap(name, raw, after))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }


# ---------------------------------------------------------------------------
# Counters taken at the wrapped boundaries.
# ---------------------------------------------------------------------------


def _count(key: str) -> Callable:
    def after(tracer: Tracer, result, args, kwargs) -> None:
        tracer.counts[key] += 1

    return after


def _count_spec(tracer: Tracer, spec, args, kwargs) -> None:
    tracer.counts["campaign.spec.scenarios"] += len(spec)


def _count_engine_run(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counts["sim.engine.frames"] += result.num_frames


def _count_batch(tracer: Tracer, results, args, kwargs) -> None:
    tracer.counts["sim.batchpath.batches"] += 1
    tracer.counts["sim.batchpath.members"] += len(results)
    tracer.counts["sim.engine.frames"] += sum(r.num_frames for r in results)


def _count_units(tracer: Tracer, units, args, kwargs) -> None:
    tracer.counts["campaign.executor.units"] += len(units)


def _count_executor(tracer: Tracer, store, args, kwargs) -> None:
    outcomes = list(store)
    tracer.counts["campaign.executor.failed"] += sum(1 for o in outcomes if not o.ok)
    tracer.counts["campaign.executor.attempts"] += sum(o.attempts for o in outcomes)


def _count_to_dict(tracer: Tracer, data, args, kwargs) -> None:
    tracer.counts["sim.results.records"] += len(data.get("records", ()))


def _count_from_dict(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counts["sim.results.records"] += result.num_frames


def _file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_json_save(tracer: Tracer, result, args, kwargs) -> None:
    # CampaignResult.save(self, path, store="json"): columnar saves are
    # counted by the save_store wrapper instead.
    from repro.campaign import store as result_store

    path = args[1] if len(args) > 1 else kwargs["path"]
    if not result_store.is_store_file(path):
        tracer.counts["campaign.results.bytes"] += _file_bytes(path)


def _count_store_save(tracer: Tracer, result, args, kwargs) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["campaign.store.bytes"] += _file_bytes(path)


def _count_merge(tracer: Tracer, stats, args, kwargs) -> None:
    output = args[1] if len(args) > 1 else kwargs["output_path"]
    tracer.counts["campaign.store.bytes"] += _file_bytes(output)
    tracer.counts["campaign.store.duplicates"] += stats.duplicates


def _traced_resolver(tracer: Tracer, resolve: Callable) -> Callable:
    """Wrap a registry resolver so every factory it returns is traced."""

    def resolver(name: str):
        return tracer.wrap(
            "campaign.registry.build", resolve(name), _count("campaign.registry.builds")
        )

    return resolver


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark breaks time down by."""
    tracer.patch_method(
        "campaign.spec.build", "repro.campaign.spec:CampaignSpec", "load", _count_spec
    )
    registry = tracer.resolve("repro.campaign.registry")
    for resolver in ("application_factory", "governor_factory", "cluster_factory"):
        original = tracer.resolve(f"repro.campaign.registry:{resolver}")
        if original is not None:
            setattr(registry, resolver, _traced_resolver(tracer, original))
    tracer.patch_method(
        "sim.engine.run", "repro.sim.engine:SimulationEngine", "run", _count_engine_run
    )
    for module in ("repro.sim.tablepath", "repro.sim.thermalpath"):
        tracer.patch_function(
            "sim.tables.precompute",
            [(module, "precompute_tables")],
            _count("sim.tables.precomputes"),
        )
    tracer.patch_function(
        "sim.batchpath.run_batch", [("repro.sim.batchpath", "run_batch")], _count_batch
    )
    tracer.patch_function(
        "campaign.executor.plan",
        [("repro.campaign.executor", "plan_batches")],
        _count_units,
    )
    tracer.patch_method(
        "campaign.executor.run",
        "repro.campaign.executor:CampaignExecutor",
        "run",
        _count_executor,
    )
    tracer.patch_function(
        "sim.metrics.summarize",
        [
            ("repro.sim.metrics", "summarize_result"),
            ("repro.campaign.store", "summarize_result"),
        ],
        _count("sim.metrics.summaries"),
    )
    tracer.patch_method(
        "sim.results.to_dict",
        "repro.sim.results:SimulationResult",
        "to_dict",
        _count_to_dict,
    )
    tracer.patch_method(
        "sim.results.from_dict",
        "repro.sim.results:SimulationResult",
        "from_dict",
        _count_from_dict,
    )
    campaign_result = "repro.campaign.results:CampaignResult"
    tracer.patch_method("campaign.results.to_json", campaign_result, "to_json")
    tracer.patch_method("campaign.results.save", campaign_result, "save", _count_json_save)
    tracer.patch_method("campaign.results.from_json", campaign_result, "from_json")
    tracer.patch_method("campaign.results.load", campaign_result, "load")
    store = "repro.campaign.store"
    tracer.patch_function(
        "campaign.store.encode", [(store, "encode_record")], _count("campaign.store.records")
    )
    tracer.patch_method(
        "campaign.store.append",
        f"{store}:StoreWriter",
        "append",
        _count("campaign.store.appends"),
    )
    tracer.patch_function("campaign.store.save", [(store, "save_store")], _count_store_save)
    tracer.patch_function("campaign.store.merge", [(store, "merge_store_files")], _count_merge)
    tracer.patch_function("campaign.store.load", [(store, "load_store")])
    tracer.patch_function(
        "campaign.store.deferred_load",
        [(store, "_frames_for_deferred")],
        _count("campaign.store.deferred_frame_loads"),
    )
    tracer.patch_function(
        "analysis.reporting.summary",
        [
            ("repro.analysis.reporting", "format_campaign_summary"),
            ("repro.campaign.cli", "format_campaign_summary"),
        ],
    )
