"""Engine backend protocol, capability negotiation and registry.

Engine selection used to be an if/elif ladder inside
:class:`~repro.sim.engine.SimulationEngine` with per-engine eligibility
checks duplicated across the engine modules.  This module replaces that
with the job-matching shape used by batch schedulers: every execution
strategy is an :class:`EngineBackend` that *declares* its capabilities, and
:func:`negotiate` matches those declarations against the concrete
(scenario, cluster, governor) triple — so adding a backend is one
``register_backend`` call, with no engine edits.

Built-in backends, in negotiation order (highest priority first):

========= ======== ================ ====== ===== ===========================
name      thermal  static schedule  tables numpy module
========= ======== ================ ====== ===== ===========================
fastpath  no       required         no     yes   :mod:`repro.sim.fastpath`
jitpath   yes      no               yes    yes   :mod:`repro.sim.jitpath`
tablepath yes      no               yes    yes   :mod:`repro.sim.tablepath`
scalar    yes      no               no     no    :mod:`repro.sim.scalarpath`
========= ======== ================ ====== ===== ===========================

``jitpath`` only negotiates when numba is importable (the ``jit`` packaging
extra) and the ``REPRO_DISABLE_JIT`` kill-switch is unset; without numba the
registry behaves exactly as if the backend did not exist.

``scalar`` is the reference implementation every other backend is
validated against; it accepts every request.  ``auto`` negotiation walks
the registry in priority order and picks the first backend whose
capabilities admit the request; an explicitly requested backend is instead
*validated* against the request and the mismatch reported as a clear
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim import fastpath, jitpath, scalarpath, tablepath
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.engine import SimulationConfig
    from repro.workload.application import Application

#: Name of the reference backend (and the target of the deprecated
#: ``SimulationConfig.prefer_fast_path=False`` switch).
SCALAR = "scalar"
FASTPATH = "fastpath"
JITPATH = "jitpath"
TABLEPATH = "tablepath"

#: The wildcard engine request: negotiate the fastest eligible backend.
AUTO = "auto"


@dataclass(frozen=True)
class BackendCapabilities:
    """What an :class:`EngineBackend` can (or must) work with.

    Attributes
    ----------
    supports_thermal:
        The backend reproduces the scalar engine on clusters whose RC
        thermal model is enabled (temperature-dependent leakage).
    requires_static_schedule:
        The backend only handles governors whose complete operating-point
        schedule is knowable up front (probed once per negotiation with
        :meth:`~repro.rtm.governor.Governor.static_schedule`).
    requires_numpy:
        The backend needs NumPy importable.
    supports_tables:
        The backend consumes precomputed physics tables and will call the
        engine's table provider (the campaign executor's per-worker cache
        hook) when one is supplied.
    supports_trace_capture:
        The backend records a complete, deterministic decision trace on its
        results: per-frame operating points and timing/energy columns on
        the :class:`~repro.sim.results.SimulationResult`, DVFS transitions
        on the cluster's actuator, and governor state reachable through
        :meth:`~repro.rtm.governor.Governor.decision_state`.  The parity
        harness (:mod:`repro.testing.parity`) only replays through backends
        declaring this flag; it defaults to False so third-party backends
        opt in deliberately rather than silently joining the bit-identity
        contract.
    """

    supports_thermal: bool = False
    requires_static_schedule: bool = False
    requires_numpy: bool = False
    supports_tables: bool = False
    supports_trace_capture: bool = False


_SCHEDULE_UNPROBED = object()


@dataclass
class EngineRequest:
    """One concrete run to place on a backend.

    Bundles the (cluster, application, governor, config) quadruple plus the
    optional table provider.  The governor's static schedule is probed at
    most once per request (the probe can be as expensive as the Oracle's
    full per-frame optimisation) and memoised for the winning backend.
    """

    cluster: "Cluster"
    application: "Application"
    governor: "Governor"
    config: "SimulationConfig"
    table_provider: Optional[object] = None
    _schedule: object = field(default=_SCHEDULE_UNPROBED, repr=False)

    def static_schedule(self) -> Optional[Sequence[int]]:
        """The governor's precomputed schedule, or ``None`` (memoised)."""
        if self._schedule is _SCHEDULE_UNPROBED:
            self._schedule = self.governor.static_schedule(self.application)
        return self._schedule

    def tables(self) -> Optional[object]:
        """Tables from the request's provider, or ``None`` to build fresh.

        Providers are invoked lazily — only when a table-consuming backend
        actually won the negotiation — and their return value is always
        re-validated by the consuming engine, so a stale cache entry
        degrades to a rebuild, never to wrong numbers.
        """
        if self.table_provider is None:
            return None
        return self.table_provider(self.cluster, self.application, self.config)


class EngineBackend(ABC):
    """One execution strategy for a simulation run.

    Subclasses declare a unique ``name``, their ``capabilities`` and a
    ``priority`` (higher wins during ``auto`` negotiation), and implement
    :meth:`run`.  :meth:`rejection_reason` derives eligibility from the
    declared capabilities; backends with constraints the capability flags
    cannot express may extend it (call ``super()`` first and keep returning
    a human-readable reason, never raising).
    """

    #: Unique registry name (also the ``--engine`` CLI value).
    name: str = "backend"
    #: Declared capabilities, negotiated against each request.
    capabilities: BackendCapabilities = BackendCapabilities()
    #: Negotiation rank: higher-priority backends are preferred by ``auto``.
    priority: int = 0

    def numpy_available(self) -> bool:
        """Whether this backend's array module is importable.

        Built-in backends read their own engine module's import slot so the
        per-module test seam (monkeypatching e.g. ``fastpath._np``) governs
        exactly that backend's negotiation and no other's.  Third-party
        backends inherit a plain importability probe.
        """
        try:
            import numpy  # noqa: F401
        except ImportError:  # pragma: no cover - numpy-less installs
            return False
        return True

    def rejection_reason(self, request: EngineRequest) -> Optional[str]:
        """Why this backend cannot run ``request``, or ``None`` if it can."""
        capabilities = self.capabilities
        if capabilities.requires_numpy and not self.numpy_available():
            return "requires numpy, which is not importable"
        if (
            not capabilities.supports_thermal
            and request.cluster.thermal_model.enabled
        ):
            return (
                "does not support thermally-enabled clusters "
                "(temperature-dependent leakage)"
            )
        if (
            capabilities.requires_static_schedule
            and request.static_schedule() is None
        ):
            return (
                f"requires a static schedule, which governor "
                f"{request.governor.name!r} does not expose"
            )
        return None

    @abstractmethod
    def run(self, request: EngineRequest) -> SimulationResult:
        """Execute the request and return its result."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, priority={self.priority})"


# ---------------------------------------------------------------------------
# Built-in backends.
# ---------------------------------------------------------------------------
class ScalarBackend(EngineBackend):
    """The frame-by-frame reference loop; accepts every request."""

    name = SCALAR
    capabilities = BackendCapabilities(
        supports_thermal=True, supports_trace_capture=True
    )
    priority = 0

    def run(self, request: EngineRequest) -> SimulationResult:
        return scalarpath.simulate_scalar(
            request.cluster, request.application, request.governor, request.config
        )


class FastPathBackend(EngineBackend):
    """NumPy-vectorised trace evaluation for static-schedule governors."""

    name = FASTPATH
    capabilities = BackendCapabilities(
        requires_static_schedule=True,
        requires_numpy=True,
        supports_trace_capture=True,
    )
    priority = 30

    def numpy_available(self) -> bool:
        return fastpath._np is not None

    def run(self, request: EngineRequest) -> SimulationResult:
        schedule = request.static_schedule()
        if schedule is None:
            raise SimulationError(
                f"governor {request.governor.name!r} exposes no static schedule"
            )
        return fastpath.simulate_schedule(
            request.cluster,
            request.application,
            request.governor,
            request.config,
            schedule,
        )


class JitPathBackend(EngineBackend):
    """Compiled (numba) closed-loop kernels over precomputed physics tables.

    Out-prioritises ``tablepath`` so ``auto`` negotiation takes the
    compiled frame loop whenever numba is importable and the request is
    one the kernels replicate bit for bit: exactly the three
    paper governors (ondemand, conservative, RL — subclasses fall through,
    since they may override hooks the kernel inlines), noiseless
    non-recording sensors, and exact-mode thermal leakage.  Everything else
    — and every run on a machine without numba, or with the
    ``REPRO_DISABLE_JIT`` kill-switch set — negotiates exactly as if this
    backend did not exist.
    """

    name = JITPATH
    capabilities = BackendCapabilities(
        supports_thermal=True,
        requires_numpy=True,
        supports_tables=True,
        supports_trace_capture=True,
    )
    priority = 25

    def numpy_available(self) -> bool:
        return jitpath._np is not None

    def rejection_reason(self, request: EngineRequest) -> Optional[str]:
        reason = super().rejection_reason(request)
        if reason is not None:
            return reason
        if not jitpath.available():
            return (
                "the compiled kernel path is unavailable "
                "(numba not importable, or REPRO_DISABLE_JIT set)"
            )
        return jitpath.unsupported_reason(request.cluster, request.governor)

    def run(self, request: EngineRequest) -> SimulationResult:
        return jitpath.simulate_closed_loop(
            request.cluster,
            request.application,
            request.governor,
            request.config,
            tables=request.tables(),
        )


class TablePathBackend(EngineBackend):
    """Table-driven closed loop (O(1) physics per frame, live RC state)."""

    name = TABLEPATH
    capabilities = BackendCapabilities(
        supports_thermal=True,
        requires_numpy=True,
        supports_tables=True,
        supports_trace_capture=True,
    )
    priority = 20

    def numpy_available(self) -> bool:
        return tablepath._np is not None

    def run(self, request: EngineRequest) -> SimulationResult:
        return tablepath.simulate_closed_loop(
            request.cluster,
            request.application,
            request.governor,
            request.config,
            tables=request.tables(),
        )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------
_BACKENDS: Dict[str, EngineBackend] = {}


def register_backend(backend: EngineBackend, replace: bool = False) -> EngineBackend:
    """Register ``backend`` under its name; returns it for chaining.

    Third-party strategies register here (typically at import time of an
    importable module, so process-pool campaign workers resolve them too)
    and immediately participate in ``auto`` negotiation by priority — no
    engine edits required.
    """
    name = backend.name
    if not name or name == AUTO:
        raise SimulationError(f"invalid engine backend name {name!r}")
    if name in _BACKENDS and not replace:
        raise SimulationError(
            f"engine backend {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    _BACKENDS[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests and extensions)."""
    if name not in _BACKENDS:
        raise SimulationError(f"no engine backend named {name!r} is registered")
    del _BACKENDS[name]


def backend(name: str) -> EngineBackend:
    """The registered backend called ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names() -> List[str]:
    """Registered backend names in negotiation (priority) order."""
    return [entry.name for entry in ranked_backends()]


def ranked_backends() -> List[EngineBackend]:
    """Registered backends, highest negotiation priority first.

    Ties break towards the earlier registration, so a later-registered
    backend must out-prioritise a built-in to pre-empt it.
    """
    return sorted(
        _BACKENDS.values(),
        key=lambda entry: -entry.priority,
    )


def capability_matrix() -> Dict[str, BackendCapabilities]:
    """``name -> capabilities`` for every registered backend (for reporting)."""
    return {entry.name: entry.capabilities for entry in ranked_backends()}


def trace_capture_backends(request: EngineRequest) -> List[EngineBackend]:
    """Backends eligible to replay ``request`` with full decision-trace capture.

    The differential replay harness in :mod:`repro.testing.parity` runs one
    scenario through *every* backend returned here and diffs the decision
    traces, so the list is the probe of which (governor x backend) pairs the
    bit-identity contract currently covers: backends must both declare
    :attr:`BackendCapabilities.supports_trace_capture` and accept the
    request's capabilities.  Ordered like :func:`ranked_backends`; includes
    the reference ``scalar`` backend.
    """
    return [
        entry
        for entry in ranked_backends()
        if entry.capabilities.supports_trace_capture
        and entry.rejection_reason(request) is None
    ]


def negotiate(request: EngineRequest, engine: str = AUTO) -> EngineBackend:
    """Select the backend that will run ``request``.

    ``engine`` is either :data:`AUTO` — walk the registry in priority order
    and return the first backend whose declared capabilities admit the
    request — or a backend name, which is validated against the request's
    capabilities and rejected with a clear error on mismatch.  The
    deprecated ``config.prefer_fast_path=False`` switch maps to an explicit
    request for the reference backend.
    """
    if engine in (None, "", AUTO):
        if not request.config.prefer_fast_path:
            engine = SCALAR
        else:
            for candidate in ranked_backends():
                if candidate.rejection_reason(request) is None:
                    return candidate
            raise SimulationError(
                "no registered engine backend accepts this run "
                f"(registered: {', '.join(backend_names())})"
            )
    selected = backend(engine)
    reason = selected.rejection_reason(request)
    if reason is not None:
        raise SimulationError(
            f"engine backend {engine!r} cannot run "
            f"{request.application.name!r} under {request.governor.name!r} "
            f"on cluster {request.cluster.name!r}: {reason}"
        )
    return selected


register_backend(FastPathBackend())
register_backend(JitPathBackend())
register_backend(TablePathBackend())
register_backend(ScalarBackend())
