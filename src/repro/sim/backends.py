"""The fixed engine ladder: four named engines and the rules that pick one.

Every simulation run executes on one of four engines, tried in this order
by ``auto`` negotiation (:data:`ENGINES`):

========= ======== ================ ====== ===== ===========================
name      thermal  static schedule  tables numpy module
========= ======== ================ ====== ===== ===========================
fastpath  no       required         no     yes   :mod:`repro.sim.fastpath`
jitpath   yes      no               yes    yes   :mod:`repro.sim.jitpath`
tablepath yes      no               yes    yes   :mod:`repro.sim.tablepath`
scalar    yes      no               no     no    :mod:`repro.sim.scalarpath`
========= ======== ================ ====== ===== ===========================

:func:`rejection_reason` holds every rule of that table in one place and
says, for one engine and one request, why the engine declines (``None``
when it accepts).  :func:`negotiate` walks the ladder for ``auto`` and
picks the first engine with no reason, or validates an explicitly named
engine and reports its reason as a clear
:class:`~repro.errors.SimulationError`.  :func:`run` dispatches the request
to the chosen engine.

``jitpath`` only negotiates when numba is importable (the ``jit`` packaging
extra) and the ``REPRO_DISABLE_JIT`` kill-switch is unset; the module is
imported only once that probe passes, so without numba it is never loaded
and negotiation behaves exactly as if it did not exist.

``scalar`` is the reference implementation every other engine is
validated against; it accepts every request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro import _compat
from repro.errors import SimulationError
from repro.sim import fastpath, scalarpath, tablepath
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.engine import SimulationConfig
    from repro.workload.application import Application

#: Name of the reference engine (and the target of the deprecated
#: ``SimulationConfig.prefer_fast_path=False`` switch).
SCALAR = "scalar"
FASTPATH = "fastpath"
JITPATH = "jitpath"
TABLEPATH = "tablepath"

#: Every engine, in ``auto`` negotiation order (fastest eligible first).
ENGINES = (FASTPATH, JITPATH, TABLEPATH, SCALAR)

#: The wildcard engine request: negotiate the fastest eligible engine.
AUTO = "auto"


_SCHEDULE_UNPROBED = object()


@dataclass
class EngineRequest:
    """One concrete run to place on an engine.

    Bundles the (cluster, application, governor, config) quadruple plus the
    optional table provider.  The governor's static schedule is probed at
    most once per request (the probe can be as expensive as the Oracle's
    full per-frame optimisation) and memoised for the winning engine.
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

        Providers are invoked lazily — only when a table-consuming engine
        actually won the negotiation — and their return value is always
        re-validated by the consuming engine, so a stale cache entry
        degrades to a rebuild, never to wrong numbers.
        """
        if self.table_provider is None:
            return None
        return self.table_provider(self.cluster, self.application, self.config)


def _unknown_engine(name: str) -> SimulationError:
    return SimulationError(f"unknown engine {name!r}; engines: {', '.join(ENGINES)}")


def _jitpath():
    """The compiled-kernel module, imported on first use."""
    from repro.sim import jitpath

    return jitpath


def rejection_reason(name: str, request: EngineRequest) -> Optional[str]:
    """Why engine ``name`` cannot run ``request``, or ``None`` if it can.

    Each engine's numpy requirement is read from its own module's ``_np``
    import slot, so monkeypatching e.g. ``tablepath._np`` to ``None``
    rejects exactly that engine and no other.
    """
    if name == SCALAR:
        return None
    if name == JITPATH:
        if not _compat.HAVE_NUMBA or _compat.jit_disabled():
            return (
                "the compiled kernel path is unavailable "
                "(numba not importable, or REPRO_DISABLE_JIT set)"
            )
        module = _jitpath()
    elif name == FASTPATH:
        module = fastpath
    elif name == TABLEPATH:
        module = tablepath
    else:
        raise _unknown_engine(name)
    if module._np is None:
        return "requires numpy, which is not importable"
    if name == JITPATH:
        return module.unsupported_reason(request.cluster, request.governor)
    if name == FASTPATH:
        if request.cluster.thermal_model.enabled:
            return (
                "does not support thermally-enabled clusters "
                "(temperature-dependent leakage)"
            )
        if request.static_schedule() is None:
            return (
                f"requires a static schedule, which governor "
                f"{request.governor.name!r} does not expose"
            )
    return None


def negotiate(request: EngineRequest, engine: str = AUTO) -> str:
    """The name of the engine that will run ``request``.

    ``engine`` is either :data:`AUTO` — walk :data:`ENGINES` in order and
    return the first engine that accepts the request — or an engine name,
    which is validated against the request and rejected with a clear error
    when the engine declines.  The deprecated
    ``config.prefer_fast_path=False`` switch maps to ``scalar``.
    """
    if engine in (None, "", AUTO):
        if not request.config.prefer_fast_path:
            return SCALAR
        # scalar accepts every request, so the walk always ends in a name.
        return next(
            name for name in ENGINES if rejection_reason(name, request) is None
        )
    reason = rejection_reason(engine, request)
    if reason is not None:
        raise SimulationError(
            f"engine backend {engine!r} cannot run "
            f"{request.application.name!r} under {request.governor.name!r} "
            f"on cluster {request.cluster.name!r}: {reason}"
        )
    return engine


def run(name: str, request: EngineRequest) -> SimulationResult:
    """Execute ``request`` on engine ``name`` (as chosen by :func:`negotiate`)."""
    args = (request.cluster, request.application, request.governor, request.config)
    if name == FASTPATH:
        schedule = request.static_schedule()
        if schedule is None:
            raise SimulationError(
                f"governor {request.governor.name!r} exposes no static schedule"
            )
        return fastpath.simulate_schedule(*args, schedule)
    if name == JITPATH:
        return _jitpath().simulate_closed_loop(*args, tables=request.tables())
    if name == TABLEPATH:
        return tablepath.simulate_closed_loop(*args, tables=request.tables())
    if name == SCALAR:
        return scalarpath.simulate_scalar(*args)
    raise _unknown_engine(name)
