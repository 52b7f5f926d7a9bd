"""Frame-stepped closed-loop simulation engine.

One engine instance owns one :class:`~repro.platform.cluster.Cluster` and
runs one application under one governor at a time, producing a
:class:`~repro.sim.results.SimulationResult` with a per-epoch record of
time, energy and governor behaviour.

Each run executes on one of four engines, picked per run from the fixed
ladder in :mod:`repro.sim.backends`: the vectorised trace engine
(``fastpath``), the compiled closed-loop kernels (``jitpath``, when numba
is installed), the table-driven closed loop with live thermal state
(``tablepath``) and the universal scalar reference loop (``scalar``).
``auto`` takes the first engine on that ladder that accepts the (cluster,
application, governor, config) request.  The engine that ran is recorded
on the result as :attr:`SimulationResult.engine_used`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.platform.cluster import Cluster
from repro.rtm.governor import Governor, PlatformInfo
from repro.sim import backends, tablepath
from repro.sim.results import SimulationResult
from repro.workload.application import Application


@dataclass(frozen=True)
class SimulationConfig:
    """Engine behaviour switches.

    Attributes
    ----------
    idle_until_deadline:
        If True (default) the cluster idles out the remainder of the frame
        period when a frame finishes early, as a rate-limited periodic
        application does on the real board.  Idle power at the selected
        operating point is therefore part of the frame's energy, which is
        what makes "race ahead then idle at high voltage" unattractive and
        the Oracle's slowest-deadline-meeting point optimal.
    charge_governor_overhead:
        If True (default) the governor's per-epoch processing time and the
        DVFS transition latency are added to the frame's execution time (the
        paper's ``T_OVH``).
    initial_operating_index:
        Operating-point index in force before the first decision; ``None``
        selects the fastest point (the after-boot default).
    prefer_fast_path:
        Deprecated compatibility switch: ``False`` pins the run to the
        ``scalar`` reference engine (e.g. for bit-exact regression
        comparisons against archived scalar results).  Prefer the engine
        request — ``SimulationEngine(..., engine="scalar")`` or a scenario
        spec's ``engine`` field — which goes through the same negotiation
        as every other selection.
    """

    idle_until_deadline: bool = True
    charge_governor_overhead: bool = True
    initial_operating_index: Optional[int] = None
    prefer_fast_path: bool = True


class SimulationEngine:
    """Runs applications under governors on a cluster model.

    Parameters
    ----------
    cluster:
        The platform model to execute on.
    config:
        Engine behaviour switches (see :class:`SimulationConfig`).
    table_provider:
        Optional callable ``(cluster, application, config) -> tables``
        invoked when (and only when) the winning engine consumes
        precomputed physics tables (``jitpath``, ``tablepath``).  Callers that run
        many scenarios over the same application and cluster (the campaign
        executor) supply a caching provider here so the precomputed physics
        is shared; ``None`` builds fresh tables per run.  Returned tables
        are validated against the live cluster before use, so a stale
        provider degrades to a rebuild, never to wrong numbers.
    engine:
        Engine request: ``"auto"`` (default) negotiates the fastest
        eligible engine from the ladder in :mod:`repro.sim.backends`; an
        engine name (``"fastpath"``, ``"jitpath"``, ``"tablepath"`` or
        ``"scalar"``) pins the run to that engine, failing with a clear
        error when the engine cannot run it.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SimulationConfig] = None,
        table_provider: Optional[tablepath.TableProvider] = None,
        engine: str = backends.AUTO,
    ) -> None:
        self.cluster = cluster
        self.config = config or SimulationConfig()
        self.table_provider = table_provider
        self.engine = engine
        self._engine_used: Optional[str] = None

    @property
    def engine_used(self) -> Optional[str]:
        """Name of the engine the most recent :meth:`run` executed on."""
        return self._engine_used

    def platform_info(self) -> PlatformInfo:
        """Static platform description handed to governors at setup."""
        return PlatformInfo(
            num_cores=self.cluster.num_cores,
            vf_table=self.cluster.vf_table,
        )

    def run(
        self,
        application: Application,
        governor: Governor,
        reset_cluster: bool = True,
    ) -> SimulationResult:
        """Execute ``application`` under ``governor`` and return the run's result.

        Parameters
        ----------
        application:
            The frame sequence and performance requirement to execute.
        governor:
            The DVFS policy under test; it is (re-)``setup()`` for this run.
        reset_cluster:
            If True (default) the cluster's meters, PMUs, thermal state and
            DVFS history are cleared before the run so results are
            independent of prior runs.
        """
        if application.num_frames == 0:
            raise SimulationError("cannot simulate an application with no frames")
        config = self.config
        if reset_cluster:
            self.cluster.reset(config.initial_operating_index)

        governor.setup(self.platform_info(), application.requirement)

        request = backends.EngineRequest(
            cluster=self.cluster,
            application=application,
            governor=governor,
            config=config,
            table_provider=self.table_provider,
        )
        # Cleared before negotiation so a failed selection (or a failed run)
        # cannot leave a previous run's engine name dangling.
        self._engine_used = None
        selected = backends.negotiate(request, engine=self.engine)
        result = backends.run(selected, request)
        self._engine_used = selected
        result.engine_used = selected
        return result
