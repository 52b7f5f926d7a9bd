"""Factory registries resolving the names used by scenario specs.

Scenario specs reference applications, governors, clusters and probes by
*name* so they stay pure data.  This module owns the four name -> factory
registries and pre-registers the library's built-ins.  Extensions register
their own factories at import time of an importable module, which keeps
them resolvable inside process-pool workers::

    from repro.campaign import register_application

    @register_application("my-workload")
    def my_workload(num_frames=300, seed=0):
        return ...  # build an Application

Probes run in the worker immediately after a scenario's simulation, with
the live governor still in hand, and return a JSON-serialisable payload —
the only way governor internals (predictor records, learnt policy) can
cross a process boundary back to the campaign result.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.governors.conservative import ConservativeGovernor
from repro.governors.multicore_dvfs import MultiCoreDVFSGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.governors.userspace import UserspaceGovernor
from repro.platform.cluster import Cluster
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.governor import Governor
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.sim.results import SimulationResult
from repro.workload.application import Application
from repro.workload.fft import fft_application
from repro.workload.parsec import parsec_application
from repro.workload.splash2 import splash2_application
from repro.workload.video import (
    ffmpeg_decode_application,
    h264_application,
    h264_football_application,
    mpeg4_application,
)

ApplicationFactory = Callable[..., Application]
GovernorFactory = Callable[..., Governor]
ClusterFactory = Callable[..., Cluster]
#: Probes receive ``(governor, result, **params)`` and return a JSON payload.
ProbeFactory = Callable[..., Dict[str, Any]]

_APPLICATIONS: Dict[str, ApplicationFactory] = {}
_GOVERNORS: Dict[str, GovernorFactory] = {}
_CLUSTERS: Dict[str, ClusterFactory] = {}
_PROBES: Dict[str, ProbeFactory] = {}


def _register(registry: Dict[str, Callable], kind: str, name: str, factory: Optional[Callable]):
    if factory is None:  # decorator form
        def decorator(func: Callable) -> Callable:
            _register(registry, kind, name, func)
            return func

        return decorator
    if not name:
        raise ConfigurationError(f"{kind} registry names must be non-empty")
    registry[name] = factory
    return factory


def register_application(name: str, factory: Optional[ApplicationFactory] = None):
    """Register an application factory (usable as a decorator)."""
    return _register(_APPLICATIONS, "application", name, factory)


def register_governor(name: str, factory: Optional[GovernorFactory] = None):
    """Register a governor factory (usable as a decorator)."""
    return _register(_GOVERNORS, "governor", name, factory)


def register_cluster(name: str, factory: Optional[ClusterFactory] = None):
    """Register a cluster builder (usable as a decorator)."""
    return _register(_CLUSTERS, "cluster", name, factory)


def register_probe(name: str, factory: Optional[ProbeFactory] = None):
    """Register a post-run probe (usable as a decorator)."""
    return _register(_PROBES, "probe", name, factory)


def _resolve(registry: Dict[str, Callable], kind: str, name: str) -> Callable:
    try:
        return registry[name]
    except KeyError as exc:
        known = ", ".join(sorted(registry)) or "<none>"
        raise ConfigurationError(
            f"unknown {kind} {name!r}; registered {kind}s: {known}"
        ) from exc


def application_factory(name: str) -> ApplicationFactory:
    """The registered application factory called ``name``."""
    return _resolve(_APPLICATIONS, "application", name)


def governor_factory(name: str) -> GovernorFactory:
    """The registered governor factory called ``name``."""
    return _resolve(_GOVERNORS, "governor", name)


def cluster_factory(name: str) -> ClusterFactory:
    """The registered cluster builder called ``name``."""
    return _resolve(_CLUSTERS, "cluster", name)


def probe_factory(name: str) -> ProbeFactory:
    """The registered probe called ``name``."""
    return _resolve(_PROBES, "probe", name)


def registered_names() -> Dict[str, List[str]]:
    """All registered names per registry (for CLI / error reporting)."""
    return {
        "applications": sorted(_APPLICATIONS),
        "governors": sorted(_GOVERNORS),
        "clusters": sorted(_CLUSTERS),
        "probes": sorted(_PROBES),
    }


# ---------------------------------------------------------------------------
# Built-in applications: the paper's workloads.
# ---------------------------------------------------------------------------
register_application("mpeg4", mpeg4_application)
register_application("h264", h264_application)
register_application("h264-football", h264_football_application)
register_application("fft", fft_application)
register_application("ffmpeg-decode", ffmpeg_decode_application)
register_application("parsec", parsec_application)
register_application("splash2", splash2_application)


# ---------------------------------------------------------------------------
# Built-in governors.  The RL governors accept the flat RLGovernorConfig
# scalars (ewma_gamma, workload_levels, ...) as keyword parameters so specs
# can sweep them without embedding non-JSON config objects.
# ---------------------------------------------------------------------------
def _rl_factory(governor_cls: type) -> GovernorFactory:
    def build(**config_kwargs: Any) -> Governor:
        if config_kwargs:
            return governor_cls(RLGovernorConfig(**config_kwargs))
        return governor_cls()

    return build


register_governor("proposed", _rl_factory(MultiCoreRLGovernor))
register_governor("proposed-single", _rl_factory(RLGovernor))
register_governor("shen-upd", _rl_factory(ShenRLGovernor))
register_governor("ondemand", OndemandGovernor)
register_governor("conservative", ConservativeGovernor)
register_governor("performance", PerformanceGovernor)
register_governor("powersave", PowersaveGovernor)
register_governor("userspace", UserspaceGovernor)
register_governor("multicore-dvfs", MultiCoreDVFSGovernor)
register_governor("oracle", OracleGovernor)


# ---------------------------------------------------------------------------
# Built-in clusters.
# ---------------------------------------------------------------------------
register_cluster("a15", build_a15_cluster)


# ---------------------------------------------------------------------------
# Built-in probes.
# ---------------------------------------------------------------------------
@register_probe("rl-prediction")
def rl_prediction_probe(
    governor: Governor,
    result: SimulationResult,
    core: int = 0,
    early_window: int = 100,
) -> Dict[str, Any]:
    """Workload-prediction internals of an RL governor (the Fig. 3 series).

    Returns the predicted/actual cycle series of ``core``'s predictor, the
    average-slack history, and the mean misprediction split at
    ``early_window`` frames.
    """
    if isinstance(governor, MultiCoreRLGovernor):
        predictor = governor.core_predictors[core]
    elif isinstance(governor, RLGovernor):
        predictor = governor.predictor
    else:
        raise ConfigurationError(
            f"rl-prediction probe requires an RL governor, got {governor.name!r}"
        )
    records = predictor.records
    early = predictor.misprediction_stats(0, early_window)
    late = predictor.misprediction_stats(early_window, None)
    return {
        "predicted_cycles": [r.predicted for r in records],
        "actual_cycles": [r.actual for r in records],
        "average_slack": list(governor.slack_tracker.history),
        "early_misprediction_percent": early.mean_percent,
        "late_misprediction_percent": late.mean_percent,
        "exploration_count": governor.exploration_count,
        "ewma_gamma": governor.config.ewma_gamma,
    }


@register_probe("rl-policy")
def rl_policy_probe(governor: Governor, result: SimulationResult) -> Dict[str, Any]:
    """The learnt greedy policy of an RL governor, per visited state."""
    if not isinstance(governor, RLGovernor):
        raise ConfigurationError(
            f"rl-policy probe requires an RL governor, got {governor.name!r}"
        )
    table = governor.agent.qtable
    state_space = governor.state_space
    vf_table = governor.platform.vf_table
    rows: List[Tuple[int, int, float]] = []
    for state in range(table.num_states):
        best = table.best_action(state)
        if table.visit_count(state, best) == 0:
            continue
        workload_level, slack_level = state_space.decompose(state)
        rows.append((workload_level, slack_level, vf_table[best].frequency_mhz))
    return {
        "greedy_policy": [
            {"workload_level": w, "slack_level": s, "frequency_mhz": f}
            for w, s, f in rows
        ],
        "exploration_count": governor.exploration_count,
        "converged_epoch": governor.converged_epoch,
    }
