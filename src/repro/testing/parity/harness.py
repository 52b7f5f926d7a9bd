"""Differential replay harness: one scenario, every (governor x backend) pair.

The harness answers the question every engine or governor PR must answer
before it lands: *do all engine backends still hand every governor
bit-identical observations?*  It replays a
:class:`~repro.campaign.spec.ScenarioSpec` through every engine of the
fixed ladder that accepts it (:data:`repro.sim.backends.ENGINES` with no
:func:`~repro.sim.backends.rejection_reason`), diffs each decision
trace against the ``scalar`` reference, and collects the outcomes into a
:class:`ParityReport` — including the first divergent frame with both
sides' state whenever a pair disagrees.

The module also owns the canonical *smoke parity matrix*: the paper's
governors (:func:`paper_governors`) crossed with the CI smoke workloads
(:func:`smoke_applications`), which is what ``repro-parity check`` runs
against the committed goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.campaign.spec import CampaignSpec, FactorySpec, ScenarioSpec
from repro.rtm.governor import PlatformInfo
from repro.sim import backends
from repro.testing.parity.trace import (
    DEFAULT_FLOAT_TOLERANCE,
    REFERENCE_ENGINE,
    DecisionTrace,
    TraceDivergence,
    build_scenario_components,
    capture_decision_trace,
    diff_traces,
)

#: Seed shared with the CI smoke campaign so parity runs and campaign smoke
#: runs exercise the same frame traces.
SMOKE_SEED = 11

#: Frames per smoke workload: long enough for the RL governors to leave the
#: exploration phase, short enough that governors x backends x workloads
#: stays a seconds-scale gate.
SMOKE_FRAMES = 120


def smoke_applications(num_frames: int = SMOKE_FRAMES) -> Dict[str, FactorySpec]:
    """The smoke workloads (label -> application factory spec).

    Shared with ``benchmarks/make_smoke_campaign.py`` so the parity gate and
    the sharded-campaign smoke job cannot drift apart.
    """
    return {
        "mpeg4": FactorySpec.of("mpeg4", num_frames=num_frames),
        "fft": FactorySpec.of("fft", num_frames=num_frames),
    }


def paper_governors() -> Dict[str, FactorySpec]:
    """The paper's comparison governors (label -> governor factory spec).

    The static policies (performance/powersave), the reactive Linux
    baselines (ondemand/conservative), the offline Oracle, the proposed RL
    runtime manager and the Shen-style UPD learner — i.e. every policy the
    paper's tables compare, each of which must see bit-identical
    observations on every engine backend.
    """
    return {
        "performance": FactorySpec.of("performance"),
        "powersave": FactorySpec.of("powersave"),
        "ondemand": FactorySpec.of("ondemand"),
        "conservative": FactorySpec.of("conservative"),
        "oracle": FactorySpec.of("oracle"),
        "proposed": FactorySpec.of("proposed"),
        "shen-upd": FactorySpec.of("shen-upd"),
    }


def smoke_parity_campaign(num_frames: int = SMOKE_FRAMES) -> CampaignSpec:
    """Every paper governor x every smoke workload, as one campaign spec."""
    return CampaignSpec.from_grid(
        "parity-smoke",
        applications=smoke_applications(num_frames),
        governors=paper_governors(),
        seeds=(SMOKE_SEED,),
    )


def eligible_engines(scenario: ScenarioSpec) -> List[str]:
    """Every engine that accepts ``scenario``, in ladder order.

    Builds the scenario's components once and asks each name in
    :data:`~repro.sim.backends.ENGINES` for its rejection reason, so the
    answer follows what this interpreter can run (``jitpath`` joins the
    parity matrix as soon as numba is importable).  Includes the reference
    ``scalar`` engine.
    """
    cluster, application, governor = build_scenario_components(scenario)
    governor.setup(
        PlatformInfo(num_cores=cluster.num_cores, vf_table=cluster.vf_table),
        application.requirement,
    )
    request = backends.EngineRequest(
        cluster=cluster,
        application=application,
        governor=governor,
        config=scenario.config,
    )
    return [
        name
        for name in backends.ENGINES
        if backends.rejection_reason(name, request) is None
    ]


@dataclass
class PairResult:
    """Outcome of replaying one scenario on one engine backend."""

    label: str
    governor: str
    application: str
    engine: str
    status: str  # "ok" | "divergent" | "error"
    divergence: Optional[TraceDivergence] = None
    error: str = ""

    def to_dict(self) -> Dict:
        data = {
            "label": self.label,
            "governor": self.governor,
            "application": self.application,
            "engine": self.engine,
            "status": self.status,
        }
        if self.divergence is not None:
            data["divergence"] = self.divergence.to_dict()
        if self.error:
            data["error"] = self.error
        return data


@dataclass
class ParityReport:
    """Aggregated outcome of a differential replay run."""

    reference_engine: str
    results: List[PairResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every replayed pair matched the reference trace."""
        return all(result.status == "ok" for result in self.results)

    @property
    def failures(self) -> List[PairResult]:
        """The divergent or errored pairs."""
        return [result for result in self.results if result.status != "ok"]

    def to_dict(self) -> Dict:
        return {
            "reference_engine": self.reference_engine,
            "ok": self.ok,
            "pairs": len(self.results),
            "results": [result.to_dict() for result in self.results],
        }

    def summary(self) -> str:
        """Multi-line human-readable report (one line per pair, then failures)."""
        lines = []
        for result in self.results:
            lines.append(
                f"{result.status:>9}  {result.label:<28} engine={result.engine}"
            )
        failures = self.failures
        lines.append(
            f"{len(self.results)} (governor x engine) pairs checked against "
            f"{self.reference_engine!r}: "
            f"{len(self.results) - len(failures)} ok, {len(failures)} failing"
        )
        for result in failures:
            if result.divergence is not None:
                lines.append(f"-- {result.label} [{result.engine}]")
                lines.append(result.divergence.describe())
            elif result.error:
                lines.append(f"-- {result.label} [{result.engine}]: {result.error}")
        return "\n".join(lines)


def run_parity(
    scenarios: Sequence[ScenarioSpec],
    engines: Optional[Sequence[str]] = None,
    reference_engine: str = REFERENCE_ENGINE,
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE,
    reference_traces: Optional[Dict[str, DecisionTrace]] = None,
) -> ParityReport:
    """Replay every scenario through every eligible backend and diff traces.

    Parameters
    ----------
    scenarios:
        The scenarios to replay (typically a parity campaign's scenarios).
    engines:
        Restrict the candidate backends; ``None`` replays every eligible
        trace-capable backend from the live registry.
    reference_engine:
        The backend whose trace is the comparison baseline.
    float_tolerance:
        Tolerance for the float observation columns (decision data is
        always compared exactly).
    reference_traces:
        Optional pre-recorded reference traces keyed by scenario label
        (the golden store passes these); when present the reference is
        *not* re-simulated and every eligible backend — including
        ``reference_engine`` itself — is diffed against the stored trace.

    A backend that raises is reported as an ``"error"`` pair rather than
    aborting the sweep, so one broken backend cannot hide divergences in
    the others.
    """
    report = ParityReport(reference_engine=reference_engine)
    for scenario in scenarios:
        candidates = eligible_engines(scenario)
        if engines is not None:
            candidates = [name for name in candidates if name in set(engines)]
        stored = (reference_traces or {}).get(scenario.label)
        if stored is None:
            reference = capture_decision_trace(scenario, engine=reference_engine)
            candidates = [name for name in candidates if name != reference_engine]
        else:
            reference = stored
        for engine in candidates:
            try:
                candidate = capture_decision_trace(scenario, engine=engine)
            except Exception as exc:  # noqa: BLE001 - reported, not silenced
                report.results.append(
                    PairResult(
                        label=scenario.label,
                        governor=scenario.governor.name,
                        application=scenario.application.name,
                        engine=engine,
                        status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            divergence = diff_traces(
                reference, candidate, float_tolerance=float_tolerance
            )
            report.results.append(
                PairResult(
                    label=scenario.label,
                    governor=scenario.governor.name,
                    application=scenario.application.name,
                    engine=engine,
                    status="ok" if divergence is None else "divergent",
                    divergence=divergence,
                )
            )
    return report
