"""Property-based scenario fuzzing for the parity harness.

Hand-written parity suites only cover the scenarios somebody thought of.
This module samples the scenario space itself — random V/F tables, random
frame traces, thermal modes, governor configurations and shard splits —
from a seeded stdlib :mod:`random` generator (numba-optional, mirroring
:mod:`repro._compat`: without numba ``jitpath`` is not eligible and the
run still checks every other engine), and asserts on every sample:

* **spec round-trip** — the fuzzed :class:`~repro.campaign.spec.ScenarioSpec`
  survives JSON serialisation unchanged (it is pure data);
* **physical invariants** — per-frame energy is non-negative, every chosen
  operating point lies inside the sampled V/F table, frame times are
  positive;
* **cross-backend parity** — every eligible engine backend reproduces the
  reference decision trace (:func:`repro.testing.parity.harness.run_parity`);
* **shard/merge identity** — a small campaign built around the scenario,
  run as shards, saved and merged with the streaming merge
  ``repro-campaign merge`` runs (:func:`~repro.campaign.store.merge_store_files`),
  equals the saved unsharded run byte-for-byte.

Every failure is reproducible from its integer seed alone
(``repro-parity fuzz --seed N``), and :func:`minimize_scenario` greedily
shrinks a failing scenario (fewer frames, fewer operating points, thermal
off, fewer cores) while it still fails, so the artefact CI uploads is the
smallest known reproducer, not the random original.

Importing this module registers the fuzz factories (``fuzz-trace``,
``fuzz-cluster``, ``fuzz-ondemand``, ``fuzz-conservative``) with the
campaign registries; the specs the fuzzer emits are ordinary campaign
data and resolve wherever :mod:`repro.testing.parity` is imported.
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.campaign.executor import CampaignExecutor
from repro.campaign.registry import (
    register_application,
    register_cluster,
    register_governor,
)
from repro.campaign.spec import CampaignSpec, FactorySpec, ScenarioSpec
from repro.campaign.store import STORE_JSON, merge_store_files
from repro.governors.conservative import ConservativeGovernor, ConservativeParameters
from repro.governors.ondemand import OndemandGovernor, OndemandParameters
from repro.platform.cluster import Cluster
from repro.platform.core import Core
from repro.platform.odroid_xu3 import A15_POWER_PARAMETERS
from repro.platform.power import PowerModel
from repro.platform.thermal import ThermalModel, ThermalParameters
from repro.platform.vf_table import make_linear_vf_table
from repro.testing.parity.harness import run_parity
from repro.testing.parity.trace import (
    DEFAULT_FLOAT_TOLERANCE,
    DecisionTrace,
    capture_decision_trace,
)
from repro.workload.generators import WorkloadGenerator
from repro.workload.threads import ImbalancedSplit


# ---------------------------------------------------------------------------
# Fuzz factories: the random components, as ordinary registry citizens.
# ---------------------------------------------------------------------------
class _FuzzWorkload(WorkloadGenerator):
    """A seeded random frame trace: jittered base demand with load spikes."""

    def __init__(
        self,
        base_cycles: float,
        jitter: float,
        spike_probability: float,
        spike_magnitude: float,
        frames_per_second: float,
        num_threads: int,
        seed: int,
    ) -> None:
        super().__init__(
            name="fuzz-trace",
            frames_per_second=frames_per_second,
            num_threads=num_threads,
            split_model=ImbalancedSplit(0.2),
            seed=seed,
        )
        self.base_cycles = base_cycles
        self.jitter = jitter
        self.spike_probability = spike_probability
        self.spike_magnitude = spike_magnitude

    def frame_cycles(self, frame_index: int, rng: random.Random) -> float:
        cycles = self.base_cycles * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
        if rng.random() < self.spike_probability:
            cycles *= self.spike_magnitude
        return max(cycles, 1.0)


@register_application("fuzz-trace")
def fuzz_trace_application(
    num_frames: int = 60,
    seed: int = 0,
    base_cycles: float = 8e6,
    jitter: float = 0.3,
    spike_probability: float = 0.05,
    spike_magnitude: float = 3.0,
    frames_per_second: float = 30.0,
    num_threads: int = 4,
):
    """A reproducible random application: same params + seed -> same frames."""
    generator = _FuzzWorkload(
        base_cycles=base_cycles,
        jitter=jitter,
        spike_probability=spike_probability,
        spike_magnitude=spike_magnitude,
        frames_per_second=frames_per_second,
        num_threads=num_threads,
        seed=seed,
    )
    return generator.generate(num_frames)


@register_cluster("fuzz-cluster")
def fuzz_cluster(
    num_cores: int = 4,
    opp_count: int = 8,
    f_min_mhz: float = 200.0,
    f_max_mhz: float = 2000.0,
    v_min: float = 0.90,
    v_max: float = 1.35,
    v_exponent: float = 1.5,
    enable_thermal: bool = False,
    throttle_c: float = 95.0,
) -> Cluster:
    """A synthetic cluster on a generated V/F table (A15 power constants)."""
    table = make_linear_vf_table(
        f_min_hz=f_min_mhz * 1e6,
        f_max_hz=f_max_mhz * 1e6,
        steps=opp_count,
        v_min=v_min,
        v_max=v_max,
        exponent=v_exponent,
    )
    thermal = ThermalModel(
        parameters=ThermalParameters(
            ambient_c=30.0,
            resistance_c_per_w=7.0,
            capacitance_j_per_c=4.0,
            initial_c=50.0,
            throttle_c=throttle_c,
        ),
        enabled=enable_thermal,
    )
    return Cluster(
        name="fuzz-cluster",
        cores=[Core(core_id=i) for i in range(num_cores)],
        vf_table=table,
        power_model=PowerModel(parameters=A15_POWER_PARAMETERS),
        thermal_model=thermal,
    )


@register_governor("fuzz-ondemand")
def fuzz_ondemand(up_threshold: float = 0.80, sampling_down_factor: int = 1):
    """Ondemand with its tunables exposed as JSON-scalar spec parameters."""
    return OndemandGovernor(
        OndemandParameters(
            up_threshold=up_threshold, sampling_down_factor=sampling_down_factor
        )
    )


@register_governor("fuzz-conservative")
def fuzz_conservative(
    up_threshold: float = 0.80,
    down_threshold: float = 0.20,
    freq_step_indices: int = 1,
):
    """Conservative with its tunables exposed as JSON-scalar spec parameters."""
    return ConservativeGovernor(
        ConservativeParameters(
            up_threshold=up_threshold,
            down_threshold=down_threshold,
            freq_step_indices=freq_step_indices,
        )
    )


# ---------------------------------------------------------------------------
# Scenario generation.
# ---------------------------------------------------------------------------
def _sample_governor(rng: random.Random) -> FactorySpec:
    kind = rng.choice(
        ["performance", "powersave", "userspace", "oracle",
         "fuzz-ondemand", "fuzz-conservative", "proposed", "proposed-single"]
    )
    if kind == "userspace":
        return FactorySpec.of("userspace", index=rng.randrange(0, 2))
    if kind == "fuzz-ondemand":
        return FactorySpec.of(
            "fuzz-ondemand",
            up_threshold=round(rng.uniform(0.5, 0.95), 3),
            sampling_down_factor=rng.randint(1, 3),
        )
    if kind == "fuzz-conservative":
        up = round(rng.uniform(0.5, 0.95), 3)
        return FactorySpec.of(
            "fuzz-conservative",
            up_threshold=up,
            down_threshold=round(rng.uniform(0.05, up - 0.2), 3),
            freq_step_indices=rng.randint(1, 3),
        )
    if kind in ("proposed", "proposed-single"):
        return FactorySpec.of(
            kind,
            seed=rng.randrange(0, 1_000_000),
            ewma_gamma=round(rng.uniform(0.3, 0.9), 3),
            workload_levels=rng.randint(3, 7),
            slack_levels=rng.randint(3, 7),
        )
    return FactorySpec.of(kind)


def generate_scenario(seed: int) -> ScenarioSpec:
    """Deterministically sample one random scenario from ``seed``.

    The scenario is pure campaign data: a ``fuzz-cluster`` with a random
    V/F table and thermal mode, a ``fuzz-trace`` application with a random
    frame trace, and a random governor configuration.  Userspace indices
    are sampled within the table's bounds by construction.
    """
    rng = random.Random(seed)
    opp_count = rng.randint(2, 16)
    f_min = rng.choice([100.0, 200.0, 400.0])
    f_max = f_min + rng.choice([400.0, 800.0, 1600.0])
    cluster = FactorySpec.of(
        "fuzz-cluster",
        num_cores=rng.randint(1, 4),
        opp_count=opp_count,
        f_min_mhz=f_min,
        f_max_mhz=f_max,
        v_min=round(rng.uniform(0.85, 0.95), 4),
        v_max=round(rng.uniform(1.1, 1.4), 4),
        v_exponent=round(rng.uniform(1.0, 2.0), 3),
        enable_thermal=rng.random() < 0.4,
        throttle_c=rng.choice([80.0, 95.0, 110.0]),
    )
    # Scale demand to the table so utilisation spans under- and over-load.
    frame_budget_cycles = (f_max * 1e6) / rng.choice([15.0, 30.0, 60.0])
    application = FactorySpec.of(
        "fuzz-trace",
        num_frames=rng.randint(24, 96),
        base_cycles=round(frame_budget_cycles * rng.uniform(0.2, 1.2), 1),
        jitter=round(rng.uniform(0.0, 0.6), 3),
        spike_probability=round(rng.uniform(0.0, 0.15), 3),
        spike_magnitude=round(rng.uniform(1.5, 4.0), 3),
        frames_per_second=rng.choice([15.0, 30.0, 60.0]),
        num_threads=rng.randint(1, 4),
    )
    governor = _sample_governor(rng)
    if governor.name == "userspace":
        governor = governor.with_params(index=rng.randrange(0, opp_count))
    return ScenarioSpec(
        label=f"fuzz-{seed}",
        application=application,
        governor=governor,
        cluster=cluster,
        seed=rng.randrange(0, 1_000_000),
    )


# ---------------------------------------------------------------------------
# Per-seed property checks.
# ---------------------------------------------------------------------------
def _check_spec_round_trip(scenario: ScenarioSpec) -> List[str]:
    encoded = json.dumps(scenario.to_dict(), sort_keys=True)
    decoded = ScenarioSpec.from_dict(json.loads(encoded))
    if decoded != scenario:
        return ["scenario spec does not survive a JSON round-trip"]
    if decoded.scenario_id != scenario.scenario_id:
        return ["scenario id changes across a JSON round-trip"]
    return []


def _check_invariants(scenario: ScenarioSpec, trace: DecisionTrace) -> List[str]:
    failures: List[str] = []
    opp_count = dict(scenario.cluster.params)["opp_count"]
    for frame, index in enumerate(trace.operating_index):
        if not 0 <= index < opp_count:
            failures.append(
                f"frame {frame}: chosen operating point {index} outside "
                f"table bounds [0, {opp_count})"
            )
            break
    for frame, energy in enumerate(trace.energy_j):
        if energy < 0.0:
            failures.append(f"frame {frame}: negative energy {energy!r}")
            break
    for frame, frame_time in enumerate(trace.frame_time_s):
        if frame_time <= 0.0:
            failures.append(f"frame {frame}: non-positive frame time {frame_time!r}")
            break
    if trace.total_energy_j < 0.0:
        failures.append(f"negative total energy {trace.total_energy_j!r}")
    return failures


def _check_shard_merge(scenario: ScenarioSpec, rng: random.Random) -> List[str]:
    """Sharded + merged campaign == unsharded campaign, byte for byte."""
    seeds = [rng.randrange(0, 1_000_000) for _ in range(3)]
    campaign = CampaignSpec(
        name=f"fuzz-campaign-{scenario.label}",
        scenarios=tuple(
            ScenarioSpec(
                label=f"{scenario.label}/seed={workload_seed}",
                application=scenario.application,
                governor=scenario.governor,
                cluster=scenario.cluster,
                config=scenario.config,
                seed=workload_seed,
            )
            for workload_seed in seeds
        ),
    )
    shard_count = rng.choice([2, 3])
    executor = CampaignExecutor(backend="serial")
    # Save and merge exactly as ``repro-campaign`` does, then compare the
    # files: order, frames, engine_used and cached metrics all count.
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as directory:
        unsharded_path = os.path.join(directory, "unsharded.store")
        executor.run(campaign).save(unsharded_path, store=STORE_JSON)
        shard_paths = []
        for index in range(shard_count):
            shard_path = os.path.join(directory, f"shard{index}.store")
            executor.run(campaign.shard(index, shard_count)).save(
                shard_path, store=STORE_JSON
            )
            shard_paths.append(shard_path)
        merged_path = os.path.join(directory, "merged.store")
        merge_store_files(shard_paths, merged_path, spec=campaign, store=STORE_JSON)
        if not filecmp.cmp(merged_path, unsharded_path, shallow=False):
            return [
                f"sharded ({shard_count} shards) + merged campaign differs "
                f"from the unsharded run"
            ]
    return []


@dataclass
class FuzzFailure:
    """One failing fuzz seed, with its (minimized) reproducer."""

    seed: int
    scenario: ScenarioSpec
    failures: List[str]
    minimized: Optional[ScenarioSpec] = None

    def to_dict(self) -> Dict:
        data = {
            "seed": self.seed,
            "failures": self.failures,
            "scenario": self.scenario.to_dict(),
            "reproduce": f"repro-parity fuzz --seed {self.seed}",
        }
        if self.minimized is not None:
            data["minimized_scenario"] = self.minimized.to_dict()
        return data


@dataclass
class FuzzReport:
    """Outcome of a multi-seed fuzz sweep."""

    seeds: List[int] = field(default_factory=list)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "seeds_run": len(self.seeds),
            "first_seed": self.seeds[0] if self.seeds else None,
            "last_seed": self.seeds[-1] if self.seeds else None,
            "ok": self.ok,
            "failures": [failure.to_dict() for failure in self.failures],
        }


def fuzz_seed(
    seed: int, float_tolerance: float = DEFAULT_FLOAT_TOLERANCE
) -> Optional[FuzzFailure]:
    """Run every property check for one seed; ``None`` when all hold."""
    scenario = generate_scenario(seed)
    failures: List[str] = []
    failures += _check_spec_round_trip(scenario)
    try:
        trace = capture_decision_trace(scenario)
    except Exception as exc:  # noqa: BLE001 - a crash is a finding
        failures.append(
            f"reference simulation failed: {type(exc).__name__}: {exc}"
        )
        return FuzzFailure(seed=seed, scenario=scenario, failures=failures)
    failures += _check_invariants(scenario, trace)
    report = run_parity([scenario], float_tolerance=float_tolerance)
    for pair in report.failures:
        if pair.divergence is not None:
            failures.append(
                f"backend {pair.engine!r} diverges from the reference:\n"
                f"{pair.divergence.describe()}"
            )
        else:
            failures.append(f"backend {pair.engine!r} failed: {pair.error}")
    failures += _check_shard_merge(scenario, random.Random(seed ^ 0x5EED))
    if failures:
        return FuzzFailure(seed=seed, scenario=scenario, failures=failures)
    return None


# ---------------------------------------------------------------------------
# Minimization.
# ---------------------------------------------------------------------------
def _shrink_candidates(scenario: ScenarioSpec) -> List[ScenarioSpec]:
    """One-step simplifications of ``scenario``, most aggressive first."""
    app = dict(scenario.application.params)
    cluster = dict(scenario.cluster.params)
    candidates: List[ScenarioSpec] = []

    def with_app(**overrides) -> ScenarioSpec:
        return ScenarioSpec(
            label=scenario.label,
            application=scenario.application.with_params(**overrides),
            governor=scenario.governor,
            cluster=scenario.cluster,
            config=scenario.config,
            seed=scenario.seed,
        )

    def with_cluster(**overrides) -> ScenarioSpec:
        return ScenarioSpec(
            label=scenario.label,
            application=scenario.application,
            governor=scenario.governor,
            cluster=scenario.cluster.with_params(**overrides),
            config=scenario.config,
            seed=scenario.seed,
        )

    if app.get("num_frames", 0) > 4:
        candidates.append(with_app(num_frames=max(4, app["num_frames"] // 2)))
    if cluster.get("enable_thermal", False):
        candidates.append(with_cluster(enable_thermal=False))
    if cluster.get("opp_count", 0) > 2:
        candidates.append(
            with_cluster(opp_count=max(2, cluster["opp_count"] // 2))
        )
    if cluster.get("num_cores", 1) > 1:
        candidates.append(with_cluster(num_cores=1))
    if app.get("spike_probability", 0.0) > 0.0:
        candidates.append(with_app(spike_probability=0.0))
    if app.get("jitter", 0.0) > 0.0:
        candidates.append(with_app(jitter=0.0))
    # Shrinking the table can strand a userspace pin outside it; re-clamp.
    clamped: List[ScenarioSpec] = []
    for candidate in candidates:
        if candidate.governor.name == "userspace":
            bound = dict(candidate.cluster.params)["opp_count"]
            pin = dict(candidate.governor.params).get("index", 0)
            if pin >= bound:
                candidate = ScenarioSpec(
                    label=candidate.label,
                    application=candidate.application,
                    governor=candidate.governor.with_params(index=bound - 1),
                    cluster=candidate.cluster,
                    config=candidate.config,
                    seed=candidate.seed,
                )
        clamped.append(candidate)
    return clamped


def minimize_scenario(
    scenario: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
    max_steps: int = 32,
) -> ScenarioSpec:
    """Greedily shrink ``scenario`` while ``still_fails`` keeps returning True.

    Tries the one-step simplifications of :func:`_shrink_candidates` in
    order, restarting from the first that still fails, until no candidate
    fails or ``max_steps`` shrink steps were taken.  The result is the
    smallest reproducer this greedy walk can find — not a global minimum,
    but reliably small enough to read.
    """
    current = scenario
    for _ in range(max_steps):
        for candidate in _shrink_candidates(current):
            try:
                failed = still_fails(candidate)
            except Exception:  # noqa: BLE001 - crashing still counts as failing
                failed = True
            if failed:
                current = candidate
                break
        else:
            break
    return current


def _scenario_failures(
    scenario: ScenarioSpec, float_tolerance: float
) -> List[str]:
    """The non-shard property checks, for minimization re-runs."""
    failures = list(_check_spec_round_trip(scenario))
    try:
        trace = capture_decision_trace(scenario)
    except Exception as exc:  # noqa: BLE001
        return failures + [
            f"reference simulation failed: {type(exc).__name__}: {exc}"
        ]
    failures += _check_invariants(scenario, trace)
    report = run_parity([scenario], float_tolerance=float_tolerance)
    failures += [
        f"backend {pair.engine!r} failed" for pair in report.failures
    ]
    return failures


def run_fuzz(
    seeds: Iterable[int],
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE,
    minimize: bool = True,
    progress: Optional[Callable[[int, Optional[FuzzFailure]], None]] = None,
) -> FuzzReport:
    """Fuzz every seed in ``seeds``; minimize and collect the failures."""
    report = FuzzReport()
    for seed in seeds:
        failure = fuzz_seed(seed, float_tolerance=float_tolerance)
        report.seeds.append(seed)
        if failure is not None and minimize:
            failure.minimized = minimize_scenario(
                failure.scenario,
                lambda candidate: bool(
                    _scenario_failures(candidate, float_tolerance)
                ),
            )
        if failure is not None:
            report.failures.append(failure)
        if progress is not None:
            progress(seed, failure)
    return report
