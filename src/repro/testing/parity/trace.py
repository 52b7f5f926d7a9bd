"""Decision-trace capture and differential comparison.

A :class:`DecisionTrace` is everything a governor *decided* and everything
it could have *observed* during one simulation run: the per-frame operating
points, the DVFS transitions the actuator applied, the deadline-miss and
exploration sets, the per-frame timing/energy/temperature columns (the
epoch observations), and the governor's final
:meth:`~repro.rtm.governor.Governor.decision_state` snapshot — which for a
learning governor includes the complete Q-table.

Two engine backends are *parity-equivalent* on a scenario exactly when
their decision traces agree: integer decision data must match exactly,
float columns within a tiny tolerance (the vectorised trace engine is
proven to 1e-9 against the scalar reference; the table-driven engines are
bit-identical).  :func:`diff_traces` implements that comparison and, on a
mismatch, reports the **first divergent frame with both sides' state** —
the actionable artefact a failing parity gate hands to the next engine or
governor PR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign import registry
from repro.campaign.spec import ScenarioSpec
from repro.errors import ParityError
from repro.rtm.governor import Governor
from repro.sim.engine import SimulationEngine
from repro.sim.epoch import DEADLINE_TOLERANCE_S
from repro.workload.application import Application

#: The backend every other backend is diffed against.
REFERENCE_ENGINE = "scalar"

#: Relative/absolute tolerance for float columns.  Decision data (operating
#: points, miss sets, transitions, visit counts) is always compared exactly;
#: this only loosens the physics columns, where the vectorised engine's
#: different summation order is proven equivalent to 1e-9.
DEFAULT_FLOAT_TOLERANCE = 1e-9


def _floats_equal(a: float, b: float, tolerance: float) -> bool:
    if a == b:
        return True
    try:
        return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
    except TypeError:
        return False


def _rle_encode(values: List[int]) -> List[List[int]]:
    """Run-length encode ``values`` as ``[[value, count], ...]``.

    Governors hold an operating point for many consecutive frames, so the
    per-frame OPP-index column compresses extremely well; this is the
    compact encoding the golden files use.
    """
    runs: List[List[int]] = []
    for value in values:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([int(value), 1])
    return runs


def _rle_decode(runs: List[List[int]]) -> List[int]:
    """Inverse of :func:`_rle_encode`."""
    values: List[int] = []
    for value, count in runs:
        values.extend([int(value)] * int(count))
    return values


@dataclass
class DecisionTrace:
    """The complete decision record of one simulation run.

    Attributes
    ----------
    governor / application / scenario_id / engine:
        Identification: governor and application names, the scenario's
        content hash, and the engine backend that produced the trace.
    num_frames:
        Number of decision epochs.
    operating_index:
        Per-frame operating-point index in force (the chosen OPPs).
    explored_frames / miss_frames:
        Sorted frame indices flagged explorative / missing their deadline.
    transitions:
        The actuator's DVFS transitions in order, as ``(from, to)`` index
        pairs.
    transition_latency_s / transition_energy_j:
        The actuator's cumulative transition costs.
    frame_time_s / energy_j / temperature_c:
        Per-frame observation columns (what the governor was shown).
    total_energy_j / exploration_count / converged_epoch:
        Run-level aggregates.
    final_state:
        The governor's :meth:`~repro.rtm.governor.Governor.decision_state`
        after the run — for learning governors this includes the full
        Q-table values and visit counts.
    """

    governor: str
    application: str
    scenario_id: str
    engine: str
    num_frames: int
    operating_index: List[int]
    explored_frames: List[int]
    miss_frames: List[int]
    transitions: List[Tuple[int, int]]
    transition_latency_s: float
    transition_energy_j: float
    frame_time_s: List[float]
    energy_j: List[float]
    temperature_c: List[float]
    total_energy_j: float
    exploration_count: int
    converged_epoch: Optional[int]
    final_state: Dict[str, Any] = field(default_factory=dict)

    def frame_state(self, frame: int) -> Dict[str, Any]:
        """One frame's decision and observation, for divergence reports."""
        return {
            "engine": self.engine,
            "frame": frame,
            "operating_index": self.operating_index[frame],
            "frame_time_s": self.frame_time_s[frame],
            "energy_j": self.energy_j[frame],
            "temperature_c": self.temperature_c[frame],
            "explored": frame in self.explored_frames,
            "missed_deadline": frame in self.miss_frames,
        }

    # -- JSON (the golden-file encoding) --------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON form: the OPP-index column is run-length encoded."""
        return {
            "governor": self.governor,
            "application": self.application,
            "scenario_id": self.scenario_id,
            "engine": self.engine,
            "num_frames": self.num_frames,
            "operating_index_rle": _rle_encode(self.operating_index),
            "explored_frames": list(self.explored_frames),
            "miss_frames": list(self.miss_frames),
            "transitions": [[int(a), int(b)] for a, b in self.transitions],
            "transition_latency_s": self.transition_latency_s,
            "transition_energy_j": self.transition_energy_j,
            "frame_time_s": list(self.frame_time_s),
            "energy_j": list(self.energy_j),
            "temperature_c": list(self.temperature_c),
            "total_energy_j": self.total_energy_j,
            "exploration_count": self.exploration_count,
            "converged_epoch": self.converged_epoch,
            "final_state": self.final_state,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionTrace":
        """Inverse of :meth:`to_dict`."""
        trace = cls(
            governor=data["governor"],
            application=data["application"],
            scenario_id=data["scenario_id"],
            engine=data["engine"],
            num_frames=int(data["num_frames"]),
            operating_index=_rle_decode(data["operating_index_rle"]),
            explored_frames=[int(i) for i in data["explored_frames"]],
            miss_frames=[int(i) for i in data["miss_frames"]],
            transitions=[(int(a), int(b)) for a, b in data["transitions"]],
            transition_latency_s=float(data["transition_latency_s"]),
            transition_energy_j=float(data["transition_energy_j"]),
            frame_time_s=[float(v) for v in data["frame_time_s"]],
            energy_j=[float(v) for v in data["energy_j"]],
            temperature_c=[float(v) for v in data["temperature_c"]],
            total_energy_j=float(data["total_energy_j"]),
            exploration_count=int(data["exploration_count"]),
            converged_epoch=data.get("converged_epoch"),
            final_state=dict(data.get("final_state", {})),
        )
        if len(trace.operating_index) != trace.num_frames:
            raise ParityError(
                f"corrupt decision trace: RLE decodes to "
                f"{len(trace.operating_index)} frames, header says {trace.num_frames}"
            )
        return trace


# ---------------------------------------------------------------------------
# Capture.
# ---------------------------------------------------------------------------
def build_scenario_components(
    scenario: ScenarioSpec,
) -> Tuple[Any, Application, Governor]:
    """Fresh (cluster, application, governor) from the scenario's factories.

    Mirrors the campaign executor's component construction so a trace
    captured here replays exactly what ``run_scenario`` would execute.
    """
    cluster = registry.cluster_factory(scenario.cluster.name)(**scenario.cluster.kwargs)
    app_kwargs = dict(scenario.application.kwargs)
    if scenario.seed is not None:
        app_kwargs["seed"] = scenario.seed
    application = registry.application_factory(scenario.application.name)(**app_kwargs)
    governor = registry.governor_factory(scenario.governor.name)(**scenario.governor.kwargs)
    return cluster, application, governor


def capture_decision_trace(
    scenario: ScenarioSpec, engine: str = REFERENCE_ENGINE
) -> DecisionTrace:
    """Run ``scenario`` on ``engine`` and capture its full decision trace.

    Components are built fresh from the scenario's named factories (no
    state leaks between captures), the run is pinned to the named backend
    through the ordinary registry validation, and the trace is assembled
    from the result columns, the cluster's DVFS actuator and the governor's
    post-run :meth:`~repro.rtm.governor.Governor.decision_state`.
    """
    cluster, application, governor = build_scenario_components(scenario)
    sim = SimulationEngine(cluster, scenario.config, engine=engine)
    result = sim.run(application, governor)

    columns = result.columns
    operating_index = [int(index) for index in columns.operating_index]
    explored_frames = [
        index for index, explored in zip(columns.index, columns.explored) if explored
    ]
    miss_frames = [
        index
        for index, frame_time, deadline in zip(
            columns.index, columns.frame_time_s, columns.deadline_s
        )
        if frame_time > deadline + DEADLINE_TOLERANCE_S
    ]
    actuator = cluster.dvfs
    transitions = [(t.from_index, t.to_index) for t in actuator.transitions]
    return DecisionTrace(
        governor=scenario.governor.name,
        application=scenario.application.name,
        scenario_id=scenario.scenario_id,
        engine=engine,
        num_frames=len(columns),
        operating_index=operating_index,
        explored_frames=explored_frames,
        miss_frames=miss_frames,
        transitions=transitions,
        transition_latency_s=actuator.total_transition_time_s,
        transition_energy_j=actuator.total_transition_energy_j,
        frame_time_s=list(columns.frame_time_s),
        energy_j=list(columns.energy_j),
        temperature_c=list(columns.temperature_c),
        total_energy_j=result.total_energy_j,
        exploration_count=result.exploration_count,
        converged_epoch=result.converged_epoch,
        final_state=governor.decision_state(),
    )


# ---------------------------------------------------------------------------
# Differential comparison.
# ---------------------------------------------------------------------------
@dataclass
class TraceDivergence:
    """The first point at which two decision traces disagree.

    Attributes
    ----------
    field:
        Which trace field diverged (``"operating_index"``,
        ``"miss_frames"``, ``"final_state.qtable_values"``, ...).
    frame:
        First divergent frame index, when the field is per-frame
        (``None`` for run-level fields such as the final governor state).
    reference / candidate:
        The diverging values on each side.
    reference_state / candidate_state:
        Both sides' full frame state at the divergent frame (empty dicts
        for run-level divergences).
    reference_engine / candidate_engine:
        Which backends produced each side.
    """

    field: str
    frame: Optional[int]
    reference: Any
    candidate: Any
    reference_engine: str
    candidate_engine: str
    reference_state: Dict[str, Any] = field(default_factory=dict)
    candidate_state: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable one-paragraph report naming the divergent frame."""
        where = (
            f"at frame {self.frame}" if self.frame is not None else "at run level"
        )
        lines = [
            f"decision traces diverge {where} in field {self.field!r}: "
            f"reference engine {self.reference_engine!r} has "
            f"{self.reference!r}, candidate engine {self.candidate_engine!r} "
            f"has {self.candidate!r}"
        ]
        if self.reference_state:
            lines.append(f"  reference frame state: {self.reference_state}")
        if self.candidate_state:
            lines.append(f"  candidate frame state: {self.candidate_state}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form used by the CI divergence-report artifact."""
        return {
            "field": self.field,
            "frame": self.frame,
            "reference": self.reference,
            "candidate": self.candidate,
            "reference_engine": self.reference_engine,
            "candidate_engine": self.candidate_engine,
            "reference_state": self.reference_state,
            "candidate_state": self.candidate_state,
            "message": self.describe(),
        }


def _first_int_mismatch(a: List[int], b: List[int]) -> Optional[int]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _first_float_mismatch(
    a: List[float], b: List[float], tolerance: float
) -> Optional[int]:
    for i, (x, y) in enumerate(zip(a, b)):
        if not _floats_equal(x, y, tolerance):
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _state_equal(a: Any, b: Any, tolerance: float) -> bool:
    """Structural equality with float tolerance, for decision-state dicts."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return set(a) == set(b) and all(
            _state_equal(a[key], b[key], tolerance) for key in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _state_equal(x, y, tolerance) for x, y in zip(a, b)
        )
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return _floats_equal(float(a), float(b), tolerance)
    return a == b


def diff_traces(
    reference: DecisionTrace,
    candidate: DecisionTrace,
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE,
) -> Optional[TraceDivergence]:
    """First divergence between two decision traces, or ``None`` if they agree.

    Integer decision data (chosen operating points, miss/exploration sets,
    DVFS transitions, exploration counts) is compared exactly; float
    observation columns and the final governor state within
    ``float_tolerance``.  Fields are checked in decision-relevance order so
    the reported divergence is the most actionable one: the chosen OPP
    sequence first, then the sets derived from it, then the physics
    columns, then run-level state.
    """

    def divergence(field_name: str, frame: Optional[int], ref: Any, cand: Any):
        with_frames = frame is not None and frame < min(
            reference.num_frames, candidate.num_frames
        )
        return TraceDivergence(
            field=field_name,
            frame=frame,
            reference=ref,
            candidate=cand,
            reference_engine=reference.engine,
            candidate_engine=candidate.engine,
            reference_state=reference.frame_state(frame) if with_frames else {},
            candidate_state=candidate.frame_state(frame) if with_frames else {},
        )

    if reference.num_frames != candidate.num_frames:
        return divergence(
            "num_frames", None, reference.num_frames, candidate.num_frames
        )

    frame = _first_int_mismatch(reference.operating_index, candidate.operating_index)
    if frame is not None:
        return divergence(
            "operating_index",
            frame,
            reference.operating_index[frame],
            candidate.operating_index[frame],
        )

    for field_name in ("explored_frames", "miss_frames"):
        ref_set = set(getattr(reference, field_name))
        cand_set = set(getattr(candidate, field_name))
        if ref_set != cand_set:
            first = min(ref_set.symmetric_difference(cand_set))
            return divergence(
                field_name, first, first in ref_set, first in cand_set
            )

    for field_name in ("frame_time_s", "energy_j", "temperature_c"):
        frame = _first_float_mismatch(
            getattr(reference, field_name),
            getattr(candidate, field_name),
            float_tolerance,
        )
        if frame is not None:
            return divergence(
                field_name,
                frame,
                getattr(reference, field_name)[frame],
                getattr(candidate, field_name)[frame],
            )

    if reference.transitions != candidate.transitions:
        position = _first_int_mismatch(
            [a * 1000 + b for a, b in reference.transitions],
            [a * 1000 + b for a, b in candidate.transitions],
        )
        ref_at = (
            reference.transitions[position]
            if position is not None and position < len(reference.transitions)
            else None
        )
        cand_at = (
            candidate.transitions[position]
            if position is not None and position < len(candidate.transitions)
            else None
        )
        return divergence("transitions", None, ref_at, cand_at)

    for field_name in ("transition_latency_s", "transition_energy_j", "total_energy_j"):
        if not _floats_equal(
            getattr(reference, field_name),
            getattr(candidate, field_name),
            float_tolerance,
        ):
            return divergence(
                field_name,
                None,
                getattr(reference, field_name),
                getattr(candidate, field_name),
            )

    if reference.exploration_count != candidate.exploration_count:
        return divergence(
            "exploration_count",
            None,
            reference.exploration_count,
            candidate.exploration_count,
        )
    if reference.converged_epoch != candidate.converged_epoch:
        return divergence(
            "converged_epoch",
            None,
            reference.converged_epoch,
            candidate.converged_epoch,
        )

    ref_state, cand_state = reference.final_state, candidate.final_state
    for key in sorted(set(ref_state) | set(cand_state)):
        if not _state_equal(
            ref_state.get(key), cand_state.get(key), float_tolerance
        ):
            return divergence(
                f"final_state.{key}",
                None,
                ref_state.get(key),
                cand_state.get(key),
            )
    return None
