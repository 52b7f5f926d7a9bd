"""Frame-by-frame scalar simulation loop — the reference engine.

This is the universal fallback every fast engine is validated against: one
:meth:`Cluster.execute_workload <repro.platform.cluster.Cluster.execute_workload>`
call per frame, no precomputation, correct for every
(cluster, governor, config) combination including thermally-coupled runs.
It used to live inside :class:`~repro.sim.engine.SimulationEngine`; with
engine selection moved to the engine ladder in :mod:`repro.sim.backends`
the loop is a plain module-level function like its fast siblings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING, Tuple

from repro.rtm.governor import EpochObservation, FrameHint
from repro.sim.epoch import FrameRecord
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.config import SimulationConfig
    from repro.workload.application import Application


def _epoch_outputs(
    frame_index: int,
    per_core: Sequence[float],
    execution,
    deadline_s: float,
    overhead_s: float,
    explored: bool,
) -> Tuple[FrameRecord, EpochObservation]:
    """Build the epoch's record and the governor's observation from one snapshot.

    The two views share every measured quantity; deriving both from a single
    call keeps them from drifting apart.
    """
    busy_time_s = max(core_result.busy_time_s for core_result in execution.core_results)
    cycles = tuple(per_core)
    record = FrameRecord(
        index=frame_index,
        operating_index=execution.operating_index,
        frequency_mhz=execution.operating_point.frequency_mhz,
        cycles_per_core=cycles,
        busy_time_s=busy_time_s,
        overhead_time_s=overhead_s,
        frame_time_s=busy_time_s + overhead_s,
        interval_s=execution.duration_s,
        deadline_s=deadline_s,
        energy_j=execution.energy_j,
        average_power_w=execution.average_power_w,
        measured_power_w=execution.measured_power_w,
        temperature_c=execution.temperature_c,
        explored=explored,
    )
    observation = EpochObservation(
        epoch_index=frame_index,
        cycles_per_core=cycles,
        busy_time_s=busy_time_s,
        interval_s=execution.duration_s,
        reference_time_s=deadline_s,
        operating_index=execution.operating_index,
        energy_j=execution.energy_j,
        measured_power_w=execution.measured_power_w,
        overhead_time_s=overhead_s,
        throttle_events=execution.throttle_events,
    )
    return record, observation


def simulate_scalar(
    cluster: "Cluster",
    application: "Application",
    governor: "Governor",
    config: "SimulationConfig",
) -> SimulationResult:
    """Run the closed governor loop one frame at a time on the live cluster.

    The caller resets the cluster and sets the governor up first, exactly as
    for the fast engines.
    """
    previous_observation: Optional[EpochObservation] = None
    previous_exploration_count = governor.exploration_count
    charge_overhead = config.charge_governor_overhead
    idle_until_deadline = config.idle_until_deadline
    # One reusable FrameHint assigned in place (no governor retains hints
    # beyond decide(); the Oracle, the only reader, consumes it immediately).
    hint: Optional[FrameHint] = None
    records: List[FrameRecord] = []
    records_append = records.append

    for frame in application:
        per_core = frame.cycles_per_core(cluster.num_cores)
        if hint is None:
            hint = FrameHint(cycles_per_core=per_core, deadline_s=frame.deadline_s)
        else:
            hint.cycles_per_core = per_core
            hint.deadline_s = frame.deadline_s

        operating_index = governor.decide(previous_observation, hint)
        transition = cluster.set_operating_index(operating_index)

        minimum_interval = frame.deadline_s if idle_until_deadline else 0.0
        execution = cluster.execute_workload(
            per_core,
            minimum_interval_s=minimum_interval,
            pending_transition=transition,
        )

        overhead = 0.0
        if charge_overhead:
            overhead = governor.processing_overhead_s + transition.latency_s

        exploration_count = governor.exploration_count
        explored = exploration_count > previous_exploration_count
        previous_exploration_count = exploration_count

        record, previous_observation = _epoch_outputs(
            frame_index=frame.index,
            per_core=per_core,
            execution=execution,
            deadline_s=frame.deadline_s,
            overhead_s=overhead,
            explored=explored,
        )
        records_append(record)

    return SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        records=records,
        exploration_count=governor.exploration_count,
        converged_epoch=governor.converged_epoch,
    )
