"""NumPy-vectorised trace engine — the simulator's "fast path".

The scalar engine in :mod:`repro.sim.engine` steps one frame at a time
because in general the governor's next decision depends on what it observed
during the previous frame.  For governors whose schedule is knowable up
front — the pinned Linux policies (``performance``, ``powersave``,
``userspace``) and the Oracle's per-frame optimal evaluation — that closed
loop is pure overhead: every quantity of the run is a function of the frame
trace and a pre-computed per-frame operating-point schedule, and can be
evaluated for the whole trace in array form.

:func:`simulate_schedule` is that evaluation.  It reproduces the scalar
engine's numbers to tight tolerance by construction:

* busy times are ``cycles * seconds_per_cycle`` with the same hoisted
  reciprocal the scalar path multiplies by, so they are bit-identical;
* per-operating-point busy/idle core powers come from the same
  ``PowerModel.core_power_w`` evaluated at the same (constant) temperature;
* the stateful power sensor (conversion-period holdover, quantisation,
  seeded noise) is *driven*, not re-implemented: the real
  :class:`~repro.platform.sensors.PowerSensor` is stepped once per frame
  with pre-computed true powers and timestamps, so the measurement
  mechanism — holdover pattern, noise sequence, quantisation — is the
  scalar engine's own.

The only divergence is float summation order inside a frame's per-core
energy (vectorised sum vs sequential Python sum), far inside the 1e-9
relative tolerance the equivalence tests enforce.  Because the sensor
quantises the (last-bits-different) true average power, a frame whose
power sits exactly on a quantisation boundary could in principle report
one resolution step differently; the equivalence tests bound this too.

Eligibility: NumPy must be importable and the cluster's thermal model must
be disabled (the paper's setting) so temperature — and with it leakage
power — is constant over the trace.  Everything else (idle-at-min-OPP or
not, deadline padding or not, sensor noise, DVFS transition costs) is
handled exactly.  Thermally-enabled clusters negotiate to the table-driven
engine in :mod:`repro.sim.tablepath`, which carries the RC thermal state;
the scalar engine remains the universal fallback.  The rule itself lives in
:func:`repro.sim.backends.rejection_reason`.
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING

try:  # NumPy is optional: without it every run takes the scalar engine.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None  # type: ignore[assignment]

from repro.errors import SimulationError
from repro.platform.dvfs import DVFSTransition
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.config import SimulationConfig
    from repro.workload.application import Application


def simulate_schedule(
    cluster: "Cluster",
    application: "Application",
    governor: "Governor",
    config: "SimulationConfig",
    schedule: Sequence[int],
) -> SimulationResult:
    """Run ``application`` on ``cluster`` under a pre-computed OPP schedule.

    ``schedule`` holds one operating-point index per frame (typically from
    :meth:`~repro.rtm.governor.Governor.static_schedule`).  The cluster is
    used as-is — the caller resets it first, exactly as the scalar engine
    does — and is left with the same aggregate state a scalar run produces:
    clock advanced, energy meter and per-core PMUs credited with the trace
    totals, power sensor stepped through every frame, and the DVFS actuator
    holding the same transition history and final index.
    """
    np = _np
    if np is None:
        raise SimulationError("the vectorised fast path requires numpy")
    if cluster.thermal_model.enabled:
        raise SimulationError(
            "the vectorised fast path requires a disabled thermal model "
            "(temperature-dependent leakage needs the scalar engine)"
        )
    num_frames = application.num_frames
    if num_frames == 0:
        raise SimulationError("cannot simulate an application with no frames")
    if len(schedule) != num_frames:
        raise SimulationError(
            f"static schedule has {len(schedule)} entries for "
            f"{num_frames} frames"
        )
    table = cluster.vf_table
    num_cores = cluster.num_cores

    indices = np.asarray(schedule, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= len(table)):
        raise SimulationError(
            f"static schedule contains out-of-range operating-point indices "
            f"(table has {len(table)} points)"
        )

    # -- trace arrays ---------------------------------------------------------
    cycles = np.empty((num_frames, num_cores), dtype=np.float64)
    deadlines = np.empty(num_frames, dtype=np.float64)
    for row, frame in enumerate(application):
        cycles[row] = frame.cycles_per_core(num_cores)
        deadlines[row] = frame.deadline_s

    points = table.points
    seconds_per_cycle = np.array([p.seconds_per_cycle for p in points])
    frequencies_hz = np.asarray(table.frequencies_hz)

    # -- per-operating-point power tables (constant temperature) --------------
    temperature_c = cluster.thermal_model.temperature_c
    busy_list, idle_list = cluster.power_model.power_table(points, temperature_c)
    busy_power_w = np.array(busy_list)
    idle_power_w = np.array(idle_list)

    # -- timing ----------------------------------------------------------------
    busy_times = cycles * seconds_per_cycle[indices][:, None]
    busy_max = busy_times.max(axis=1)
    if config.idle_until_deadline:
        intervals = np.maximum(busy_max, deadlines)
    else:
        intervals = busy_max
    idle_times = intervals[:, None] - busy_times

    # -- DVFS transitions ------------------------------------------------------
    previous = np.empty_like(indices)
    previous[0] = cluster.current_index
    previous[1:] = indices[:-1]
    changed = indices != previous
    transition_latency = np.where(changed, cluster.dvfs.transition_latency_s, 0.0)
    transition_energy = np.where(changed, cluster.dvfs.transition_energy_j, 0.0)

    # -- energy ----------------------------------------------------------------
    frame_busy_w = busy_power_w[indices]
    if cluster.idle_at_min_opp:
        frame_idle_w = idle_power_w[0]
    else:
        frame_idle_w = idle_power_w[indices]
    core_uncore_energy = (
        frame_busy_w * busy_times.sum(axis=1)
        + frame_idle_w * idle_times.sum(axis=1)
        + cluster.power_model.parameters.uncore_power_w * intervals
    )
    energies = core_uncore_energy + transition_energy
    durations = intervals + transition_latency
    average_powers = np.divide(
        energies,
        durations,
        out=np.zeros_like(energies),
        where=durations > 0,
    )

    # -- overheads and deadlines ----------------------------------------------
    if config.charge_governor_overhead:
        overheads = governor.processing_overhead_s + transition_latency
    else:
        overheads = np.zeros(num_frames)
    frame_times = busy_max + overheads

    # -- drive the stateful sensor through the trace ---------------------------
    # Timestamps accumulate sequentially exactly as the scalar engine's
    # cluster clock does: cumsum over [t0, d0, d1, ...] performs the same
    # left-to-right adds (including the t0 + d0 association).
    timestamps = np.cumsum(np.concatenate(((cluster.time_s,), durations)))[1:].tolist()
    measured = cluster.power_sensor.measure_trace(average_powers.tolist(), timestamps)

    # -- columnar per-frame results (records materialise lazily) ---------------
    frequency_mhz = np.array([point.frequency_mhz for point in points])
    index_list = indices.tolist()
    columns = FrameColumns(
        index=list(range(num_frames)),
        operating_index=index_list,
        frequency_mhz=frequency_mhz[indices].tolist(),
        cycles_per_core=[tuple(row) for row in cycles.tolist()],
        busy_time_s=busy_max.tolist(),
        overhead_time_s=overheads.tolist(),
        frame_time_s=frame_times.tolist(),
        interval_s=durations.tolist(),
        deadline_s=deadlines.tolist(),
        energy_j=energies.tolist(),
        average_power_w=average_powers.tolist(),
        measured_power_w=list(measured),
        temperature_c=[temperature_c] * num_frames,
        explored=[False] * num_frames,
    )
    result = SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        columns=columns,
    )

    # -- leave the cluster in scalar-equivalent aggregate state ----------------
    # Scalar runs record one DVFSTransition per actual change, stamped with
    # the cluster time at the start of the frame; rebuild those records so
    # the actuator's public counters report the same history.
    frame_starts = [cluster.time_s] + timestamps[:-1]
    previous_list = previous.tolist()
    latency_s = cluster.dvfs.transition_latency_s
    energy_j = cluster.dvfs.transition_energy_j
    transitions = [
        DVFSTransition(
            frame_starts[row], previous_list[row], index_list[row], latency_s, energy_j
        )
        for row in np.nonzero(changed)[0].tolist()
    ]
    _sync_cluster(
        cluster,
        np,
        cycles=cycles,
        busy_times=busy_times,
        idle_times=idle_times,
        frequencies_hz=frequencies_hz,
        indices=indices,
        intervals=intervals,
        core_uncore_energy=core_uncore_energy,
        transition_energy=transition_energy,
        transitions=transitions,
        total_duration=float(durations.sum()),
    )

    result.exploration_count = governor.exploration_count
    result.converged_epoch = governor.converged_epoch
    return result


def _sync_cluster(
    cluster: "Cluster",
    np,
    *,
    cycles,
    busy_times,
    idle_times,
    frequencies_hz,
    indices,
    intervals,
    core_uncore_energy,
    transition_energy,
    transitions: List[DVFSTransition],
    total_duration: float,
) -> None:
    """Credit the cluster's meters/PMUs/clock with the trace's aggregates."""
    meter = cluster.energy_meter
    total_interval = float(intervals.sum())
    if total_interval > 0:
        meter.add_interval(
            float(core_uncore_energy.sum()) / total_interval, total_interval
        )
    meter.add_energy(float(transition_energy.sum()))

    idle_cycles = idle_times * frequencies_hz[indices][:, None]
    per_core_cycles = cycles.sum(axis=0).tolist()
    per_core_busy_s = busy_times.sum(axis=0).tolist()
    per_core_idle_cycles = idle_cycles.sum(axis=0).tolist()
    per_core_idle_s = idle_times.sum(axis=0).tolist()
    for core_index, core in enumerate(cluster.cores):
        core.pmu.account_busy(per_core_cycles[core_index], per_core_busy_s[core_index])
        if per_core_idle_s[core_index] > 0:
            core.pmu.account_idle(
                per_core_idle_cycles[core_index], per_core_idle_s[core_index]
            )

    cluster.dvfs.absorb_transitions(transitions, int(indices[-1]))
    cluster.advance_time(total_duration)
