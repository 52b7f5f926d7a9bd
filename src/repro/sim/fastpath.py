"""Static-schedule trace engine — the simulator's "fast path".

The scalar engine in :mod:`repro.sim.engine` steps one frame at a time
because in general the governor's next decision depends on what it observed
during the previous frame.  For governors whose schedule is knowable up
front — the pinned Linux policies (``performance``, ``powersave``,
``userspace``) and the Oracle's per-frame optimal evaluation — that closed
loop is pure overhead: every quantity of the run is a function of the frame
trace and a pre-computed per-frame operating-point schedule, so no governor
is consulted and no cluster model is stepped.

:func:`simulate_schedule` is that evaluation, in plain Python, in one pass
over the frames with no governor call and no cluster step:

* busy times are ``cycles * seconds_per_cycle`` with the same hoisted
  reciprocal the scalar path multiplies by, so they are bit-identical;
* per-operating-point busy/idle core powers come from the same
  ``PowerModel.core_power_w`` evaluated at the same (constant) temperature;
* a frame's energy is ``busy_w * Σbusy + idle_w * Σidle + uncore *
  interval``, each per-core sum taken in ``numpy.sum``'s pairwise order
  (:func:`~repro.sim.metrics.pairwise_sum`; left to right below 8 cores),
  the order the stored results of static scenarios were written in;
* the stateful power sensor (conversion-period holdover, quantisation,
  seeded noise) is *driven*, not re-implemented: the real
  :class:`~repro.platform.sensors.PowerSensor` measures the pre-computed
  true powers at their timestamps, so the measurement mechanism — holdover
  pattern, noise sequence, quantisation — is the scalar engine's own.

The only divergence from the scalar engine is the float summation order
inside a frame's per-core energy (factored and pairwise vs core by core),
which can move ``energy_j`` and ``average_power_w`` in the last ulp.
Because the sensor quantises the (last-bits-different) true average power,
a frame whose power sits exactly on a quantisation boundary could in
principle report one resolution step differently; the equivalence tests
bound this too.

Eligibility: the cluster's thermal model must be disabled (the paper's
setting) so temperature — and with it leakage power — is constant over the
trace.  Everything else (idle-at-min-OPP or not, deadline padding or not,
sensor noise, DVFS transition costs) is handled exactly.
Thermally-enabled clusters negotiate to the table-driven engine in
:mod:`repro.sim.tablepath`, which carries the RC thermal state; the scalar
engine remains the universal fallback.  The rule itself lives in
:func:`repro.sim.backends.rejection_reason`.

:func:`sync_cluster` leaves a cluster's DVFS actuator and clock where a
scalar run leaves them; every engine that bypasses the cluster model calls
it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import add, attrgetter
from typing import List, Sequence, TYPE_CHECKING, Tuple

from repro.errors import SimulationError
from repro.platform.dvfs import DVFSTransition
from repro.sim.epoch import FrameColumns, float_column
from repro.sim.metrics import pairwise_sum
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
    does — and is left with the same state a scalar run produces: clock
    advanced, power sensor stepped through every frame, and the DVFS
    actuator holding the same transition history and final index.
    """
    if cluster.thermal_model.enabled:
        raise SimulationError(
            "the static-schedule fast path requires a disabled thermal model "
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
    points = cluster.vf_table.points
    num_cores = cluster.num_cores

    indices = list(map(int, schedule))
    if min(indices) < 0 or max(indices) >= len(points):
        raise SimulationError(
            f"static schedule contains out-of-range operating-point indices "
            f"(table has {len(points)} points)"
        )

    # -- trace ------------------------------------------------------------------
    # The result's cycles_per_core shares each frame's own tuple when it
    # already holds num_cores exact floats; any other row is read as floats.
    cycles_rows = application.cycles_per_core(num_cores)
    deadlines = list(map(float, map(attrgetter("deadline_s"), application)))
    if not (
        set(map(type, cycles_rows)) == {tuple}
        and set(map(len, cycles_rows)) == {num_cores}
        and set(map(type, chain.from_iterable(cycles_rows))) == {float}
    ):
        cycles_rows = [_float_row(row, num_cores) for row in cycles_rows]

    # -- per-operating-point constants (constant temperature) ------------------
    temperature_c = cluster.thermal_model.temperature_c
    busy_power_w, idle_power_w = cluster.power_model.power_table(points, temperature_c)
    if cluster.idle_at_min_opp:
        idle_power_w = [idle_power_w[0]] * len(points)
    uncore_power_w = cluster.power_model.parameters.uncore_power_w
    seconds_per_cycle = [point.seconds_per_cycle for point in points]
    pad = config.idle_until_deadline
    overhead_s = governor.processing_overhead_s if config.charge_governor_overhead else None
    latency_s = cluster.dvfs.transition_latency_s
    transition_j = cluster.dvfs.transition_energy_j
    # Below 8 values numpy.sum adds left to right from 0.0, so a frame's
    # per-core sums are two running totals; wider rows go through
    # pairwise_sum.
    wide = num_cores >= 8

    # -- one pass over the frames, in the scalar engine's order ----------------
    busy_max: List[float] = []
    energies: List[float] = []
    durations: List[float] = []
    average_powers: List[float] = []
    overheads: List[float] = []
    timestamps: List[float] = []
    transitions: List[DVFSTransition] = []
    previous = cluster.current_index
    now = cluster.time_s
    for row, index, deadline in zip(cycles_rows, indices, deadlines):
        frame_spc = seconds_per_cycle[index]
        # max(row) x spc is the max over the per-core products: multiplying
        # by a positive constant is monotonic under IEEE rounding.
        busy = max(row) * frame_spc
        interval = deadline if pad and deadline > busy else busy
        if wide:
            busy_times = [cycles * frame_spc for cycles in row]
            busy_sum = pairwise_sum(busy_times)
            idle_sum = pairwise_sum([interval - core_busy for core_busy in busy_times])
        else:
            busy_sum = idle_sum = 0.0
            for cycles in row:
                core_busy = cycles * frame_spc
                busy_sum += core_busy
                idle_sum += interval - core_busy
        frame_energy = (
            busy_power_w[index] * busy_sum
            + idle_power_w[index] * idle_sum
            + uncore_power_w * interval
        )
        if index != previous:
            # Scalar runs record the change stamped at the frame's start.
            transitions.append(
                DVFSTransition(now, previous, index, latency_s, transition_j)
            )
            latency, energy = latency_s, frame_energy + transition_j
        else:
            # The stored energies add a 0.0 cost here (a -0.0 becomes 0.0).
            latency, energy = 0.0, frame_energy + 0.0
        previous = index
        duration = interval + latency
        now += duration
        busy_max.append(busy)
        energies.append(energy)
        durations.append(duration)
        average_powers.append(energy / duration if duration > 0 else 0.0)
        overheads.append(0.0 if overhead_s is None else overhead_s + latency)
        timestamps.append(now)

    # -- drive the stateful sensor through the trace ---------------------------
    # The loop's timestamps accumulate left to right exactly as the scalar
    # engine's cluster clock does, starting from the cluster's current time.
    measured = cluster.power_sensor.measure_trace(average_powers, timestamps)

    # -- columnar per-frame results (records materialise lazily) ---------------
    # Every column below except the sensor's holds computed floats, so each
    # is an array('d') (a float subclass, say a numpy overhead, becomes a
    # plain float on the way in).
    frequency_mhz = [point.frequency_mhz for point in points]
    columns = FrameColumns(
        index=range(num_frames),
        operating_index=indices,
        frequency_mhz=array("d", [frequency_mhz[index] for index in indices]),
        cycles_per_core=cycles_rows,
        busy_time_s=array("d", busy_max),
        overhead_time_s=array("d", overheads),
        frame_time_s=array("d", map(add, busy_max, overheads)),
        interval_s=array("d", durations),
        deadline_s=array("d", deadlines),
        energy_j=array("d", energies),
        average_power_w=array("d", average_powers),
        measured_power_w=measured,
        temperature_c=float_column([temperature_c]) * num_frames,
        explored=[False] * num_frames,
    )
    result = SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        columns=columns,
    )

    # -- leave the cluster where a scalar run leaves it -------------------------
    sync_cluster(cluster, indices=indices, transitions=transitions, end_time_s=now)

    result.exploration_count = governor.exploration_count
    result.converged_epoch = governor.converged_epoch
    return result


def _float_row(cycles: Sequence[float], num_cores: int) -> Tuple[float, ...]:
    """One frame's per-core demand as a tuple of ``num_cores`` exact floats."""
    if len(cycles) != num_cores:
        raise SimulationError(
            f"got {len(cycles)} per-core demands for a {num_cores}-core cluster"
        )
    if type(cycles) is tuple and set(map(type, cycles)) == {float}:
        return cycles
    return tuple(map(float, cycles))


def sync_cluster(
    cluster: "Cluster",
    *,
    indices: Sequence[int],
    transitions: List[DVFSTransition],
    end_time_s: float,
) -> None:
    """Hand a run's DVFS transitions and end time over to the cluster.

    ``indices`` holds each frame's operating point.  The cluster's DVFS
    actuator still holds the run's initial point; it is handed
    ``transitions`` and moved to the last frame's point, and the clock is
    set to ``end_time_s``, the time the run's own loop reached.
    """
    cluster.dvfs.absorb_transitions(transitions, indices[-1])
    cluster.advance_time_to(end_time_s)
