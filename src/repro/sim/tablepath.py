"""Table-driven closed-loop engine — O(1) physics per frame.

The static-schedule engine in :mod:`repro.sim.fastpath` never consults a
governor, but only for governors whose schedule is knowable up front.
The paper's actual contribution — the closed-loop Q-learning RTM — and its
Linux baselines (ondemand, conservative) cannot be vectorised: frame *i*'s
operating point depends on what the governor observed during frame *i - 1*.

What *can* be precomputed is the physics.  One frame's physics is a pure
function of ``(frame, operating point, junction temperature)``, and the
temperature dependence is a *single scalar factor*:

* timing is temperature independent: a frame's critical-path busy time
  is its largest per-core demand times the point's seconds per cycle, both
  precomputed in a :class:`~repro.platform.cluster.WorkloadTable`, and the
  interval pads it to the deadline;
* core power splits into a precomputed dynamic part plus a static part
  ``V * (leak_scale * exp(k3*(T-55)) + k4)`` whose only per-frame work is
  one ``math.exp`` shared by every operating point, paid only when the
  temperature changed (see
  :func:`repro.platform.cluster._power_decomposition`);
* with the RC thermal model enabled, the state update
  ``T' = steady + (T - steady) * exp(-dt/tau)`` needs one more
  ``math.exp`` whose argument depends only on the frame duration — and
  durations repeat heavily (deadline-padded frames all share one), so the
  decay factor is memoised per distinct duration.

Leakage is always evaluated at the exact junction temperature; the loop
never writes to the table, so one table can be shared read-only across the
scenarios of a campaign through the executor's per-worker table cache.

With the thermal model disabled (the paper's setting) the temperature
never moves, so the loop pays one ``exp`` per run.  The per-frame loop is
the governor's ``decide()`` plus a handful of list lookups and the per-core
energy sum: no core model, no power-model call, no ``FrameRecord``
allocation (results are columnar, see :class:`~repro.sim.epoch.FrameColumns`).
The boundary with the governor is as cheap: one ``EpochObservation`` and
one ``FrameHint`` are reused for the whole run, their fields assigned in
place, and the charged overhead and the explored flag are one read each
of the governor's plain ``processing_overhead_s`` and
``exploration_count`` attributes per frame.

Every operation above uses the same IEEE arithmetic, in the same order, as
the scalar :meth:`Cluster.execute_workload
<repro.platform.cluster.Cluster.execute_workload>` path, so every quantity
a governor observes (busy time, interval, energy, measured power, overhead,
throttle events) is *bit-identical* to the scalar engine's — and the
stateful power sensor is *driven*, not re-implemented.  Deterministic
governors therefore make the identical decision sequence, and the run
matches the scalar engine frame by frame: identical floats, trajectories,
temperatures, miss sets, exploration counts and Q-tables
(``tests/test_engine_equivalence.py`` enforces all of this, with the
thermal model off and on).

The live :class:`~repro.platform.thermal.ThermalModel`, power sensor, DVFS
actuator and clock are left where a scalar run leaves them
(:func:`repro.sim.fastpath.sync_cluster` hands over the DVFS transitions
and the clock).  The engine is plain Python and accepts every request (see
:mod:`repro.sim.backends`).
"""

from __future__ import annotations

from array import array
from math import exp
from operator import add
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import InvalidOperatingPointError, SimulationError
from repro.platform.cluster import WorkloadTable
from repro.platform.dvfs import DVFSTransition
from repro.rtm.governor import EpochObservation, FrameHint
from repro.sim import fastpath
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.config import SimulationConfig
    from repro.workload.application import Application

#: Signature of a table provider: builds (or fetches from a cache) the
#: precomputed :class:`WorkloadTable` for one (cluster, application, config).
TableProvider = Callable[["Cluster", "Application", "SimulationConfig"], WorkloadTable]


def precompute_tables(
    cluster: "Cluster", application: "Application", config: "SimulationConfig"
) -> WorkloadTable:
    """Precompute the (frame, operating point) physics tables for one run.

    Thin wrapper over :meth:`Cluster.execute_workload_table` that extracts
    the frame trace from ``application``.  The returned table depends only
    on the trace, the cluster's physical constants and
    ``config.idle_until_deadline`` — it is read-only and reusable across
    runs and across governors sharing those, which the campaign executor's
    per-worker cache exploits.
    """
    num_cores = cluster.num_cores
    cycles = application.cycles_per_core(num_cores)
    deadlines = [frame.deadline_s for frame in application]
    return cluster.execute_workload_table(
        cycles, deadlines, idle_until_deadline=config.idle_until_deadline
    )


def simulate_closed_loop(
    cluster: "Cluster",
    application: "Application",
    governor: "Governor",
    config: "SimulationConfig",
    tables: Optional[WorkloadTable] = None,
) -> SimulationResult:
    """Run the closed governor loop with table-driven physics.

    The cluster is used as-is (the caller resets it first, exactly as the
    scalar engine does) and is left in the state a scalar run leaves it in:
    clock advanced, power sensor stepped through every frame, DVFS actuator
    holding the same transition history, thermal model holding the
    trajectory's final temperature and throttle-event count.

    ``tables`` may be supplied by a caller that cached them (see
    :func:`precompute_tables`); they are validated against the cluster's
    physics before use and rebuilt on mismatch.
    """
    num_frames = application.num_frames
    if num_frames == 0:
        raise SimulationError("cannot simulate an application with no frames")
    if (
        tables is None
        or not isinstance(tables, WorkloadTable)
        or tables.num_frames != num_frames
        or not tables.matches(cluster, config.idle_until_deadline)
    ):
        tables = precompute_tables(cluster, application, config)

    num_points = tables.num_points
    cycles_tuples = tables.cycles_tuples
    deadlines = tables.deadlines_s.tolist()
    max_cycles = tables.max_cycles
    seconds_per_cycle = tables.seconds_per_cycle
    pad_to_deadline = tables.idle_until_deadline
    idle_at_min_opp = tables.idle_at_min_opp
    uncore_power_w = tables.uncore_power_w

    # Power decomposition: one exp of the temperature per distinct value.
    dynamic_busy = tables.dynamic_busy_w
    dynamic_idle = tables.dynamic_idle_w
    leak_scale = tables.leak_scale_a
    voltages = tables.voltages_v
    leakage_k3 = tables.leakage_k3_per_c
    leakage_k4 = tables.leakage_k4_a

    thermal_model = cluster.thermal_model
    thermal_enabled = thermal_model.enabled
    ambient_c = tables.ambient_c
    resistance = tables.resistance_c_per_w
    throttle_c = tables.throttle_c
    # tau is recomputed per step by the scalar model; the product is
    # deterministic, so hoisting it preserves bit-identity.
    tau = tables.resistance_c_per_w * tables.capacitance_j_per_c
    decay_cache: Dict[float, float] = {}
    temperature = thermal_model.temperature_c
    theta = 0.0
    theta_temperature: Optional[float] = None
    throttle_total = 0

    dvfs = cluster.dvfs
    latency_s = dvfs.transition_latency_s
    transition_energy_j = dvfs.transition_energy_j
    sensor_measure = cluster.power_sensor.measure_w
    charge_overhead = config.charge_governor_overhead
    decide = governor.decide

    # One reusable FrameHint / EpochObservation, assigned in place (both are
    # documented as valid only inside the decide() call they are passed to).
    hint = FrameHint(cycles_per_core=cycles_tuples[0], deadline_s=deadlines[0])

    current = cluster.current_index
    time_s = cluster.time_s
    previous: Optional[EpochObservation] = None
    previous_exploration = governor.exploration_count
    transitions: List[DVFSTransition] = []

    # Column accumulators: lists of native scalars, which FrameColumns turns
    # into array('d') columns where every value is a float.
    col_opp: List[int] = []
    col_busy: List[float] = []
    col_overhead: List[float] = []
    col_duration: List[float] = []
    col_energy: List[float] = []
    col_power: List[float] = []
    col_measured: List[float] = []
    col_temperature: List[float] = []
    col_explored: List[bool] = []
    opp_append = col_opp.append
    busy_append = col_busy.append
    overhead_append = col_overhead.append
    duration_append = col_duration.append
    energy_append = col_energy.append
    power_append = col_power.append
    measured_append = col_measured.append
    temperature_append = col_temperature.append
    explored_append = col_explored.append

    frame_rows = zip(cycles_tuples, max_cycles, deadlines)
    for frame_index, (cycles, frame_max_cycles, deadline) in enumerate(frame_rows):
        hint.cycles_per_core = cycles
        hint.deadline_s = deadline

        index = decide(previous, hint)
        if index != current:
            if not 0 <= index < num_points:
                raise InvalidOperatingPointError(
                    f"operating-point index {index} out of range (0..{num_points - 1})"
                )
            transitions.append(
                DVFSTransition(time_s, current, index, latency_s, transition_energy_j)
            )
            current = index
            transition_latency = latency_s
            frame_transition_energy = transition_energy_j
        else:
            transition_latency = 0.0
            frame_transition_energy = 0.0

        # Same operations the scalar engine performs: one multiply by the
        # hoisted reciprocal, one max against the deadline.
        spc = seconds_per_cycle[index]
        busy = frame_max_cycles * spc
        if pad_to_deadline and deadline > busy:
            interval = deadline
        else:
            interval = busy

        # Per-core powers at the start-of-frame junction temperature,
        # mirroring Cluster.core_power_w exactly through the one-exp
        # decomposition of the exact leakage evaluation.
        idle_index = 0 if idle_at_min_opp else index
        if temperature != theta_temperature:
            theta = exp(leakage_k3 * (temperature - 55.0))
            theta_temperature = temperature
        busy_power = dynamic_busy[index] + voltages[index] * (
            leak_scale[index] * theta + leakage_k4
        )
        idle_power = dynamic_idle[idle_index] + voltages[idle_index] * (
            leak_scale[idle_index] * theta + leakage_k4
        )

        # Core energy accumulated core by core in scalar summation order;
        # the scalar idle clamp max(0, interval - busy) is a numerical no-op
        # because busy <= busy_max <= interval for the chosen point.
        core_energy = 0.0
        for core_cycles in cycles:
            core_busy = core_cycles * spc
            core_energy += busy_power * core_busy + idle_power * (interval - core_busy)
        energy = core_energy + uncore_power_w * interval + frame_transition_energy
        duration = interval + transition_latency
        power = energy / duration if duration > 0 else 0.0

        # RC state update with the scalar model's exact operations; the
        # decay factor depends only on the duration and is memoised.
        frame_throttle = 0
        if thermal_enabled and duration > 0:
            steady = ambient_c + power * resistance
            decay = decay_cache.get(duration)
            if decay is None:
                decay = exp(-duration / tau)
                decay_cache[duration] = decay
            temperature = steady + (temperature - steady) * decay
            if temperature >= throttle_c:
                throttle_total += 1
                frame_throttle = 1

        time_s += duration
        measured = sensor_measure(power, time_s)

        if charge_overhead:
            overhead = governor.processing_overhead_s + transition_latency
        else:
            overhead = 0.0

        exploration = governor.exploration_count
        explored = exploration > previous_exploration
        previous_exploration = exploration

        if previous is None:
            previous = EpochObservation(
                frame_index,
                cycles,
                busy,
                duration,
                deadline,
                index,
                energy,
                measured,
                overhead,
                frame_throttle,
            )
        else:
            previous.epoch_index = frame_index
            previous.cycles_per_core = cycles
            previous.busy_time_s = busy
            previous.interval_s = duration
            previous.reference_time_s = deadline
            previous.operating_index = index
            previous.energy_j = energy
            previous.measured_power_w = measured
            previous.overhead_time_s = overhead
            previous.throttle_events = frame_throttle
        opp_append(index)
        busy_append(busy)
        overhead_append(overhead)
        duration_append(duration)
        energy_append(energy)
        power_append(power)
        measured_append(measured)
        temperature_append(temperature)
        explored_append(explored)

    # -- columnar result (records materialise lazily) --------------------------
    frequencies_mhz = tables.frequencies_mhz
    columns = FrameColumns(
        index=range(num_frames),
        operating_index=col_opp,
        frequency_mhz=array("d", [frequencies_mhz[index] for index in col_opp]),
        cycles_per_core=cycles_tuples,
        busy_time_s=col_busy,
        overhead_time_s=col_overhead,
        frame_time_s=array("d", map(add, col_busy, col_overhead)),
        interval_s=col_duration,
        deadline_s=array("d", deadlines),
        energy_j=col_energy,
        average_power_w=col_power,
        measured_power_w=col_measured,
        temperature_c=col_temperature,
        explored=col_explored,
    )
    result = SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        columns=columns,
    )

    # -- leave the cluster where a scalar run leaves it -------------------------
    fastpath.sync_cluster(
        cluster, indices=col_opp, transitions=transitions, end_time_s=time_s
    )
    thermal_model.absorb_state(temperature, throttle_total)

    result.exploration_count = governor.exploration_count
    result.converged_epoch = governor.converged_epoch
    return result

