"""Cluster model: several cores sharing one voltage-frequency domain.

On the Exynos 5422 (ODROID-XU3) all four A15 cores share a single clock and
voltage rail, which is why the paper's many-core formulation controls the
*cluster* operating point rather than per-core points.  The cluster ties
together the cores, the DVFS actuator, the power model, the thermal model
and the power sensor, and exposes the single high-level operation the
simulator needs: *execute this per-core cycle demand at the current
operating point and tell me how long it took and how much energy it cost*.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._compat import SLOTS, left_sum
from repro.errors import PlatformError
from repro.platform.core import Core, CoreExecutionResult
from repro.platform.dvfs import DVFSActuator, DVFSTransition
from repro.platform.power import PowerModel
from repro.platform.sensors import EnergyMeter, PowerSensor
from repro.platform.thermal import ThermalModel
from repro.platform.vf_table import OperatingPoint, VFTable


def _power_decomposition(
    power_model: PowerModel, points: Sequence[OperatingPoint]
) -> Tuple[List[float], List[float], List[float], List[float]]:
    """Split per-point core power into its temperature-(in)dependent parts.

    ``core_power_w(point, u, T)`` is ``dynamic(point, u) + static(point, T)``
    with ``static = V * (k1 * exp(k2*V) * exp(k3*(T-55)) + k4)``.  Everything
    except the single ``exp(k3*(T-55))`` factor is constant per operating
    point, so precomputing ``dynamic`` (busy and idle) and the leakage scale
    ``k1 * exp(k2*V)`` — with the exact operations, in the exact order, of
    :meth:`PowerModel.static_power_w` — lets the table engine
    reproduce the scalar power path bit for bit at one ``math.exp`` per
    frame instead of two per power lookup.

    Returns ``(dynamic_busy_w, dynamic_idle_w, leak_scale_a, voltages_v)``.
    """
    params = power_model.parameters
    dynamic_busy = [power_model.dynamic_power_w(point, 1.0) for point in points]
    dynamic_idle = [power_model.dynamic_power_w(point, 0.0) for point in points]
    leak_scale = [
        params.leakage_k1_a * math.exp(params.leakage_k2_per_v * point.voltage_v)
        for point in points
    ]
    voltages = [point.voltage_v for point in points]
    return dynamic_busy, dynamic_idle, leak_scale, voltages


class WorkloadTable:
    """Precomputed physics of a frame trace over every operating point.

    Produced by :meth:`Cluster.execute_workload_table`.  Leakage power
    depends on the junction temperature, which the RC thermal model moves
    frame by frame, so the table precomputes everything *except* the
    leakage-temperature coupling:

    * the timing inputs, which are temperature-independent: each frame's
      largest per-core demand (``max_cycles``) and deadline, and each
      point's seconds per cycle, whose product is the frame's critical-path
      busy time at that point;
    * the power decomposition of :func:`_power_decomposition`, which reduces
      per-frame power evaluation to one ``math.exp`` shared by every
      operating point, so leakage is always evaluated at the exact
      junction temperature.

    A table is read-only once built: engines only read it, so a campaign
    worker can share one table across scenarios and governors.

    DVFS transition costs are not baked in: they depend on the previous
    frame's decision and are two constants the consumer adds per
    transition.  Every derived quantity uses the same IEEE operations, in
    the same order, as the scalar :meth:`Cluster.execute_workload` path, so
    engines driving this table reproduce scalar trajectories bit for bit,
    with the thermal model enabled or not (see :mod:`repro.sim.tablepath`).
    """

    __slots__ = (
        "num_frames",
        "num_cores",
        "num_points",
        "idle_until_deadline",
        "idle_at_min_opp",
        "uncore_power_w",
        "seconds_per_cycle",
        "frequencies_hz",
        "frequencies_mhz",
        "cycles_tuples",
        "max_cycles",
        "deadlines_s",
        "dynamic_busy_w",
        "dynamic_idle_w",
        "leak_scale_a",
        "voltages_v",
        "leakage_k3_per_c",
        "leakage_k4_a",
        "ambient_c",
        "resistance_c_per_w",
        "capacitance_j_per_c",
        "throttle_c",
    )

    def __init__(self, **attributes: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, attributes.pop(name))
        if attributes:
            raise PlatformError(f"unknown WorkloadTable attributes: {sorted(attributes)}")

    def matches(self, cluster: "Cluster", idle_until_deadline: bool) -> bool:
        """Cheap soundness check that this table describes ``cluster``'s physics.

        O(num_points): compares the timing constants, the power
        decomposition and the thermal RC constants, so a cached table can be
        validated on every reuse.  The frame trace itself is trusted to the
        cache key.
        """
        table = cluster.vf_table
        thermal = cluster.thermal_model.parameters
        if (
            self.num_cores != cluster.num_cores
            or self.num_points != len(table)
            or self.idle_until_deadline != idle_until_deadline
            or self.idle_at_min_opp != cluster.idle_at_min_opp
            or self.uncore_power_w != cluster.power_model.parameters.uncore_power_w
            or self.ambient_c != thermal.ambient_c
            or self.resistance_c_per_w != thermal.resistance_c_per_w
            or self.capacitance_j_per_c != thermal.capacitance_j_per_c
            or self.throttle_c != thermal.throttle_c
        ):
            return False
        if self.seconds_per_cycle != [p.seconds_per_cycle for p in table.points]:
            return False
        params = cluster.power_model.parameters
        if (
            self.leakage_k3_per_c != params.leakage_k3_per_c
            or self.leakage_k4_a != params.leakage_k4_a
        ):
            return False
        dynamic_busy, dynamic_idle, leak_scale, voltages = _power_decomposition(
            cluster.power_model, table.points
        )
        return (
            self.dynamic_busy_w == dynamic_busy
            and self.dynamic_idle_w == dynamic_idle
            and self.leak_scale_a == leak_scale
            and self.voltages_v == voltages
        )


@dataclass(frozen=True, **SLOTS)
class ClusterExecutionResult:
    """Outcome of executing one frame's worth of work on a cluster.

    Attributes
    ----------
    duration_s:
        Wall-clock time of the interval (time of the slowest core, plus any
        DVFS transition stall charged to this interval).
    energy_j:
        Total energy consumed over the interval, including idle cores,
        uncore power and DVFS transition energy.
    average_power_w:
        ``energy_j / duration_s`` (0 when the interval is empty).
    operating_point:
        The operating point the work ran at.
    operating_index:
        Index of that operating point in the cluster's table.
    core_results:
        Per-core execution details.
    measured_power_w:
        Power as reported by the (quantised, sampled) on-board sensor.
    temperature_c:
        Junction temperature at the end of the interval.
    max_busy_cycles:
        Largest per-core busy cycle count in the interval (the quantity the
        paper's RTM treats as the observed workload).
    total_busy_cycles:
        Sum of busy cycles over all cores.
    throttle_events:
        Number of thermal-model steps during the interval that ended at or
        above the throttle threshold (0 with the thermal model disabled).
        This is what makes a throttling decision taken mid-epoch visible to
        the per-epoch observation a governor receives.
    """

    duration_s: float
    energy_j: float
    average_power_w: float
    operating_point: OperatingPoint
    operating_index: int
    core_results: Sequence[CoreExecutionResult]
    measured_power_w: float
    temperature_c: float
    max_busy_cycles: float
    total_busy_cycles: float
    throttle_events: int = 0


class Cluster:
    """A set of cores sharing a single DVFS domain.

    Parameters
    ----------
    idle_at_min_opp:
        If True (default) the idle portion of an interval is charged at the
        table's slowest operating point, modelling the cpuidle/WFI behaviour
        of the real platform where an idle core is clock-gated regardless of
        the cluster's DVFS setting.  If False, idle time is charged at the
        active operating point (pessimistic, no idle states).

    The sensor and meter keep running totals and the last conversion only;
    a run's per-frame readings live in its result's frame columns.

    Core power is always evaluated at the exact junction temperature (see
    :meth:`core_power_w`).  With the thermal model disabled (the paper's
    setting) the temperature is constant, so every busy/idle power is one
    of ``2 × #OPPs`` values and an exact memo turns the scalar engine's
    per-frame leakage evaluation into two dict reads.
    """

    def __init__(
        self,
        name: str,
        cores: Sequence[Core],
        vf_table: VFTable,
        power_model: Optional[PowerModel] = None,
        thermal_model: Optional[ThermalModel] = None,
        power_sensor: Optional[PowerSensor] = None,
        dvfs: Optional[DVFSActuator] = None,
        idle_at_min_opp: bool = True,
    ) -> None:
        if not cores:
            raise PlatformError("a cluster requires at least one core")
        self.name = name
        self.cores: List[Core] = list(cores)
        self.vf_table = vf_table
        self.power_model = power_model or PowerModel()
        self.thermal_model = thermal_model or ThermalModel(enabled=False)
        self.power_sensor = power_sensor or PowerSensor()
        self.dvfs = dvfs or DVFSActuator(table=vf_table)
        self.idle_at_min_opp = idle_at_min_opp
        self.energy_meter = EnergyMeter()
        self._power_cache: Dict[Tuple[int, bool, float], float] = {}
        self._time_s = 0.0

    # -- introspection ---------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Number of cores in the cluster."""
        return len(self.cores)

    @property
    def current_index(self) -> int:
        """Index of the active operating point."""
        return self.dvfs.current_index

    @property
    def current_point(self) -> OperatingPoint:
        """The active operating point."""
        return self.dvfs.current_point

    @property
    def time_s(self) -> float:
        """Platform time accumulated by this cluster."""
        return self._time_s

    @property
    def total_energy_j(self) -> float:
        """Total true energy consumed by the cluster so far."""
        return self.energy_meter.energy_j

    # -- power cache -----------------------------------------------------------
    def core_power_w(self, index: int, busy: bool, temperature_c: float) -> float:
        """Single-core power at operating point ``index`` and ``temperature_c``.

        ``busy`` selects utilisation 1.0 (executing) vs 0.0 (clocked idle).
        While the thermal model is disabled the temperature never moves, so
        values are memoised on the exact ``(index, busy, temperature)`` key:
        a hit is bit-identical to a direct evaluation, and the memo holds at
        most ``2 × #OPPs`` entries per temperature.  With the thermal model
        enabled the temperature moves every frame, so the power model is
        evaluated directly.  The memo assumes ``power_model`` is not mutated
        after construction; call :meth:`invalidate_power_cache` if it is.
        """
        if self.thermal_model.enabled:
            return self.power_model.core_power_w(
                self.vf_table[index], 1.0 if busy else 0.0, temperature_c
            )
        key = (index, busy, temperature_c)
        value = self._power_cache.get(key)
        if value is None:
            value = self.power_model.core_power_w(
                self.vf_table[index], 1.0 if busy else 0.0, temperature_c
            )
            self._power_cache[key] = value
        return value

    def invalidate_power_cache(self) -> None:
        """Drop all cached power values (after mutating ``power_model``)."""
        self._power_cache.clear()

    # -- control ---------------------------------------------------------------
    def set_operating_index(self, index: int) -> DVFSTransition:
        """Request operating point ``index`` (the governor-facing knob)."""
        return self.dvfs.request(index, timestamp_s=self._time_s)

    def set_frequency(self, frequency_hz: float) -> DVFSTransition:
        """Request the slowest operating point at least as fast as ``frequency_hz``."""
        return self.dvfs.request_frequency(frequency_hz, timestamp_s=self._time_s)

    # -- execution ---------------------------------------------------------------
    def execute_workload(
        self,
        cycles_per_core: Sequence[float],
        minimum_interval_s: float = 0.0,
        pending_transition: Optional[DVFSTransition] = None,
    ) -> ClusterExecutionResult:
        """Execute one frame of work at the current operating point.

        Parameters
        ----------
        cycles_per_core:
            Busy-cycle demand for each core.  Shorter sequences are padded
            with zeros; longer sequences are an error.
        minimum_interval_s:
            If the work finishes before this time, the cluster idles (at the
            current operating point) until it has elapsed.  This is how a
            frame that beats its deadline still accounts for a full frame
            period of idle power when the application is rate-limited.
        pending_transition:
            A DVFS transition whose latency/energy should be charged to this
            interval (i.e. the governor changed the operating point at the
            start of the frame).
        """
        demands = list(cycles_per_core)
        if len(demands) > self.num_cores:
            raise PlatformError(
                f"got {len(demands)} per-core demands for a {self.num_cores}-core cluster"
            )
        demands += [0.0] * (self.num_cores - len(demands))
        point = self.current_point
        index = self.current_index

        busy_times = [point.time_for_cycles(c) for c in demands]
        interval_s = max(max(busy_times), minimum_interval_s)
        transition_latency = pending_transition.latency_s if pending_transition else 0.0
        transition_energy = pending_transition.energy_j if pending_transition else 0.0

        core_results = [
            core.execute(cycles, point, interval_s)
            for core, cycles in zip(self.cores, demands)
        ]
        temperature = self.thermal_model.temperature_c
        idle_index = 0 if self.idle_at_min_opp else index

        # Per-core energy: busy time at the active operating point, idle time
        # at the idle point (cpuidle / WFI clock gating).  Uncore power is
        # charged for the whole interval.
        busy_power_w = self.core_power_w(index, True, temperature)
        idle_power_w = self.core_power_w(idle_index, False, temperature)
        core_energy_j = left_sum(
            busy_power_w * result.busy_time_s + idle_power_w * result.idle_time_s
            for result in core_results
        )
        uncore_energy_j = self.power_model.parameters.uncore_power_w * interval_s

        duration_s = interval_s + transition_latency
        energy_j = core_energy_j + uncore_energy_j + transition_energy
        true_average_power = energy_j / duration_s if duration_s > 0 else 0.0

        # Advance the thermal state using the power actually drawn; the
        # throttle-event delta makes mid-epoch threshold crossings visible.
        throttle_events_before = self.thermal_model.throttle_events
        temperature = self.thermal_model.step(true_average_power, duration_s)
        throttle_events = self.thermal_model.throttle_events - throttle_events_before

        # The on-board sensor sees the average rail power for the interval.
        measured_power_w = self.power_sensor.measure_w(
            true_average_power, self._time_s + duration_s
        )

        self.energy_meter.add_interval(
            (core_energy_j + uncore_energy_j) / interval_s if interval_s > 0 else 0.0,
            interval_s,
        )
        self.energy_meter.add_energy(transition_energy)
        self._time_s += duration_s

        return ClusterExecutionResult(
            duration_s=duration_s,
            energy_j=energy_j,
            average_power_w=true_average_power,
            operating_point=point,
            operating_index=index,
            core_results=core_results,
            measured_power_w=measured_power_w,
            temperature_c=temperature,
            max_busy_cycles=max(demands),
            total_busy_cycles=sum(demands),
            throttle_events=throttle_events,
        )

    def idle(self, duration_s: float) -> ClusterExecutionResult:
        """Let the cluster sit idle for ``duration_s`` at the current point."""
        return self.execute_workload([0.0] * self.num_cores, minimum_interval_s=duration_s)

    def execute_workload_table(
        self,
        cycles_per_core: Sequence[Sequence[float]],
        deadlines_s: Sequence[float],
        idle_until_deadline: bool = True,
    ) -> WorkloadTable:
        """Precompute a trace's physics over every operating point.

        For a trace of ``num_frames`` frames (``cycles_per_core[frame]`` is
        the per-core cycle demand, ``deadlines_s[frame]`` the minimum
        interval when ``idle_until_deadline``), the table carries the
        temperature-independent timing inputs (each frame's largest demand
        and deadline, each point's seconds per cycle) plus the power
        decomposition that reduces per-frame power
        evaluation to a single ``math.exp`` (see
        :func:`_power_decomposition`).  Valid whether or not the thermal
        model is enabled (the consuming engine mirrors the live model's
        behaviour either way).
        """
        num_frames = len(cycles_per_core)
        if num_frames != len(deadlines_s):
            raise PlatformError("cycles_per_core and deadlines_s must have equal length")
        num_cores = self.num_cores
        cycles_tuples = [tuple(row) for row in cycles_per_core]
        for row in cycles_tuples:
            if len(row) != num_cores:
                raise PlatformError(
                    f"got {len(row)} per-core demands for a {num_cores}-core cluster"
                )
        points = self.vf_table.points
        params = self.power_model.parameters
        thermal = self.thermal_model.parameters
        dynamic_busy, dynamic_idle, leak_scale, voltages = _power_decomposition(
            self.power_model, points
        )
        return WorkloadTable(
            num_frames=num_frames,
            num_cores=num_cores,
            num_points=len(points),
            idle_until_deadline=idle_until_deadline,
            idle_at_min_opp=self.idle_at_min_opp,
            uncore_power_w=params.uncore_power_w,
            seconds_per_cycle=[p.seconds_per_cycle for p in points],
            frequencies_hz=self.vf_table.frequencies_hz,
            frequencies_mhz=[p.frequency_mhz for p in points],
            cycles_tuples=cycles_tuples,
            # Critical-path time is max_cycles x seconds_per_cycle: identical
            # to the max over per-core products, because multiplying by a
            # positive constant is monotonic under IEEE rounding.
            max_cycles=[max(row) for row in cycles_tuples],
            deadlines_s=array("d", deadlines_s),
            dynamic_busy_w=dynamic_busy,
            dynamic_idle_w=dynamic_idle,
            leak_scale_a=leak_scale,
            voltages_v=voltages,
            leakage_k3_per_c=params.leakage_k3_per_c,
            leakage_k4_a=params.leakage_k4_a,
            ambient_c=thermal.ambient_c,
            resistance_c_per_w=thermal.resistance_c_per_w,
            capacitance_j_per_c=thermal.capacitance_j_per_c,
            throttle_c=thermal.throttle_c,
        )

    def advance_time(self, duration_s: float) -> None:
        """Advance the cluster clock by ``duration_s`` without executing work.

        Used by the engines that bypass the cluster model, which account
        energy and PMU activity in aggregate and then move the clock once
        for the whole trace (:func:`repro.sim.fastpath.sync_cluster`).
        """
        if duration_s < 0:
            raise PlatformError(f"duration must be non-negative, got {duration_s}")
        self._time_s += duration_s

    # -- lifecycle ---------------------------------------------------------------
    def reset(self, operating_index: Optional[int] = None) -> None:
        """Reset all state: PMUs, meters, sensor, thermal and DVFS history.

        ``operating_index`` selects the operating point after the reset;
        ``None`` returns the cluster to its power-on default (the fastest
        point).  The sensor's noise stream restarts from its seed, so
        back-to-back simulation runs start from identical state.
        """
        for core in self.cores:
            core.pmu.reset()
        self.energy_meter.reset()
        self.power_sensor.reset()
        self.thermal_model.reset()
        if operating_index is None:
            operating_index = len(self.vf_table) - 1
        self.dvfs.reset(operating_index)
        self._time_s = 0.0

    def __repr__(self) -> str:
        return (
            f"Cluster(name={self.name!r}, cores={self.num_cores}, "
            f"opps={len(self.vf_table)})"
        )
