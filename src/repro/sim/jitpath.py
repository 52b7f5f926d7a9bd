"""Compiled (numba JIT) closed-loop engine for the paper's frame governors.

The table-driven engine (:mod:`repro.sim.tablepath`) reduced the
per-frame physics to O(1) table lookups, but every frame still pays Python
bytecode dispatch for the governor's ``decide()`` and — for the RL family —
a chain of small-object operations (deque update, reward arithmetic, Q-row
scans, ε bookkeeping).
This module moves the *entire* frame loop into one numba ``@njit`` kernel
operating on the precomputed ``(frame x operating-point)`` tables: the
threshold governors' decide logic (ondemand's proportional scale-down with
hold windows, conservative's stepper), the RL chain (slack tracking ->
reward -> state discretisation -> Bellman update -> ε-greedy selection with
the EPD/UPD exploration policies), the sampled/quantised power sensor, and
the thermal one-exp leakage + RC-decay update.

Bit-identity to the scalar reference is the contract, not a tolerance:

* every floating-point operation is performed in the same order with the
  same IEEE semantics as the scalar/table engines (LLVM does not reassociate
  float arithmetic without ``fastmath``, which this module never enables);
* the agent's ``random.Random`` stream is preserved exactly — uniforms are
  pre-drawn host-side from the live generator, the kernel consumes them in
  the order ``QLearningAgent.update`` then ``select_action`` would, and the
  generator is rewound and replayed to the consumed count afterwards;
* all governor/sensor/thermal hidden state is read before the kernel and
  written back afterwards, so a jitpath run leaves the governor, cluster,
  sensor and thermal model exactly as a scalar run would.

numba is optional (the ``jit`` packaging extra).  Without it — or with the
``REPRO_DISABLE_JIT`` kill-switch set — the engine ladder
(:func:`repro.sim.backends.rejection_reason`) drops this backend out of
negotiation without importing this module, and behaviour is identical to
a build without it.  The kernels themselves are plain Python functions
over numpy arrays; ``@njit`` is applied only when numba is importable, so
the same code runs (slowly, but bit-identically) in interpreted mode —
which is exactly how the equivalence suite exercises it on numba-less
machines.

Supported requests (anything else is rejected during negotiation and falls
through to ``tablepath``/``scalar``):

* governors: exactly ``OndemandGovernor``, ``ConservativeGovernor`` or
  ``RLGovernor`` (subclasses may override hooks the kernel inlines, so they
  are *not* accepted);
* sensors: noiseless (the INA231 default) — Gaussian noise draws cannot be
  replicated in-kernel.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

try:  # NumPy is optional: without it every run takes the scalar engine.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None  # type: ignore[assignment]

from repro import _compat
from repro.errors import SimulationError
from repro.governors.conservative import ConservativeGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.platform.cluster import WorkloadTable
from repro.platform.dvfs import DVFSTransition
from repro.rtm.exploration import ExponentialPolicy, UniformPolicy
from repro.rtm.rl_governor import RLGovernor
from repro.sim import fastpath, tablepath
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.config import SimulationConfig
    from repro.workload.application import Application

__all__ = [
    "available",
    "compiled",
    "simulate_closed_loop",
    "unsupported_reason",
]


def _resolve_njit():
    """The ``numba.njit`` decorator when the compiled path is usable, else None.

    Resolved once at import: compiling kernels is a per-process decision
    (recompiling on an env flip mid-process would invalidate nothing but
    cost seconds).  Negotiation stays dynamic:
    :func:`repro.sim.backends.rejection_reason` reads
    :data:`repro._compat.HAVE_NUMBA` and the kill-switch per call, so tests
    can monkeypatch them — the kernels then simply run in interpreted
    mode, which is bit-identical.
    """
    if _np is None or not _compat.HAVE_NUMBA or _compat.jit_disabled():
        return None
    try:
        from numba import njit
    except Exception:  # pragma: no cover - probe said importable, import failed
        return None
    return njit


_NJIT = _resolve_njit()


def _jit(func):
    """Apply ``@njit(cache=True)`` when compiling, otherwise return ``func``.

    ``fastmath`` stays off: reassociation would break the bit-identity
    contract.  ``cache=True`` persists compiled kernels across processes
    (honouring ``NUMBA_CACHE_DIR``), so campaigns and CI pay the compile
    once per machine, not once per run.
    """
    if _NJIT is None:
        return func
    return _NJIT(cache=True, fastmath=False)(func)


def compiled() -> bool:
    """True when the kernels in this process are numba-compiled."""
    return _NJIT is not None


def static_processing_overhead(governor: "Governor") -> Optional[float]:
    """The governor's per-epoch overhead when hoistable, else ``None``.

    The ondemand and conservative kernels charge one constant overhead per
    frame.  Hoisting it is safe exactly when ``processing_overhead_s``
    resolves to a plain float class attribute that is not shadowed on the
    instance (learning governors write it on the instance in every
    ``decide()``; the RL kernel carries that value itself).
    """
    descriptor = getattr(type(governor), "processing_overhead_s", None)
    if not isinstance(descriptor, float):
        return None
    instance_dict = getattr(governor, "__dict__", None)
    if instance_dict is not None and "processing_overhead_s" in instance_dict:
        return None
    return descriptor


def unsupported_reason(
    cluster: "Cluster", governor: "Governor"
) -> Optional[str]:
    """Why the kernel cannot run this (cluster, governor), or None if it can.

    The kernel inlines the three paper governors' decide logic and the
    sensor's noiseless measurement path, so it must reject anything whose
    behaviour it cannot replicate bit-for-bit.  Exact-type checks are
    deliberate: a subclass may override any of the methods the kernel
    inlines (``decide``, the policy ``sample``), and such a governor must
    fall through to the generic table engines.
    """
    gtype = type(governor)
    if gtype is OndemandGovernor or gtype is ConservativeGovernor:
        if static_processing_overhead(governor) is None:
            return (
                f"governor {governor.name!r} shadows processing_overhead_s "
                f"on the instance, which the kernel cannot hoist"
            )
    elif gtype is not RLGovernor:
        return (
            f"no compiled kernel for governor {governor.name!r} "
            f"(exactly ondemand, conservative or rl)"
        )
    sensor = cluster.power_sensor
    if sensor.noise_stddev_w > 0:
        return "the kernel cannot replicate Gaussian sensor noise draws"
    return None


# ---------------------------------------------------------------------------
# Kernel parameter packing.
#
# njit kernels take a fixed argument list; the many scalar knobs travel in
# two flat arrays (float64 / int64) indexed by the named constants below.
# Slots marked "in/out" are read at kernel entry and written back at exit,
# carrying the mutable scalar state (clock, temperature, ε, counters) out of
# the kernel without a second return path.
# ---------------------------------------------------------------------------

_F_TIME = 0  # in/out: cluster clock
_F_LATENCY = 1
_F_TRANS_ENERGY = 2
_F_SAMPLE_PERIOD = 3
_F_RESOLUTION = 4
_F_STATIC_OVERHEAD = 5
_F_UP_THRESHOLD = 6
_F_MIN_FREQ = 7
_F_DOWN_THRESHOLD = 8
_F_K3 = 9
_F_K4 = 10
_F_UNCORE = 11
_F_AMBIENT = 12
_F_RESISTANCE = 13
_F_TAU = 14
_F_THROTTLE_C = 15
_F_TEMPERATURE = 16  # in/out: junction temperature
_F_LEARNING_RATE = 17
_F_DISCOUNT = 18
_F_EPSILON = 19  # in/out
_F_EPS_ALPHA = 20
_F_EPS_MIN = 21
_F_TREF = 22
_F_SLACK_WEIGHT = 23
_F_DELTA_WEIGHT = 24
_F_MISS_WEIGHT = 25
_F_OVERPERF = 26
_F_TARGET_SLACK = 27
_F_BETA = 28
_F_OH_LEARNING = 29
_F_OH_EXPLOIT = 30
_F_RUNNING_SUM = 31  # in/out: cumulative slack sum (window=None mode)
_F_S_LOWER = 32
_F_S_SPAN = 33
_F_LAST_OVERHEAD = 34  # out: last decide's overhead (sans transition latency)
_F_COUNT = 35

_I_KIND = 0  # 0 = ondemand, 1 = conservative, 2 = rl
_I_THERMAL_ENABLED = 1
_I_PAD = 2
_I_INITIAL_INDEX = 3
_I_CHARGE_OVERHEAD = 4
_I_IDLE_AT_MIN = 5
_I_HOLD = 6  # in/out: ondemand hold-at-max countdown
_I_SAMPLING_DOWN = 7
_I_FREQ_STEP = 8
_I_DECAY_ON_ANY = 9
_I_POLICY_KIND = 10  # 0 = EPD, 1 = uniform
_I_SELECTION_COUNT = 11  # in/out
_I_EXPLOITATION_START = 12  # in/out (-1 encodes None)
_I_EXPLORATION_DRAWS = 13  # in/out
_I_UPDATE_COUNT = 14  # in/out
_I_LAST_CHANGED = 15  # in/out
_I_PENDING_STATE = 16  # in: frame-0 state; out: final pending state
_I_PENDING_ACTION = 17  # in/out
_I_SLACK_WINDOW = 18  # 0 = cumulative (eq. 5 literally)
_I_SLACK_LEVELS = 19
_I_CONV_WINDOW = 20
_I_CONV_EPOCH = 21  # in/out
_I_CONV_LAST_UNSTABLE = 22  # in/out
_I_CONV_CONVERGED = 23  # in/out (-1 encodes None)
_I_PREV_EXPLORATION = 24  # in/out: explored-column poll state
_I_FROZEN = 25  # in/out
_I_TRANS_COUNT = 26  # out
_I_THROTTLE_TOTAL = 27  # in/out
_I_CONSUMED = 28  # out: pre-drawn uniforms consumed
_I_COUNT = 29


# ---------------------------------------------------------------------------
# Kernels.  Plain Python over numpy arrays; @_jit compiles them when numba
# is present.  Every arithmetic statement mirrors a specific line of the
# scalar/table engines — comments name the source where the order matters.
# ---------------------------------------------------------------------------


@_jit
def _sensor_measure(power, time_s, sensor_state, sample_period, resolution):
    """One noiseless ``PowerSensor.measure_w`` conversion.

    ``sensor_state`` is ``[has_last, last_time, last_power]``; holdover
    returns the previous conversion without touching the state, exactly as
    the live sensor does.
    """
    if sensor_state[0] != 0.0 and time_s - sensor_state[1] < sample_period:
        return sensor_state[2]
    measured = power
    if resolution > 0.0:
        # Python round() is round-half-even on floats; np.rint matches it
        # bit-for-bit over the representable range.
        measured = _np.rint(measured / resolution) * resolution
    # max(0.0, measured) including the -0.0 -> 0.0 normalisation.
    if not measured > 0.0:
        measured = 0.0
    sensor_state[0] = 1.0
    sensor_state[1] = time_s
    sensor_state[2] = measured
    return measured


@_jit
def _nearest_index(frequencies, target):
    """``VFTable.nearest_index_for_frequency``: CPUFREQ_RELATION_L rounding."""
    n = frequencies.shape[0]
    key = target - 1e-6
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) // 2
        if frequencies[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo > n - 1:
        lo = n - 1
    return lo


@_jit
def _row_max(q, state):
    """``max(row)`` with Python's left-to-right first-maximum semantics."""
    n = q.shape[1]
    best = q[state, 0]
    for action in range(1, n):
        value = q[state, action]
        if value > best:
            best = value
    return best


@_jit
def _row_best(q, state):
    """``QTable.best_action``: row maximum, highest-index tie-break."""
    n = q.shape[1]
    best = q[state, 0]
    for action in range(1, n):
        value = q[state, action]
        if value > best:
            best = value
    for action in range(n - 1, -1, -1):
        if q[state, action] == best:
            return action
    return 0  # pragma: no cover - the maximum always matches itself


@_jit
def _frame_loop(
    fp,
    ip,
    max_cycles,
    deadlines,
    spc,
    cycles,
    dynamic_busy,
    dynamic_idle,
    leak_scale,
    voltages,
    frequencies,
    freq_ratio,
    sensor_state,
    q,
    visits,
    best_cache,
    workload_level,
    uniforms,
    weights,
    out_opp,
    out_busy,
    out_overhead,
    out_duration,
    out_energy,
    out_power,
    out_measured,
    out_explored,
    out_temperature,
    out_core_uncore,
    out_reward,
    out_slack,
    out_average,
    trans_time,
    trans_from,
    trans_to,
):
    """The full closed-loop frame loop over precomputed physics tables."""
    num_frames = max_cycles.shape[0]
    num_points = spc.shape[0]
    num_cores = cycles.shape[1]
    num_actions = num_points
    max_index = num_points - 1

    kind = ip[_I_KIND]
    thermal_enabled = ip[_I_THERMAL_ENABLED] != 0
    pad = ip[_I_PAD] != 0
    charge_overhead = ip[_I_CHARGE_OVERHEAD] != 0
    idle_at_min = ip[_I_IDLE_AT_MIN] != 0

    latency_s = fp[_F_LATENCY]
    transition_energy_j = fp[_F_TRANS_ENERGY]
    sample_period = fp[_F_SAMPLE_PERIOD]
    resolution = fp[_F_RESOLUTION]
    static_overhead = fp[_F_STATIC_OVERHEAD]
    up_threshold = fp[_F_UP_THRESHOLD]
    min_frequency_hz = fp[_F_MIN_FREQ]
    down_threshold = fp[_F_DOWN_THRESHOLD]
    leakage_k3 = fp[_F_K3]
    leakage_k4 = fp[_F_K4]
    uncore_power_w = fp[_F_UNCORE]
    ambient_c = fp[_F_AMBIENT]
    resistance = fp[_F_RESISTANCE]
    tau = fp[_F_TAU]
    throttle_c = fp[_F_THROTTLE_C]
    learning_rate = fp[_F_LEARNING_RATE]
    discount = fp[_F_DISCOUNT]
    eps_alpha = fp[_F_EPS_ALPHA]
    eps_min = fp[_F_EPS_MIN]
    tref = fp[_F_TREF]
    slack_weight = fp[_F_SLACK_WEIGHT]
    delta_weight = fp[_F_DELTA_WEIGHT]
    miss_weight = fp[_F_MISS_WEIGHT]
    overperf = fp[_F_OVERPERF]
    target_slack = fp[_F_TARGET_SLACK]
    beta = fp[_F_BETA]
    oh_learning = fp[_F_OH_LEARNING]
    oh_exploit = fp[_F_OH_EXPLOIT]
    s_lower = fp[_F_S_LOWER]
    s_span = fp[_F_S_SPAN]

    sampling_down_factor = ip[_I_SAMPLING_DOWN]
    freq_step = ip[_I_FREQ_STEP]
    decay_on_any = ip[_I_DECAY_ON_ANY] != 0
    policy_kind = ip[_I_POLICY_KIND]
    slack_window = ip[_I_SLACK_WINDOW]
    s_levels = ip[_I_SLACK_LEVELS]
    conv_window = ip[_I_CONV_WINDOW]

    time_s = fp[_F_TIME]
    temperature = fp[_F_TEMPERATURE]
    epsilon = fp[_F_EPSILON]
    running_sum = fp[_F_RUNNING_SUM]
    gov_overhead = fp[_F_LAST_OVERHEAD]
    theta = 0.0
    theta_temperature = _np.nan  # sentinel: first frame always recomputes

    current = ip[_I_INITIAL_INDEX]
    hold = ip[_I_HOLD]
    pending_state = ip[_I_PENDING_STATE]
    pending_action = ip[_I_PENDING_ACTION]
    selection_count = ip[_I_SELECTION_COUNT]
    exploitation_start = ip[_I_EXPLOITATION_START]
    exploration_draws = ip[_I_EXPLORATION_DRAWS]
    update_count = ip[_I_UPDATE_COUNT]
    last_changed = ip[_I_LAST_CHANGED] != 0
    conv_epoch = ip[_I_CONV_EPOCH]
    conv_last_unstable = ip[_I_CONV_LAST_UNSTABLE]
    conv_converged = ip[_I_CONV_CONVERGED]
    prev_exploration = ip[_I_PREV_EXPLORATION]
    frozen = ip[_I_FROZEN] != 0
    throttle_total = ip[_I_THROTTLE_TOTAL]
    trans_count = 0
    consumed = 0

    index = current
    for f in range(num_frames):
        # ---- decide (Governor.decide, inlined per kind) -------------------
        if f == 0:
            # All three governors start from the fastest point.
            index = max_index
            if kind == 2:
                # RLGovernor.decide epoch 0: credit the initial pair later.
                visits[pending_state, max_index] += 1
                pending_action = max_index
                gov_overhead = oh_learning
            else:
                gov_overhead = static_overhead
        elif kind == 0:
            # OndemandGovernor.decide
            prev_busy = out_busy[f - 1]
            prev_interval = out_duration[f - 1]
            if prev_interval <= 0.0:
                load = 0.0
            else:
                load = prev_busy / prev_interval
                if load > 1.0:
                    load = 1.0
                if load < 0.0:
                    load = 0.0
            if load > up_threshold:
                hold = sampling_down_factor
                index = max_index
            elif hold > 1:
                hold -= 1
                index = max_index
            else:
                hold = 0
                current_frequency = frequencies[out_opp[f - 1]]
                target = current_frequency * load / up_threshold
                if target < min_frequency_hz:
                    target = min_frequency_hz
                index = _nearest_index(frequencies, target)
            gov_overhead = static_overhead
        elif kind == 1:
            # ConservativeGovernor.decide
            prev_busy = out_busy[f - 1]
            prev_interval = out_duration[f - 1]
            if prev_interval <= 0.0:
                load = 0.0
            else:
                load = prev_busy / prev_interval
                if load > 1.0:
                    load = 1.0
                if load < 0.0:
                    load = 0.0
            index = out_opp[f - 1]
            if load > up_threshold:
                index = index + freq_step
            elif load < down_threshold:
                index = index - freq_step
            if index < 0:
                index = 0
            elif index > max_index:
                index = max_index
            gov_overhead = static_overhead
        else:
            # RLGovernor.decide epoch f >= 1.
            # (1) SlackTracker.update with the previous frame's busy time
            # and charged overhead (eq. 5).
            slack = (tref - out_busy[f - 1]) - out_overhead[f - 1]
            out_slack[f] = slack
            if slack_window == 0:
                running_sum += slack
                average = running_sum / (f * tref)
            else:
                count = f
                if count > slack_window:
                    count = slack_window
                window_sum = 0.0
                for i in range(f - count + 1, f + 1):
                    window_sum += out_slack[i]
                average = window_sum / (count * tref)
            out_average[f] = average
            if f >= 2:
                slack_delta = average - out_average[f - 1]
            else:
                slack_delta = average
            # compute_reward (eq. 4, shaped) + the per-frame miss penalty.
            if average < 0.0:
                slack_term = -miss_weight * (-average)
            else:
                excess = average - target_slack
                if excess < 0.0:
                    excess = 0.0
                slack_term = slack_weight * (1.0 - overperf * excess)
            progress = slack_term + delta_weight * slack_delta
            reward = progress
            instantaneous = slack / tref
            if instantaneous < 0.0:
                reward = reward - miss_weight * (-instantaneous)
            out_reward[f] = reward

            # (3) Workload level is trajectory-independent and precomputed
            # host-side through the governor's own tracker/predictor; the
            # slack axis completes StateSpace.state_index.
            slack_level = int((average - s_lower) / s_span * s_levels)
            if slack_level < 0:
                slack_level = 0
            elif slack_level >= s_levels:
                slack_level = s_levels - 1
            next_state = workload_level[f] * s_levels + slack_level

            # (2) QLearningAgent.update then select_action, statement by statement.
            state = pending_state
            action = pending_action
            greedy_before = best_cache[state]
            if greedy_before < 0:
                greedy_before = _row_best(q, state)
                best_cache[state] = greedy_before
            diff = action - greedy_before
            if diff < 0:
                diff = -diff
            confirmed = diff <= 1
            # The bootstrap maximum is read BEFORE the Bellman write —
            # matters when state == next_state.
            next_best_value = _row_max(q, next_state)
            target_q = reward + discount * next_best_value
            old_value = q[state, action]
            new_value = (1.0 - learning_rate) * old_value + learning_rate * target_q
            q[state, action] = new_value
            if action == greedy_before:
                if new_value >= old_value:
                    greedy_after = greedy_before
                else:
                    greedy_after = _row_best(q, state)
            else:
                best_value = q[state, greedy_before]
                if new_value > best_value or (
                    new_value == best_value and action > greedy_before
                ):
                    greedy_after = action
                else:
                    greedy_after = greedy_before
            best_cache[state] = greedy_after
            changed_policy = greedy_after != greedy_before
            last_changed = changed_policy
            update_count += 1
            # ε decay (eq. 6), gated on the progress pay-off.
            if decay_on_any or (progress > 0.0 and confirmed):
                decayed = epsilon * math.exp(-eps_alpha * (1.0 - epsilon))
                if decayed > eps_min:
                    epsilon = decayed
                else:
                    epsilon = eps_min
            exploiting = epsilon <= eps_min
            if exploiting and exploitation_start < 0:
                exploitation_start = selection_count
            selection_count += 1
            explore = False
            if not exploiting:
                draw = uniforms[consumed]
                consumed += 1
                explore = draw < epsilon
            if explore:
                draw = uniforms[consumed]
                consumed += 1
                next_action = num_actions - 1
                if policy_kind == 0:
                    # ExponentialPolicy (EPD, eq. 2): weights left to right,
                    # then the cumulative scan dividing per element.
                    total = 0.0
                    for a in range(num_actions):
                        weight = math.exp(-beta * freq_ratio[a] * average)
                        weights[a] = weight
                        total += weight
                    cumulative = 0.0
                    for a in range(num_actions):
                        cumulative += weights[a] / total
                        if draw <= cumulative:
                            next_action = a
                            break
                else:
                    # UniformPolicy (UPD baseline).
                    probability = 1.0 / num_actions
                    cumulative = 0.0
                    for a in range(num_actions):
                        cumulative += probability
                        if draw <= cumulative:
                            next_action = a
                            break
                exploration_draws += 1
            elif state == next_state:
                next_action = greedy_after
            else:
                next_action = best_cache[next_state]
                if next_action < 0:
                    next_action = 0
                    for candidate in range(num_actions - 1, -1, -1):
                        if q[next_state, candidate] == next_best_value:
                            next_action = candidate
                            break
                    best_cache[next_state] = next_action
            visits[next_state, next_action] += 1

            # ConvergenceDetector.observe (track_action_range off).
            conv_epoch += 1
            if conv_converged < 0:
                if (not exploiting) or changed_policy:
                    conv_last_unstable = conv_epoch
                elif (
                    conv_epoch >= conv_window
                    and conv_epoch - conv_last_unstable >= conv_window
                ):
                    conv_converged = conv_epoch - conv_window
            pending_state = next_state
            pending_action = next_action
            if exploiting:
                gov_overhead = oh_exploit
            else:
                gov_overhead = oh_learning
            index = next_action

        # ---- physics (the tablepath loop body) ----------------------------
        if index != current:
            if index < 0 or index > max_index:
                raise ValueError("operating-point index out of range")
            trans_time[trans_count] = time_s
            trans_from[trans_count] = current
            trans_to[trans_count] = index
            trans_count += 1
            current = index
            transition_latency = latency_s
            frame_transition_energy = transition_energy_j
        else:
            transition_latency = 0.0
            frame_transition_energy = 0.0

        spc_i = spc[index]
        busy = max_cycles[f] * spc_i
        deadline = deadlines[f]
        if pad and deadline > busy:
            interval = deadline
        else:
            interval = busy
        if idle_at_min:
            idle_index = 0
        else:
            idle_index = index
        if temperature != theta_temperature:
            theta = math.exp(leakage_k3 * (temperature - 55.0))
            theta_temperature = temperature
        busy_power = dynamic_busy[index] + voltages[index] * (
            leak_scale[index] * theta + leakage_k4
        )
        idle_power = dynamic_idle[idle_index] + voltages[idle_index] * (
            leak_scale[idle_index] * theta + leakage_k4
        )
        core_energy = 0.0
        for c in range(num_cores):
            core_busy = cycles[f, c] * spc_i
            core_energy += busy_power * core_busy + idle_power * (
                interval - core_busy
            )
        core_uncore = core_energy + uncore_power_w * interval
        frame_energy = core_uncore + frame_transition_energy
        duration = interval + transition_latency
        if duration > 0.0:
            power = frame_energy / duration
        else:
            power = 0.0
        if thermal_enabled and duration > 0.0:
            steady = ambient_c + power * resistance
            decay = math.exp(-duration / tau)
            temperature = steady + (temperature - steady) * decay
            if temperature >= throttle_c:
                throttle_total += 1
        out_core_uncore[f] = core_uncore
        out_temperature[f] = temperature

        time_s += duration
        measured = _sensor_measure(
            power, time_s, sensor_state, sample_period, resolution
        )

        if charge_overhead:
            overhead = gov_overhead + transition_latency
        else:
            overhead = 0.0

        # Explored-column poll (tablepath's exploration_count delta probe).
        if frozen:
            explored = False
        else:
            if exploitation_start >= 0:
                exploration = exploitation_start
            else:
                exploration = selection_count
            explored = exploration > prev_exploration
            prev_exploration = exploration
            frozen = epsilon <= eps_min

        out_opp[f] = index
        out_busy[f] = busy
        out_overhead[f] = overhead
        out_duration[f] = duration
        out_energy[f] = frame_energy
        out_power[f] = power
        out_measured[f] = measured
        out_explored[f] = explored

    fp[_F_TIME] = time_s
    fp[_F_TEMPERATURE] = temperature
    fp[_F_EPSILON] = epsilon
    fp[_F_RUNNING_SUM] = running_sum
    fp[_F_LAST_OVERHEAD] = gov_overhead
    ip[_I_HOLD] = hold
    ip[_I_PENDING_STATE] = pending_state
    ip[_I_PENDING_ACTION] = pending_action
    ip[_I_SELECTION_COUNT] = selection_count
    ip[_I_EXPLOITATION_START] = exploitation_start
    ip[_I_EXPLORATION_DRAWS] = exploration_draws
    ip[_I_UPDATE_COUNT] = update_count
    ip[_I_LAST_CHANGED] = 1 if last_changed else 0
    ip[_I_CONV_EPOCH] = conv_epoch
    ip[_I_CONV_LAST_UNSTABLE] = conv_last_unstable
    ip[_I_CONV_CONVERGED] = conv_converged
    ip[_I_PREV_EXPLORATION] = prev_exploration
    ip[_I_FROZEN] = 1 if frozen else 0
    ip[_I_TRANS_COUNT] = trans_count
    ip[_I_THROTTLE_TOTAL] = throttle_total
    ip[_I_CONSUMED] = consumed


# ---------------------------------------------------------------------------
# Host-side wrapper.
# ---------------------------------------------------------------------------


def _governor_kind(governor: "Governor") -> int:
    gtype = type(governor)
    if gtype is OndemandGovernor:
        return 0
    if gtype is ConservativeGovernor:
        return 1
    if gtype is RLGovernor:
        return 2
    raise SimulationError(
        f"the jit kernel engine has no kernel for governor {governor.name!r}"
    )


def simulate_closed_loop(
    cluster: "Cluster",
    application: "Application",
    governor: "Governor",
    config: "SimulationConfig",
    tables=None,
) -> SimulationResult:
    """Run the closed governor loop through the compiled kernel.

    Mirrors :func:`repro.sim.tablepath.simulate_closed_loop` exactly — same
    contract (caller resets the cluster and sets the governor up first, as
    the engine does), same table validation and rebuild, same
    scalar-equivalent final state for the cluster, sensor, thermal model
    and governor.
    """
    np = _np
    if np is None:
        raise SimulationError("the jit kernel engine requires numpy")
    reason = unsupported_reason(cluster, governor)
    if reason is not None:
        raise SimulationError(f"the jit kernel engine cannot run this: {reason}")
    num_frames = application.num_frames
    if num_frames == 0:
        raise SimulationError("cannot simulate an application with no frames")

    if (
        not isinstance(tables, WorkloadTable)
        or tables.num_frames != num_frames
        or not tables.matches(cluster, config.idle_until_deadline)
    ):
        tables = tablepath.precompute_tables(cluster, application, config)

    num_points = tables.num_points
    cycles_tuples = tables.cycles_tuples
    deadlines = tables.deadlines_s.tolist()
    kind = _governor_kind(governor)

    fp = np.zeros(_F_COUNT, dtype=np.float64)
    ip = np.zeros(_I_COUNT, dtype=np.int64)

    dvfs = cluster.dvfs
    latency_s = dvfs.transition_latency_s
    transition_energy_j = dvfs.transition_energy_j
    sensor = cluster.power_sensor
    initial_index = cluster.current_index

    fp[_F_TIME] = cluster.time_s
    fp[_F_LATENCY] = latency_s
    fp[_F_TRANS_ENERGY] = transition_energy_j
    fp[_F_SAMPLE_PERIOD] = sensor.sample_period_s
    fp[_F_RESOLUTION] = sensor.resolution_w
    ip[_I_KIND] = kind
    ip[_I_PAD] = 1 if tables.idle_until_deadline else 0
    ip[_I_INITIAL_INDEX] = initial_index
    ip[_I_CHARGE_OVERHEAD] = 1 if config.charge_governor_overhead else 0

    sensor_state = np.zeros(3, dtype=np.float64)
    if sensor._last_time_s is not None:
        sensor_state[0] = 1.0
        sensor_state[1] = sensor._last_time_s
    sensor_state[2] = sensor._last_power_w

    max_cycles_arr = np.asarray(tables.max_cycles, dtype=np.float64)
    deadlines_arr = np.asarray(tables.deadlines_s, dtype=np.float64)
    spc_arr = np.asarray(tables.seconds_per_cycle, dtype=np.float64)
    cycles_arr = np.asarray(cycles_tuples, dtype=np.float64).reshape(
        num_frames, tables.num_cores
    )
    frequencies_arr = np.asarray(tables.frequencies_hz, dtype=np.float64)

    thermal_model = cluster.thermal_model
    dynamic_busy = np.asarray(tables.dynamic_busy_w, dtype=np.float64)
    dynamic_idle = np.asarray(tables.dynamic_idle_w, dtype=np.float64)
    leak_scale = np.asarray(tables.leak_scale_a, dtype=np.float64)
    voltages = np.asarray(tables.voltages_v, dtype=np.float64)
    fp[_F_K3] = tables.leakage_k3_per_c
    fp[_F_K4] = tables.leakage_k4_a
    fp[_F_UNCORE] = tables.uncore_power_w
    fp[_F_AMBIENT] = tables.ambient_c
    fp[_F_RESISTANCE] = tables.resistance_c_per_w
    fp[_F_TAU] = tables.resistance_c_per_w * tables.capacitance_j_per_c
    fp[_F_THROTTLE_C] = tables.throttle_c
    fp[_F_TEMPERATURE] = thermal_model.temperature_c
    ip[_I_THERMAL_ENABLED] = 1 if thermal_model.enabled else 0
    ip[_I_IDLE_AT_MIN] = 1 if tables.idle_at_min_opp else 0
    out_temperature = np.zeros(num_frames, dtype=np.float64)
    out_core_uncore = np.zeros(num_frames, dtype=np.float64)

    # -- per-kind governor state in ---------------------------------------
    rl_state = None
    if kind == 0:
        fp[_F_STATIC_OVERHEAD] = static_processing_overhead(governor)
        fp[_F_UP_THRESHOLD] = governor._up_threshold
        fp[_F_MIN_FREQ] = governor._min_frequency_hz
        ip[_I_SAMPLING_DOWN] = governor._sampling_down_factor
        ip[_I_HOLD] = governor._hold_remaining
    elif kind == 1:
        fp[_F_STATIC_OVERHEAD] = static_processing_overhead(governor)
        fp[_F_UP_THRESHOLD] = governor._up_threshold
        fp[_F_DOWN_THRESHOLD] = governor._down_threshold
        ip[_I_FREQ_STEP] = governor._freq_step_indices
    else:
        rl_state = _pack_rl(governor, cycles_tuples, num_frames, fp, ip, np)

    ip[_I_PREV_EXPLORATION] = governor.exploration_count
    # The explored-column poll may stop once the count can no longer move:
    # for ondemand and conservative always, for a learner once ε is at its floor.
    ip[_I_FROZEN] = 0 if kind == 2 and not governor.agent.epsilon_schedule.is_exploiting else 1

    if rl_state is not None:
        q_arr, visits_arr, cache_arr, wl_arr, uniforms, weights = rl_state[:6]
        out_reward = np.zeros(num_frames, dtype=np.float64)
        out_slack = np.zeros(num_frames, dtype=np.float64)
        out_average = np.zeros(num_frames, dtype=np.float64)
        freq_ratio = rl_state[6]
    else:
        q_arr = np.zeros((1, 1), dtype=np.float64)
        visits_arr = np.zeros((1, 1), dtype=np.int64)
        cache_arr = np.zeros(1, dtype=np.int64)
        wl_arr = np.zeros(1, dtype=np.int64)
        uniforms = np.zeros(1, dtype=np.float64)
        weights = np.zeros(1, dtype=np.float64)
        freq_ratio = np.zeros(num_points, dtype=np.float64)
        out_reward = np.zeros(1, dtype=np.float64)
        out_slack = np.zeros(1, dtype=np.float64)
        out_average = np.zeros(1, dtype=np.float64)

    out_opp = np.zeros(num_frames, dtype=np.int64)
    out_busy = np.zeros(num_frames, dtype=np.float64)
    out_overhead = np.zeros(num_frames, dtype=np.float64)
    out_duration = np.zeros(num_frames, dtype=np.float64)
    out_energy = np.zeros(num_frames, dtype=np.float64)
    out_power = np.zeros(num_frames, dtype=np.float64)
    out_measured = np.zeros(num_frames, dtype=np.float64)
    out_explored = np.zeros(num_frames, dtype=np.bool_)
    trans_time = np.zeros(num_frames, dtype=np.float64)
    trans_from = np.zeros(num_frames, dtype=np.int64)
    trans_to = np.zeros(num_frames, dtype=np.int64)

    _frame_loop(
        fp,
        ip,
        max_cycles_arr,
        deadlines_arr,
        spc_arr,
        cycles_arr,
        dynamic_busy,
        dynamic_idle,
        leak_scale,
        voltages,
        frequencies_arr,
        freq_ratio,
        sensor_state,
        q_arr,
        visits_arr,
        cache_arr,
        wl_arr,
        uniforms,
        weights,
        out_opp,
        out_busy,
        out_overhead,
        out_duration,
        out_energy,
        out_power,
        out_measured,
        out_explored,
        out_temperature,
        out_core_uncore,
        out_reward,
        out_slack,
        out_average,
        trans_time,
        trans_from,
        trans_to,
    )

    # -- transitions and columns (exactly tablepath's epilogue) ------------
    trans_count = int(ip[_I_TRANS_COUNT])
    transitions = [
        DVFSTransition(
            float(trans_time[i]),
            int(trans_from[i]),
            int(trans_to[i]),
            latency_s,
            transition_energy_j,
        )
        for i in range(trans_count)
    ]

    indices = out_opp.astype(np.intp)
    frequencies_mhz = np.asarray(tables.frequencies_mhz)
    columns = FrameColumns(
        index=range(num_frames),
        operating_index=out_opp.tolist(),
        frequency_mhz=frequencies_mhz[indices].tolist(),
        cycles_per_core=cycles_tuples,
        busy_time_s=out_busy.tolist(),
        overhead_time_s=out_overhead.tolist(),
        frame_time_s=(out_busy + out_overhead).tolist(),
        interval_s=out_duration.tolist(),
        deadline_s=deadlines,
        energy_j=out_energy.tolist(),
        average_power_w=out_power.tolist(),
        measured_power_w=out_measured.tolist(),
        temperature_c=out_temperature.tolist(),
        explored=out_explored.tolist(),
    )
    result = SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        columns=columns,
    )

    # -- leave the cluster where a scalar run leaves it ---------------------
    fastpath.sync_cluster(
        cluster,
        indices=out_opp.tolist(),
        transitions=transitions,
        end_time_s=float(fp[_F_TIME]),
    )
    thermal_model.absorb_state(float(fp[_F_TEMPERATURE]), int(ip[_I_THROTTLE_TOTAL]))

    # -- sensor and governor hidden state out ------------------------------
    if sensor_state[0] != 0.0:
        sensor._last_time_s = float(sensor_state[1])
    sensor._last_power_w = float(sensor_state[2])

    if kind == 0:
        governor._hold_remaining = int(ip[_I_HOLD])
    elif kind == 2:
        _unpack_rl(
            governor,
            fp,
            ip,
            q_arr,
            visits_arr,
            cache_arr,
            out_reward,
            out_slack,
            out_average,
            num_frames,
            rl_state[7],
        )

    result.exploration_count = governor.exploration_count
    result.converged_epoch = governor.converged_epoch
    return result


def _pack_rl(
    governor: "RLGovernor",
    cycles_tuples: Sequence[Tuple[float, ...]],
    num_frames: int,
    fp,
    ip,
    np,
):
    """Marshal the RL governor's live state into kernel arrays.

    Also advances the trajectory-independent observers: the workload range
    tracker and the EWMA predictor see only the frame trace (never the
    governor's decisions), so their whole observation sequence — and hence
    the workload level of every frame's state index — is precomputed here
    through the governor's *own* tracker/predictor objects, leaving them in
    exactly the final state a scalar run would.
    """
    agent = governor.agent
    state_space = governor.state_space
    qtable = agent.qtable
    parameters = agent.parameters
    schedule = agent.epsilon_schedule
    policy = agent.policy
    tracker = governor._slack_tracker
    convergence = governor._convergence

    if type(policy) is ExponentialPolicy:
        ip[_I_POLICY_KIND] = 0
        fp[_F_BETA] = policy.beta
    elif type(policy) is UniformPolicy:
        ip[_I_POLICY_KIND] = 1
    else:
        raise SimulationError(
            f"the jit kernel engine has no kernel for exploration policy "
            f"{type(policy).__name__!r}"
        )
    if convergence.track_action_range:
        raise SimulationError(
            "the jit kernel engine supports ConvergenceDetector with "
            "track_action_range disabled only"
        )
    if tracker._epochs != 0 or convergence._epoch != 0:
        raise SimulationError(
            "the jit kernel engine requires a freshly set-up RL governor"
        )

    fp[_F_LEARNING_RATE] = parameters.learning_rate
    fp[_F_DISCOUNT] = parameters.discount
    fp[_F_EPSILON] = schedule._epsilon
    fp[_F_EPS_ALPHA] = schedule.alpha
    fp[_F_EPS_MIN] = schedule.minimum_epsilon
    ip[_I_DECAY_ON_ANY] = 1 if schedule.decay_on_any_reward else 0
    fp[_F_TREF] = tracker.reference_time_s
    ip[_I_SLACK_WINDOW] = 0 if tracker.window is None else tracker.window
    fp[_F_RUNNING_SUM] = tracker._running_sum
    reward_params = governor.config.reward
    fp[_F_SLACK_WEIGHT] = reward_params.slack_weight
    fp[_F_DELTA_WEIGHT] = reward_params.delta_weight
    fp[_F_MISS_WEIGHT] = reward_params.miss_penalty_weight
    fp[_F_OVERPERF] = reward_params.overperformance_penalty
    fp[_F_TARGET_SLACK] = reward_params.target_slack
    fp[_F_OH_LEARNING] = governor._overhead_learning_s
    fp[_F_OH_EXPLOIT] = governor._overhead_exploiting_s
    fp[_F_S_LOWER] = state_space._s_lower
    fp[_F_S_SPAN] = state_space._s_span
    ip[_I_SLACK_LEVELS] = state_space._s_levels
    ip[_I_CONV_WINDOW] = convergence.window
    ip[_I_CONV_EPOCH] = convergence._epoch
    ip[_I_CONV_LAST_UNSTABLE] = convergence._last_unstable_epoch
    ip[_I_CONV_CONVERGED] = (
        -1 if convergence._converged_epoch is None else convergence._converged_epoch
    )
    ip[_I_SELECTION_COUNT] = agent._selection_count
    ip[_I_EXPLOITATION_START] = (
        -1 if agent._exploitation_start is None else agent._exploitation_start
    )
    ip[_I_EXPLORATION_DRAWS] = agent._exploration_draws
    ip[_I_UPDATE_COUNT] = agent._update_count
    ip[_I_LAST_CHANGED] = 1 if agent.last_update_changed_policy else 0
    # Frame 0's initial state (decide with previous=None): state_index(1.0, 0.0).
    ip[_I_PENDING_STATE] = state_space.state_index(1.0, 0.0)
    ip[_I_PENDING_ACTION] = qtable.num_actions - 1

    q_arr = np.asarray(qtable._values, dtype=np.float64)
    visits_arr = np.asarray(qtable._visit_counts, dtype=np.int64)
    cache_arr = np.asarray(qtable._best_action_cache, dtype=np.int64)

    # Workload chain, through the governor's own observers (see docstring).
    w_lower = state_space._w_lower
    w_span = state_space._w_span
    w_levels = state_space._w_levels
    range_tracker = governor._range_tracker
    predictor = governor._predictor
    wl_arr = np.zeros(num_frames, dtype=np.int64)
    for f in range(1, num_frames):
        actual = max(cycles_tuples[f - 1])
        range_tracker.observe(actual)
        predicted = predictor.observe(actual)
        norm = range_tracker.normalise(predicted)
        level = int((norm - w_lower) / w_span * w_levels)
        if level < 0:
            level = 0
        elif level >= w_levels:
            level = w_levels - 1
        wl_arr[f] = level

    # Pre-draw the agent's uniforms (at most two per epoch: the explore
    # gate and the policy sample); the generator is rewound and replayed
    # to the consumed count after the kernel.
    rng = agent._rng
    rng_state = rng.getstate()
    uniforms = np.fromiter(
        (rng.random() for _ in range(2 * num_frames)),
        dtype=np.float64,
        count=2 * num_frames,
    )

    frequencies = agent.action_frequencies_hz
    f_max = max(frequencies)
    freq_ratio = np.asarray(
        [frequency / f_max for frequency in frequencies], dtype=np.float64
    )
    weights = np.zeros(qtable.num_actions, dtype=np.float64)
    return (
        q_arr,
        visits_arr,
        cache_arr,
        wl_arr,
        uniforms,
        weights,
        freq_ratio,
        rng_state,
    )


def _unpack_rl(
    governor: "RLGovernor",
    fp,
    ip,
    q_arr,
    visits_arr,
    cache_arr,
    out_reward,
    out_slack,
    out_average,
    num_frames: int,
    rng_state,
) -> None:
    """Write the kernel's final RL state back into the live objects.

    After this the governor, agent, Q-table, trackers and RNG hold exactly
    the state a scalar run over the same frames would have left.
    """
    agent = governor.agent
    qtable = agent.qtable
    schedule = agent.epsilon_schedule

    qtable._values = q_arr.tolist()
    qtable._visit_counts = visits_arr.tolist()
    qtable._best_action_cache = cache_arr.tolist()
    agent._exploration_draws = int(ip[_I_EXPLORATION_DRAWS])
    agent._update_count = int(ip[_I_UPDATE_COUNT])
    agent._selection_count = int(ip[_I_SELECTION_COUNT])
    exploitation_start = int(ip[_I_EXPLOITATION_START])
    if exploitation_start < 0:
        agent._exploitation_start = None
        agent.exploration_phase_length = agent._selection_count
    else:
        agent._exploitation_start = exploitation_start
        agent.exploration_phase_length = exploitation_start
    agent.last_update_changed_policy = bool(ip[_I_LAST_CHANGED])
    epsilon = float(fp[_F_EPSILON])
    schedule._epsilon = epsilon
    schedule.is_exploiting = epsilon <= schedule.minimum_epsilon
    governor._pending_state = int(ip[_I_PENDING_STATE])
    governor._pending_action = int(ip[_I_PENDING_ACTION])
    governor.processing_overhead_s = float(fp[_F_LAST_OVERHEAD])
    governor.exploration_count = agent.exploration_phase_length
    governor._reward_history = out_reward[1:num_frames].tolist()

    tracker = governor._slack_tracker
    epochs = num_frames - 1
    window = tracker.window
    keep = epochs if window is None else min(epochs, window)
    # The kernel leaves the running sum untouched in windowed mode.
    tracker.restore(
        out_slack[num_frames - keep : num_frames].tolist(),
        out_average[1:num_frames].tolist(),
        float(fp[_F_RUNNING_SUM]),
    )

    convergence = governor._convergence
    convergence._epoch = int(ip[_I_CONV_EPOCH])
    convergence._last_unstable_epoch = int(ip[_I_CONV_LAST_UNSTABLE])
    converged = int(ip[_I_CONV_CONVERGED])
    convergence._converged_epoch = None if converged < 0 else converged

    # Rewind the generator and replay exactly the consumed draws, so the
    # stream position matches a scalar run's.
    rng = agent._rng
    rng.setstate(rng_state)
    for _ in range(int(ip[_I_CONSUMED])):
        rng.random()
