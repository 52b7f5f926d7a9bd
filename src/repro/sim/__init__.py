"""Simulation engine: closed-loop application / governor / platform runs.

The engine steps a frame-based application through the platform model one
decision epoch at a time, exactly mirroring the paper's closed-loop RTM
operation (Fig. 2a): at each epoch the governor observes the previous
epoch's PMU and sensor data, chooses a V-F operating point, the platform
executes the frame at that point, and the resulting time/energy feed the
next decision.

Execution strategies are pluggable backends selected per run by capability
negotiation (see :mod:`repro.sim.backends`): the NumPy-vectorised trace
engine in :mod:`repro.sim.fastpath` for static-schedule governors, the
compiled closed-loop kernels in :mod:`repro.sim.jitpath` (when numba is
installed), the table-driven closed loop with live thermal state in
:mod:`repro.sim.tablepath`, and the universal scalar reference loop in
:mod:`repro.sim.scalarpath`.
"""

from repro.sim.epoch import FrameColumns, FrameRecord
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.backends import (
    BackendCapabilities,
    EngineBackend,
    EngineRequest,
    backend_names,
    capability_matrix,
    negotiate,
    register_backend,
    unregister_backend,
)
from repro.sim.fastpath import fast_path_eligible, simulate_schedule
from repro.sim.tablepath import precompute_tables, simulate_closed_loop
from repro.sim.results import SimulationResult
from repro.sim.metrics import (
    MetricsSummary,
    summarize_records,
    summarize_result,
    frequency_histogram,
)
from repro.sim.runner import ExperimentRunner, GovernorFactory
from repro.sim.comparison import ComparisonRow, compare_to_oracle

__all__ = [
    "FrameColumns",
    "FrameRecord",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "BackendCapabilities",
    "EngineBackend",
    "EngineRequest",
    "backend_names",
    "capability_matrix",
    "negotiate",
    "register_backend",
    "unregister_backend",
    "fast_path_eligible",
    "simulate_schedule",
    "precompute_tables",
    "simulate_closed_loop",
    "MetricsSummary",
    "summarize_records",
    "summarize_result",
    "frequency_histogram",
    "ExperimentRunner",
    "GovernorFactory",
    "ComparisonRow",
    "compare_to_oracle",
]
