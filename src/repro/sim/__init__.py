"""Simulation engine: closed-loop application / governor / platform runs.

The engine steps a frame-based application through the platform model one
decision epoch at a time, exactly mirroring the paper's closed-loop RTM
operation (Fig. 2a): at each epoch the governor observes the previous
epoch's PMU and sensor data, chooses a V-F operating point, the platform
executes the frame at that point, and the resulting time/energy feed the
next decision.

Each run executes on the first engine of a fixed four-row ladder that
accepts it (see :mod:`repro.sim.backends`): the static-schedule trace
engine in :mod:`repro.sim.fastpath` for static-schedule governors, the
compiled closed-loop kernels in :mod:`repro.sim.jitpath` (when numba is
installed), the table-driven closed loop with live thermal state in
:mod:`repro.sim.tablepath`, and the universal scalar reference loop in
:mod:`repro.sim.scalarpath`.  The engine names and the run switches
(:class:`SimulationConfig`) live in the leaf module :mod:`repro.sim.config`,
so specs and stored results load without importing any engine.

The public names are resolved lazily (PEP 562, :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.epoch": ("FrameColumns", "FrameRecord"),
        "repro.sim.config": ("SimulationConfig", "ENGINES"),
        "repro.sim.engine": ("SimulationEngine",),
        "repro.sim.backends": ("EngineRequest", "negotiate", "rejection_reason"),
        "repro.sim.fastpath": ("simulate_schedule",),
        "repro.sim.tablepath": ("precompute_tables", "simulate_closed_loop"),
        "repro.sim.results": ("SimulationResult",),
        "repro.sim.metrics": (
            "MetricsSummary",
            "summarize_result",
            "frequency_histogram",
        ),
        "repro.sim.runner": ("ExperimentRunner", "GovernorFactory"),
        "repro.sim.comparison": ("ComparisonRow", "compare_to_oracle"),
    },
)
