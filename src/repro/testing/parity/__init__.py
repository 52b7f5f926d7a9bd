"""Governor/engine parity harness: differential replay, goldens, fuzzing.

The paper's core claim is a *comparison* of DVFS governors on identical
workloads, so the reproduction is only as credible as the guarantee that
every governor sees bit-identical observations on every engine backend.
This package turns that guarantee into executable infrastructure:

:mod:`repro.testing.parity.trace`
    :class:`~repro.testing.parity.trace.DecisionTrace` — the complete
    decision record of one run (per-frame operating points, DVFS
    transitions, miss/exploration sets, timing/energy columns and the
    governor's final :meth:`~repro.rtm.governor.Governor.decision_state`)
    — plus :func:`~repro.testing.parity.trace.diff_traces`, which reports
    the first divergent frame with both sides' state.

:mod:`repro.testing.parity.harness`
    The differential replay harness: one
    :class:`~repro.campaign.spec.ScenarioSpec` through every eligible
    (governor x engine) pair on the fixed :mod:`repro.sim.backends`
    ladder, diffing every trace against the
    ``scalar`` reference.

:mod:`repro.testing.parity.goldens`
    The golden decision-trace store under ``tests/goldens`` and the
    record/check workflow that makes golden regeneration deliberate.

:mod:`repro.testing.parity.fuzz`
    Property-based scenario generation (seeded stdlib ``random``,
    numba-optional): random V/F tables, frame traces, thermal modes,
    governor configs and shard splits, asserting cross-backend parity plus
    global invariants on every sample.

The ``repro-parity`` CLI (:mod:`repro.testing.parity.cli`) exposes the
``check`` / ``record`` / ``fuzz`` workflows; CI runs ``check`` on every
push and a 200-seed ``fuzz`` sweep nightly.

Importing this package also registers the fuzzer's scenario factories
(``fuzz-trace``, ``fuzz-cluster``, ``fuzz-ondemand``, ``fuzz-conservative``)
with the campaign registries, so fuzzed specs resolve wherever the package
is imported.
"""

from repro.testing.parity.fuzz import (
    FuzzFailure,
    FuzzReport,
    fuzz_seed,
    generate_scenario,
    minimize_scenario,
    run_fuzz,
)
from repro.testing.parity.goldens import (
    GOLDEN_FORMAT,
    check_goldens,
    golden_path,
    load_golden,
    record_goldens,
    write_golden,
)
from repro.testing.parity.harness import (
    PairResult,
    ParityReport,
    eligible_engines,
    paper_governors,
    run_parity,
    smoke_applications,
    smoke_parity_campaign,
)
from repro.testing.parity.trace import (
    REFERENCE_ENGINE,
    DecisionTrace,
    TraceDivergence,
    capture_decision_trace,
    diff_traces,
)

__all__ = [
    "DecisionTrace",
    "FuzzFailure",
    "FuzzReport",
    "GOLDEN_FORMAT",
    "PairResult",
    "ParityReport",
    "REFERENCE_ENGINE",
    "TraceDivergence",
    "capture_decision_trace",
    "check_goldens",
    "diff_traces",
    "eligible_engines",
    "fuzz_seed",
    "generate_scenario",
    "golden_path",
    "load_golden",
    "minimize_scenario",
    "paper_governors",
    "record_goldens",
    "run_fuzz",
    "run_parity",
    "smoke_applications",
    "smoke_parity_campaign",
    "write_golden",
]
