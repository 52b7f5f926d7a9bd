"""Many-core formulation of the proposed RTM (the paper's Section II-D).

The many-core adaptation makes three changes relative to the single-agent
formulation:

1. each core has its own workload predictor, and the predicted workload of
   the core under consideration is *normalised by the total predicted
   workload of all cores* (eq. 7);
2. a single Q-table is *shared* by all cores, so every core's experience
   improves the same policy;
3. only **one** core's state-action entry is updated per decision epoch, in
   round-robin order, which keeps the Q-table size independent of the number
   of cores (as opposed to enumerating joint V-F combinations).

Because the A15 cluster has a single V-F domain, the selected action still
applies to the whole cluster; what rotates is which core's observed and
predicted workload defines the state being learnt.

Only the state's workload differs from the single-agent learner, so
:class:`MultiCoreRLGovernor` inherits ``RLGovernor.setup`` and
``RLGovernor.decide`` and overrides their three workload hooks:
``_setup_predictors`` (one predictor per core, no cluster-wide one),
``_initial_workload`` (an even share per core) and ``_observe_workload``
(per-core prediction, rotation and normalisation).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.rtm.governor import EpochObservation, PlatformInfo
from repro.rtm.prediction import EWMAPredictor, WorkloadPredictor
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.rtm.state import StateSpace, WorkloadNormalisation


class MultiCoreRLGovernor(RLGovernor):
    """Shared-Q-table, round-robin many-core variant of the proposed RTM."""

    name = "proposed-rl-multicore"

    def __init__(self, config: Optional[RLGovernorConfig] = None) -> None:
        super().__init__(config)
        self._core_predictors: List[WorkloadPredictor] = []
        self._round_robin_core = 0

    # -- lifecycle ---------------------------------------------------------------------
    def _setup_predictors(self, platform: PlatformInfo) -> None:
        """One predictor per core, and the round robin restarts at core 0.

        No cluster-wide predictor is built, so :attr:`predictor` raises.
        """
        self._core_predictors = [
            EWMAPredictor(gamma=self.config.ewma_gamma) for _ in range(platform.num_cores)
        ]
        self._round_robin_core = 0

    def _make_state_space(self) -> StateSpace:
        """Many-core state space.

        With ``use_total_share_normalisation`` the per-core predicted
        workload is normalised by the total predicted workload (the paper's
        eq. 7); otherwise the cluster's critical-path prediction is
        normalised by the per-core cycle capacity, which keeps the absolute
        load information the shared V-F domain needs (see DESIGN.md,
        "deviations").
        """
        normalisation = (
            WorkloadNormalisation.TOTAL_SHARE
            if self.config.use_total_share_normalisation
            else WorkloadNormalisation.CAPACITY
        )
        return StateSpace(
            workload_levels=self.config.workload_levels,
            slack_levels=self.config.slack_levels,
            normalisation=normalisation,
        )

    # -- introspection ---------------------------------------------------------------------
    @property
    def core_predictors(self) -> List[WorkloadPredictor]:
        """Per-core workload predictors (raises before setup)."""
        if not self._core_predictors:
            raise ConfigurationError("MultiCoreRLGovernor used before setup()")
        return self._core_predictors

    @property
    def round_robin_core(self) -> int:
        """Index of the core whose state-action entry will be updated next."""
        return self._round_robin_core

    # -- per-epoch workload ----------------------------------------------------------------
    def _initial_workload(self) -> float:
        """Each core's share of an evenly loaded cluster."""
        return 1.0 / max(1, self.platform.num_cores)

    def _observe_workload(self, previous: EpochObservation) -> float:
        """Predict every core's workload and advance the round-robin core.

        In eq.-7 mode the round-robin core's share of the total prediction
        defines the state; in the default capacity mode the largest per-core
        prediction (the critical path the shared V-F domain must meet) does,
        mapped onto the application's characterised workload range.
        """
        cycles = previous.cycles_per_core
        predictors = self._core_predictors
        num_cores = len(predictors)
        if len(cycles) != num_cores:  # missing cores read as idle; extra ones are ignored
            cycles = (tuple(cycles) + (0.0,) * num_cores)[:num_cores]
        predictions = [
            predictor.observe(core_cycles) for predictor, core_cycles in zip(predictors, cycles)
        ]
        focus_core = self._round_robin_core
        self._round_robin_core = (focus_core + 1) % num_cores
        if self.config.use_total_share_normalisation:
            return self._state_space.normalise_workload(
                predictions[focus_core],
                capacity_cycles=self.platform.capacity_cycles(self.requirement.tref_s),
                all_core_predictions=predictions,
            )
        range_tracker = self._range_tracker
        range_tracker.observe(previous.max_cycles)
        return range_tracker.normalise(max(predictions))

    def describe(self) -> str:
        return (
            f"{self.name}: shared Q-table, round-robin updates over "
            f"{self.platform.num_cores} cores"
        )
