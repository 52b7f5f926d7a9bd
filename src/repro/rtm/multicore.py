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
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.rtm.governor import EpochObservation, FrameHint, PlatformInfo
from repro.rtm.prediction import EWMAPredictor, WorkloadPredictor
from repro.rtm.rewards import compute_reward
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.rtm.state import StateSpace, WorkloadNormalisation
from repro.workload.application import PerformanceRequirement


class MultiCoreRLGovernor(RLGovernor):
    """Shared-Q-table, round-robin many-core variant of the proposed RTM."""

    name = "proposed-rl-multicore"

    def __init__(self, config: Optional[RLGovernorConfig] = None) -> None:
        super().__init__(config)
        self._core_predictors: List[WorkloadPredictor] = []
        self._round_robin_core = 0

    # -- lifecycle ---------------------------------------------------------------------
    def setup(self, platform: PlatformInfo, requirement: PerformanceRequirement) -> None:
        super().setup(platform, requirement)
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

    # -- per-epoch decision ---------------------------------------------------------------------
    def decide(
        self,
        previous: Optional[EpochObservation],
        hint: Optional[FrameHint] = None,
    ) -> int:
        agent = self._agent
        if agent is None:
            raise ConfigurationError("MultiCoreRLGovernor used before setup()")
        if previous is None:
            initial_state = self.state_space.state_index(1.0 / max(1, self.platform.num_cores), 0.0)
            initial_action = self.platform.num_actions - 1
            agent.qtable.record_visit(initial_state, initial_action)
            self._pending_state = initial_state
            self._pending_action = initial_action
            self._last_overhead_s = self._overhead_learning_s
            return initial_action

        # (1) Pay-off for the finished epoch — shared across cores because
        # the frame deadline is a property of the whole cluster.  The full
        # pay-off differs from the progress pay-off only by the per-frame
        # miss penalty, so one evaluation serves both.
        tracker = self._slack_tracker
        reward_params = self.config.reward
        average_slack = tracker.update(previous.busy_time_s, previous.overhead_time_s)
        slack_delta = tracker.slack_delta
        progress_reward = compute_reward(average_slack, slack_delta, reward_params)
        reward = progress_reward
        instantaneous_slack = tracker.last_instantaneous_slack
        if instantaneous_slack < 0.0:
            reward -= reward_params.miss_penalty_weight * (-instantaneous_slack)
        self._reward_history.append(reward)

        # (2) Per-core workload prediction.  In eq.-7 mode the round-robin
        # core's normalised share defines the state; in the default capacity
        # mode the cluster's predicted critical path (the largest per-core
        # prediction) does, since that is what the shared V-F domain must
        # accommodate.
        cycles = previous.cycles_per_core
        predictors = self._core_predictors
        num_cores = len(predictors)
        if len(cycles) != num_cores:  # missing cores read as idle; extra ones are ignored
            cycles = (tuple(cycles) + (0.0,) * num_cores)[:num_cores]
        predictions = [
            predictor.observe(core_cycles) for predictor, core_cycles in zip(predictors, cycles)
        ]
        focus_core = self._round_robin_core
        if self.config.use_total_share_normalisation:
            normalised = self._state_space.normalise_workload(
                predictions[focus_core],
                capacity_cycles=self.platform.capacity_cycles(self.requirement.tref_s),
                all_core_predictions=predictions,
            )
        else:
            # Critical-path prediction mapped onto the application's
            # characterised workload range (online pre-characterisation).
            range_tracker = self._range_tracker
            range_tracker.observe(previous.max_cycles)
            normalised = range_tracker.normalise(max(predictions))
        next_state = self._state_space.state_index(normalised, average_slack)

        # (3) Bellman update of the previous state-action pair in the shared
        # table, fused with (4) the selection of the next action.
        if self._pending_state is not None and self._pending_action is not None:
            action, _sampled, exploiting = agent.update_and_select(
                self._pending_state,
                self._pending_action,
                reward,
                next_state,
                average_slack,
                progress_reward=progress_reward,
            )
        else:  # pragma: no cover - pending pair always exists after epoch 0
            action, _sampled = agent.select_action(next_state, average_slack)
            exploiting = agent.is_exploiting
        self._convergence.observe(
            action,
            explored=not exploiting,
            policy_changed=agent.last_update_changed_policy,
        )
        self._pending_state = next_state
        self._pending_action = action
        self._round_robin_core = (focus_core + 1) % num_cores
        self._last_overhead_s = (
            self._overhead_exploiting_s if exploiting else self._overhead_learning_s
        )
        return action

    def describe(self) -> str:
        return (
            f"{self.name}: shared Q-table, round-robin updates over "
            f"{self.platform.num_cores} cores"
        )
