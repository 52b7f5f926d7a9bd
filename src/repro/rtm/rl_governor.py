"""The proposed run-time manager as a DVFS governor (single-cluster formulation).

This is the paper's contribution wired together: at each decision epoch
:meth:`RLGovernor.decide`

1. computes the pay-off for the epoch that just finished (eqs. 4 and 5),
2. predicts the next epoch's workload with the EWMA filter (eq. 1) and
   maps it and the current average slack into a discrete state,
3. updates the Q-table entry of the previous state-action pair (eq. 3),
4. selects the next V-F action — explorative (EPD, eq. 2) or greedy —
   according to the ε schedule (eq. 6).

Steps 3 and 4 are the agent's ``update`` and ``select_action``.  The
many-core variant in :mod:`repro.rtm.multicore` reuses this ``decide`` and
overrides only its two workload hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.rtm.exploration import ActionSelectionPolicy, ExponentialPolicy, UniformPolicy
from repro.rtm.governor import EpochObservation, FrameHint, Governor, PlatformInfo
from repro.rtm.overhead import ConvergenceDetector, OverheadModel
from repro.rtm.prediction import EWMAPredictor, WorkloadPredictor
from repro.rtm.qlearning import QLearningAgent, QLearningParameters
from repro.rtm.rewards import RewardParameters, SlackTracker, compute_reward
from repro.rtm.state import StateSpace, WorkloadNormalisation, WorkloadRangeTracker
from repro.workload.application import PerformanceRequirement


@dataclass
class RLGovernorConfig:
    """Configuration of the proposed RL governor.

    The defaults follow the paper: N = 5 discretisation levels for both the
    workload and the slack, EWMA smoothing factor 0.6, EPD exploration and
    confirmation-gated ε decay.

    Attributes
    ----------
    slack_window:
        Number of recent epochs the average slack ratio L runs over.
        ``None`` reproduces eq. (5) literally (cumulative average since the
        application start); the default of 8 keeps L responsive enough for
        per-action credit assignment on multi-thousand-frame runs (see
        DESIGN.md, "deviations").
    use_total_share_normalisation:
        Many-core formulation only: if True, normalise each core's predicted
        workload by the *total* predicted workload (the paper's eq. 7);
        if False (default), normalise the cluster's critical-path prediction
        by the per-core cycle capacity, which preserves the absolute load
        information a single shared V-F domain needs.
    """

    workload_levels: int = 5
    slack_levels: int = 5
    ewma_gamma: float = 0.6
    slack_window: Optional[int] = 8
    learning: QLearningParameters = field(default_factory=QLearningParameters)
    reward: RewardParameters = field(default_factory=RewardParameters)
    exploration_beta: float = 12.0
    use_exponential_exploration: bool = True
    use_total_share_normalisation: bool = False
    overhead: OverheadModel = field(default_factory=OverheadModel)
    convergence_window: int = 20
    seed: int = 0

    def make_policy(self) -> ActionSelectionPolicy:
        """Build the configured exploration policy (EPD by default, UPD otherwise)."""
        if self.use_exponential_exploration:
            return ExponentialPolicy(beta=self.exploration_beta)
        return UniformPolicy()


class RLGovernor(Governor):
    """The paper's Q-learning run-time manager for a single shared V-F domain."""

    name = "proposed-rl"

    def __init__(self, config: Optional[RLGovernorConfig] = None) -> None:
        super().__init__()
        self.config = config or RLGovernorConfig()
        if not self.config.use_exponential_exploration:
            self.name = f"{self.name}-upd"
        # Learning machinery is created in setup() because it needs the
        # platform's action space and the application's reference time.
        self._agent: Optional[QLearningAgent] = None
        self._predictor: Optional[WorkloadPredictor] = None
        self._slack_tracker: Optional[SlackTracker] = None
        self._state_space: Optional[StateSpace] = None
        self._range_tracker: Optional[WorkloadRangeTracker] = None
        self._convergence: Optional[ConvergenceDetector] = None
        self._pending_state: Optional[int] = None
        self._pending_action: Optional[int] = None
        self._last_overhead_s = 0.0
        self._reward_history: List[float] = []

    # -- lifecycle ------------------------------------------------------------------
    def setup(self, platform: PlatformInfo, requirement: PerformanceRequirement) -> None:
        super().setup(platform, requirement)
        config = self.config
        self._state_space = self._make_state_space()
        self._agent = QLearningAgent(
            num_states=self._state_space.num_states,
            num_actions=platform.num_actions,
            action_frequencies_hz=platform.vf_table.frequencies_hz,
            parameters=config.learning,
            policy=config.make_policy(),
            seed=config.seed,
        )
        self._setup_predictors(platform)
        self._slack_tracker = SlackTracker(requirement.tref_s, window=config.slack_window)
        self._range_tracker = WorkloadRangeTracker()
        self._convergence = ConvergenceDetector(
            window=config.convergence_window, track_action_range=False
        )
        self._pending_state = None
        self._pending_action = None
        self._last_overhead_s = 0.0
        self._reward_history = []
        # The per-epoch overheads are constants of the overhead model; the
        # hot loop picks one of the two instead of re-deriving them.
        self._overhead_learning_s = config.overhead.epoch_overhead_s(learning=True)
        self._overhead_exploiting_s = config.overhead.epoch_overhead_s(learning=False)

    def _setup_predictors(self, platform: PlatformInfo) -> None:
        """Build the workload predictor(s): one for the cluster's critical path."""
        self._predictor = EWMAPredictor(gamma=self.config.ewma_gamma)

    def _make_state_space(self) -> StateSpace:
        """State space used by the single-cluster formulation (capacity normalisation)."""
        return StateSpace(
            workload_levels=self.config.workload_levels,
            slack_levels=self.config.slack_levels,
            normalisation=WorkloadNormalisation.CAPACITY,
        )

    # -- introspection -----------------------------------------------------------------
    @property
    def agent(self) -> QLearningAgent:
        """The underlying Q-learning agent (raises before setup)."""
        if self._agent is None:
            raise ConfigurationError("RLGovernor used before setup()")
        return self._agent

    @property
    def predictor(self) -> WorkloadPredictor:
        """The workload predictor (raises before setup, and on a many-core learner)."""
        if self._predictor is None:
            raise ConfigurationError(
                f"{type(self).__name__} has no single workload predictor "
                "(before setup(); a many-core learner has core_predictors)"
            )
        return self._predictor

    @property
    def slack_tracker(self) -> SlackTracker:
        """The average-slack tracker (raises before setup)."""
        if self._slack_tracker is None:
            raise ConfigurationError("RLGovernor used before setup()")
        return self._slack_tracker

    @property
    def state_space(self) -> StateSpace:
        """The discretised state space (raises before setup)."""
        if self._state_space is None:
            raise ConfigurationError("RLGovernor used before setup()")
        return self._state_space

    @property
    def exploration_count(self) -> int:
        """Number of decision epochs spent in the exploration phase (Table II quantity).

        The exploration phase is the learning period before the ε schedule
        (eq. 6) decays to its floor and the RTM switches to pure
        exploitation; the paper's Table II compares how many such epochs the
        EPD- and UPD-guided learners need.
        """
        agent = self._agent
        return 0 if agent is None else agent.exploration_phase_length

    @property
    def exploration_draw_count(self) -> int:
        """Number of epochs whose action was sampled from the exploration policy."""
        agent = self._agent
        return 0 if agent is None else agent.exploration_draws

    @property
    def exploration_frozen(self) -> bool:
        """True once the ε schedule has decayed for good (pure exploitation).

        ε never rises within a run, so once the agent is exploiting the
        exploration phase length is final and engines may stop polling
        :attr:`exploration_count`.
        """
        agent = self._agent
        return agent is not None and agent.is_exploiting

    @property
    def converged_epoch(self) -> Optional[int]:
        """Epoch at which the learnt policy settled (Table III quantity)."""
        convergence = self._convergence
        return None if convergence is None else convergence.converged_epoch

    @property
    def processing_overhead_s(self) -> float:
        """Per-epoch decision overhead charged to the application (T_OVH component)."""
        return self._last_overhead_s

    @property
    def reward_history(self) -> List[float]:
        """Pay-off computed at each decision epoch."""
        return list(self._reward_history)

    def decision_state(self) -> Dict[str, Any]:
        """Base snapshot plus the learnt state the parity harness must diff.

        Two engine backends only count as equivalent for a learning governor
        if they leave the *learnt policy* identical, not just the decision
        trajectory — so the snapshot includes the full Q-table (values and
        visit counts), the exploration bookkeeping and the reward history
        length.
        """
        state = super().decision_state()
        agent = self._agent
        if agent is not None:
            table = agent.qtable
            state["qtable_values"] = [
                list(table.row(row)) for row in range(table.num_states)
            ]
            state["qtable_visit_counts"] = [
                [table.visit_count(row, col) for col in range(table.num_actions)]
                for row in range(table.num_states)
            ]
            state["exploration_draws"] = agent.exploration_draws
            state["update_count"] = agent.update_count
            state["epsilon"] = agent.epsilon
            state["reward_count"] = len(self._reward_history)
        return state

    # -- the per-epoch decision ------------------------------------------------------------
    def _initial_workload(self) -> float:
        """Normalised workload of the first state: full load, like the first action."""
        return 1.0

    def _observe_workload(self, previous: EpochObservation) -> float:
        """Record the finished epoch and return the next one's normalised workload.

        The prediction (eq. 1) is of the critical-path (largest per-core)
        cycle count, which decides whether the shared V-F domain meets the
        deadline, normalised to the application's characterised range (the
        paper's pre-characterisation, performed online by the range tracker).
        """
        actual_workload = max(previous.cycles_per_core)
        range_tracker = self._range_tracker
        range_tracker.observe(actual_workload)
        return range_tracker.normalise(self._predictor.observe(actual_workload))

    def decide(
        self,
        previous: Optional[EpochObservation],
        hint: Optional[FrameHint] = None,
    ) -> int:
        agent = self._agent
        if agent is None:
            raise ConfigurationError(f"{type(self).__name__} used before setup()")
        if previous is None:
            # First epoch: nothing has been observed yet.  Start from the
            # fastest operating point (performance-safe) and remember the
            # state-action pair so it can be credited once the first
            # observation arrives.
            initial_state = self._state_space.state_index(self._initial_workload(), 0.0)
            initial_action = self.platform.num_actions - 1
            agent.qtable.record_visit(initial_state, initial_action)
            self._pending_state = initial_state
            self._pending_action = initial_action
            self._last_overhead_s = self._overhead_learning_s
            return initial_action

        # (1) Pay-off for the epoch that just finished (eqs. 4 and 5).  The
        # full pay-off differs from the progress pay-off only by the
        # per-frame miss penalty, so one evaluation serves both.
        tracker = self._slack_tracker
        reward_params = self.config.reward
        average_slack = tracker.update(previous.busy_time_s, previous.overhead_time_s)
        progress_reward = compute_reward(average_slack, tracker.slack_delta, reward_params)
        reward = progress_reward
        instantaneous_slack = tracker.last_instantaneous_slack
        if instantaneous_slack < 0.0:
            reward -= reward_params.miss_penalty_weight * (-instantaneous_slack)
        self._reward_history.append(reward)

        # (2) Predict the next epoch's workload (eq. 1) and map to a state.
        next_state = self._state_space.state_index(
            self._observe_workload(previous), average_slack
        )

        # (3) Update the Q-table entry for the previous state-action (eq. 3),
        # then (4) select the action for the next epoch (eqs. 2 and 6).
        agent.update(
            self._pending_state,
            self._pending_action,
            reward,
            next_state,
            progress_reward=progress_reward,
        )
        action, _explored = agent.select_action(next_state, average_slack)
        exploiting = agent.epsilon_schedule.is_exploiting
        self._convergence.observe(
            action,
            explored=not exploiting,
            policy_changed=agent.last_update_changed_policy,
        )
        self._pending_state = next_state
        self._pending_action = action
        self._last_overhead_s = (
            self._overhead_exploiting_s if exploiting else self._overhead_learning_s
        )
        return action

    def describe(self) -> str:
        policy = "EPD" if self.config.use_exponential_exploration else "UPD"
        return (
            f"{self.name}: Q-learning RTM ({self.state_space.workload_levels}x"
            f"{self.state_space.slack_levels} states, {policy} exploration)"
        )
