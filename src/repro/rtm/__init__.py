"""Run-time management (RTM): the paper's primary contribution.

This subpackage implements the Q-learning run-time manager of the paper and
all of its building blocks:

* :mod:`repro.rtm.prediction` — EWMA workload prediction (eq. 1) plus
  baseline predictors;
* :mod:`repro.rtm.state` — discretisation of workload and slack into the
  Q-table's state space (N levels each);
* :mod:`repro.rtm.qtable` — the Q-table itself;
* :mod:`repro.rtm.rewards` — the slack-ratio (eq. 5) and reward (eq. 4)
  computations;
* :mod:`repro.rtm.exploration` — EPD (eq. 2) and UPD action selection and
  the ε-decay schedule (eq. 6);
* :mod:`repro.rtm.qlearning` — the Q-learning agent with the Bellman
  update (eq. 3);
* :mod:`repro.rtm.governor` — the governor interface shared with the
  baseline governors in :mod:`repro.governors`;
* :mod:`repro.rtm.rl_governor` — the proposed RTM as a DVFS governor;
* :mod:`repro.rtm.multicore` — the many-core formulation (eq. 7): shared
  Q-table with round-robin per-core updates;
* :mod:`repro.rtm.overhead` — learning/adaptation overhead accounting
  (T_OVH) and convergence measurement;
* :mod:`repro.rtm.api` — the application-facing performance-requirement
  API of the cross-layer framework.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.rtm.governor": ("Governor", "PlatformInfo", "EpochObservation", "FrameHint"),
        "repro.rtm.prediction": (
            "WorkloadPredictor",
            "EWMAPredictor",
            "LastValuePredictor",
            "NLMSPredictor",
            "PredictionRecord",
            "MispredictionStats",
        ),
        "repro.rtm.state": ("StateSpace", "Discretizer", "WorkloadNormalisation"),
        "repro.rtm.qtable": ("QTable",),
        "repro.rtm.rewards": ("RewardParameters", "SlackTracker", "compute_reward"),
        "repro.rtm.exploration": (
            "ActionSelectionPolicy",
            "ExponentialPolicy",
            "UniformPolicy",
            "EpsilonSchedule",
        ),
        "repro.rtm.qlearning": ("QLearningAgent", "QLearningParameters"),
        "repro.rtm.rl_governor": ("RLGovernor", "RLGovernorConfig"),
        "repro.rtm.multicore": ("MultiCoreRLGovernor",),
        "repro.rtm.overhead": ("OverheadModel", "ConvergenceDetector"),
        "repro.rtm.api": ("RuntimeManagerAPI", "PerformanceTarget"),
    },
)
