"""repro — reproduction of "Machine Learning for Run-Time Energy Optimisation
in Many-Core Systems" (Biswas et al., DATE 2017).

The package is organised in layers mirroring the paper's cross-layer view:

* :mod:`repro.platform` — the hardware substrate (the ODROID-XU3's A15
  cluster with DVFS, power, thermal and sensor models);
* :mod:`repro.workload` — the application layer (frame-based periodic
  applications and stochastic workload models for video decoding, FFT and
  PARSEC / SPLASH-2-like benchmarks);
* :mod:`repro.rtm` — the run-time layer: the proposed Q-learning run-time
  manager and its building blocks;
* :mod:`repro.governors` — the baseline DVFS policies the paper compares
  against (ondemand, the multi-core DVFS learning controller, the UPD
  Q-learning manager, the Oracle, and the remaining stock Linux policies);
* :mod:`repro.sim` — the closed-loop simulation engine, its results and
  their aggregate metrics;
* :mod:`repro.experiments` — one driver per paper table / figure;
* :mod:`repro.analysis` — statistics and plain-text reporting helpers.

The public names below are resolved lazily (PEP 562, see
:mod:`repro._lazy`): ``import repro`` runs this file only, and a name's
defining module is imported when the name is first read.

Quickstart
----------
>>> from repro import build_a15_cluster, mpeg4_application
>>> from repro.rtm import MultiCoreRLGovernor
>>> from repro.sim import SimulationEngine
>>> engine = SimulationEngine(build_a15_cluster())
>>> result = engine.run(mpeg4_application(num_frames=120), MultiCoreRLGovernor())
>>> round(result.normalized_performance, 2) <= 1.1
True
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.version": ("__version__", "PAPER_TITLE", "PAPER_VENUE"),
        "repro.errors": (
            "ReproError",
            "ConfigurationError",
            "PlatformError",
            "WorkloadError",
            "GovernorError",
            "SimulationError",
            "StateSpaceError",
        ),
        "repro.platform": (
            "OperatingPoint",
            "VFTable",
            "PowerModel",
            "Cluster",
            "build_a15_cluster",
            "A15_VF_TABLE",
        ),
        "repro.workload": (
            "Frame",
            "Application",
            "PerformanceRequirement",
            "mpeg4_application",
            "h264_application",
            "h264_football_application",
            "fft_application",
            "parsec_application",
            "splash2_application",
        ),
        "repro.rtm": ("RLGovernor", "MultiCoreRLGovernor", "RLGovernorConfig"),
        "repro.governors": (
            "OndemandGovernor",
            "OracleGovernor",
            "MultiCoreDVFSGovernor",
            "ShenRLGovernor",
            "PerformanceGovernor",
            "PowersaveGovernor",
        ),
        "repro.sim": ("SimulationEngine", "SimulationConfig"),
        "repro.campaign": (
            "CampaignSpec",
            "ScenarioSpec",
            "FactorySpec",
            "CampaignResult",
            "ScenarioOutcome",
            "CampaignExecutor",
            "CampaignInterrupted",
            "RetryPolicy",
            "run_campaign",
            "register_application",
            "register_governor",
            "register_cluster",
            "register_probe",
        ),
    },
)
