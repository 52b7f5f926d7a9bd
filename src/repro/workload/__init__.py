"""Workload substrate: frame-based applications and synthetic workload models.

The paper transforms every application (MPEG-4/H.264 decode, FFT, PARSEC,
SPLASH-2) into a *periodic* structure: a sequence of frames, each with a
deadline derived from the target frame rate, where each frame spawns
multiple threads performing the work.  This subpackage provides

* the frame/application abstractions (:mod:`repro.workload.task`,
  :mod:`repro.workload.application`),
* stochastic generators reproducing the workload *statistics* the paper's
  applications exhibit (:mod:`repro.workload.video`,
  :mod:`repro.workload.fft`, :mod:`repro.workload.parsec`,
  :mod:`repro.workload.splash2`), and
* thread-split models (:mod:`repro.workload.threads`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workload.task": ("Frame",),
        "repro.workload.application": ("Application", "PerformanceRequirement"),
        "repro.workload.generators": ("WorkloadGenerator", "PhaseSpec", "PhasedWorkloadGenerator"),
        "repro.workload.threads": ("ThreadSplitModel", "EvenSplit", "ImbalancedSplit"),
        "repro.workload.video": (
            "VideoWorkloadModel",
            "mpeg4_application",
            "h264_application",
            "h264_football_application",
            "ffmpeg_decode_application",
        ),
        "repro.workload.fft": ("FFTWorkloadModel", "fft_application"),
        "repro.workload.parsec": ("parsec_application", "PARSEC_BENCHMARKS"),
        "repro.workload.splash2": ("splash2_application", "SPLASH2_BENCHMARKS"),
    },
)
