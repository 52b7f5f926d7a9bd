"""Video-decoder workload models (MPEG-4 and H.264).

The paper's main evaluation decodes an H.264 "football" sequence of roughly
3000 frames, and its Fig. 3 analysis decodes MPEG-4 at 24 SVGA fps.  Video
decoding has a very characteristic workload structure:

* frames belong to a group-of-pictures (GOP) pattern — I frames are the most
  expensive to decode, P frames cheaper, B frames cheapest;
* scene changes and high-motion passages (frequent in sports footage) raise
  the demand of whole stretches of frames;
* frame-to-frame jitter is substantial.

This model reproduces that structure with a GOP pattern, a slowly varying
motion/complexity process (a bounded random walk with occasional scene-change
jumps) and per-frame jitter, which yields the high workload variability the
paper reports for MPEG-4/H.264 (many Q-table states visited → long
exploration) in contrast to the FFT's low variability.
"""

from __future__ import annotations

import random
from typing import Optional

from repro._compat import left_sum
from repro.errors import WorkloadError
from repro.workload.application import Application
from repro.workload.generators import WorkloadGenerator, truncated_gauss
from repro.workload.threads import DominantThreadSplit, ThreadSplitModel

#: Relative decode cost of each frame type (P frame = 1.0).  The ratios are
#: deliberately mild: the paper's periodic transformation spreads a frame's
#: decode work over several worker threads, which smooths the classic
#: I/P/B cost gap, and its Fig. 3 reports per-frame workload mispredictions
#: of only 3-8% — i.e. the per-frame demand seen by the RTM is dominated by
#: the slowly varying motion/complexity level rather than by frame type.
_FRAME_TYPE_COST = {"I": 1.22, "P": 1.0, "B": 0.90}

#: Default GOP pattern (IBBPBBPBBPBB, GOP length 12) typical of broadcast content.
DEFAULT_GOP_PATTERN = "IBBPBBPBBPBB"


class VideoWorkloadModel(WorkloadGenerator):
    """GOP-structured stochastic video-decode workload.

    Parameters
    ----------
    name:
        Application name.
    frames_per_second:
        Target decode rate (the performance requirement).
    mean_frame_cycles:
        Mean total cycle demand per frame (summed over threads), averaged
        over the GOP.
    gop_pattern:
        String of ``I``/``P``/``B`` characters repeated over the sequence.
    motion_sigma:
        Step size of the motion/complexity random walk (relative).
    scene_change_probability:
        Per-frame probability of a scene change, which re-randomises the
        complexity level and forces an I-frame-like cost spike.
    jitter_cv:
        Coefficient of variation of the per-frame noise.
    frame_type_costs:
        Optional override of the relative I/P/B decode costs (defaults to
        :data:`_FRAME_TYPE_COST`).
    forced_scene_change_frames:
        Frame indices at which a scene change is forced regardless of the
        random draw.  Used to model content with a known structure (e.g. the
        cut-heavy opening of a sports clip) so that prediction-error studies
        see the transient the paper's Fig. 3 reports.
    """

    def __init__(
        self,
        name: str,
        frames_per_second: float,
        mean_frame_cycles: float,
        gop_pattern: str = DEFAULT_GOP_PATTERN,
        motion_sigma: float = 0.03,
        scene_change_probability: float = 0.01,
        jitter_cv: float = 0.08,
        num_threads: int = 4,
        split_model: Optional[ThreadSplitModel] = None,
        seed: int = 0,
        reference_time_s: Optional[float] = None,
        frame_type_costs: Optional[dict] = None,
        forced_scene_change_frames: tuple = (),
    ) -> None:
        super().__init__(
            name=name,
            frames_per_second=frames_per_second,
            num_threads=num_threads,
            split_model=split_model or DominantThreadSplit(dominant_share=0.3, jitter=0.15),
            seed=seed,
            reference_time_s=reference_time_s,
        )
        if mean_frame_cycles <= 0:
            raise WorkloadError("mean_frame_cycles must be positive")
        self.frame_type_costs = dict(_FRAME_TYPE_COST if frame_type_costs is None else frame_type_costs)
        if not gop_pattern or any(ch not in self.frame_type_costs for ch in gop_pattern):
            raise WorkloadError(
                f"gop_pattern must be a non-empty string of I/P/B characters, got {gop_pattern!r}"
            )
        if not 0.0 <= scene_change_probability <= 1.0:
            raise WorkloadError("scene_change_probability must lie in [0, 1]")
        self.mean_frame_cycles = mean_frame_cycles
        self.gop_pattern = gop_pattern
        self.motion_sigma = motion_sigma
        self.scene_change_probability = scene_change_probability
        self.jitter_cv = jitter_cv
        self.forced_scene_change_frames = tuple(forced_scene_change_frames)
        # Normalise the GOP costs so the long-run mean equals mean_frame_cycles.
        mean_cost = left_sum(self.frame_type_costs[ch] for ch in gop_pattern) / len(gop_pattern)
        self._base_cycles = mean_frame_cycles / mean_cost
        # Complexity random-walk state; reset whenever a fresh generate() starts
        # because frame_cycles() is always called with increasing indices from 0.
        self._complexity = 1.0

    def frame_kind(self, frame_index: int) -> str:
        return self.gop_pattern[frame_index % len(self.gop_pattern)]

    def frame_cycles(self, frame_index: int, rng: random.Random) -> float:
        if frame_index == 0:
            self._complexity = 1.0
        frame_type = self.frame_kind(frame_index)
        type_cost = self.frame_type_costs[frame_type]

        # Slowly varying motion/complexity process, bounded to [0.8, 1.25].
        self._complexity += rng.gauss(0.0, self.motion_sigma)
        scene_change = (
            rng.random() < self.scene_change_probability
            or frame_index in self.forced_scene_change_frames
        )
        if scene_change:
            # A scene change re-randomises complexity and costs an I-frame.
            self._complexity = rng.uniform(0.9, 1.25)
            type_cost = max(type_cost, self.frame_type_costs["I"])
        self._complexity = min(1.25, max(0.8, self._complexity))

        mean = self._base_cycles * type_cost * self._complexity
        return truncated_gauss(rng, mean, mean * self.jitter_cv, minimum=0.1 * mean)


def mpeg4_application(
    num_frames: int = 300,
    frames_per_second: float = 24.0,
    mean_frame_cycles: float = 7.5e7,
    seed: int = 7,
    num_threads: int = 4,
) -> Application:
    """MPEG-4 SVGA decode at 24 fps, as analysed in the paper's Fig. 3.

    The default mean demand of 7.5e7 cycles/frame keeps the heaviest frames
    (I-frames during high-motion passages) just inside the A15 cluster's
    capacity at 2 GHz for a 41.7 ms frame period, leaving the DVFS headroom
    that makes the control problem interesting.
    """
    model = VideoWorkloadModel(
        name="mpeg4",
        frames_per_second=frames_per_second,
        mean_frame_cycles=mean_frame_cycles,
        motion_sigma=0.015,
        scene_change_probability=0.006,
        jitter_cv=0.015,
        num_threads=num_threads,
        seed=seed,
        # The decode work of an SVGA-resolution stream is spread over worker
        # threads, which largely evens out the I/P/B cost gap; what remains
        # is the scene structure below.
        frame_type_costs={"I": 1.05, "P": 1.0, "B": 0.97},
        # A cut-heavy opening (typical of broadcast content) concentrates
        # scene changes in the first ~90 frames — the source of the larger
        # mispredictions the paper reports for the early/exploration frames.
        forced_scene_change_frames=(5, 12, 20, 30, 42, 55, 70, 85),
    )
    return model.generate(num_frames)


def h264_football_application(
    num_frames: int = 3000,
    frames_per_second: float = 25.0,
    mean_frame_cycles: float = 8.5e7,
    seed: int = 11,
    num_threads: int = 4,
) -> Application:
    """H.264 decode of a football sequence (~3000 frames), the paper's Table I workload.

    Sports footage has frequent high-motion passages and scene cuts, so this
    preset uses a larger motion step and scene-change probability than the
    generic MPEG-4 preset, giving the higher workload variability the paper
    attributes to it.
    """
    model = VideoWorkloadModel(
        name="h264-football",
        frames_per_second=frames_per_second,
        mean_frame_cycles=mean_frame_cycles,
        motion_sigma=0.035,
        scene_change_probability=0.016,
        jitter_cv=0.09,
        num_threads=num_threads,
        seed=seed,
    )
    return model.generate(num_frames)


def h264_application(
    num_frames: int = 300,
    frames_per_second: float = 15.0,
    mean_frame_cycles: float = 1.3e8,
    seed: int = 13,
    num_threads: int = 4,
) -> Application:
    """H.264 decode at 15 fps, the configuration used in the paper's Table II."""
    model = VideoWorkloadModel(
        name="h264",
        frames_per_second=frames_per_second,
        mean_frame_cycles=mean_frame_cycles,
        motion_sigma=0.035,
        scene_change_probability=0.014,
        jitter_cv=0.09,
        num_threads=num_threads,
        seed=seed,
    )
    return model.generate(num_frames)


def ffmpeg_decode_application(
    num_frames: int = 400,
    frames_per_second: float = 25.0,
    reference_time_s: float = 0.031,
    mean_frame_cycles: float = 6.5e7,
    seed: int = 5,
    num_threads: int = 4,
) -> Application:
    """The ffmpeg decode workload of the paper's Table III (Tref = 31 ms)."""
    model = VideoWorkloadModel(
        name="ffmpeg-decode",
        frames_per_second=frames_per_second,
        reference_time_s=reference_time_s,
        mean_frame_cycles=mean_frame_cycles,
        motion_sigma=0.03,
        scene_change_probability=0.012,
        jitter_cv=0.08,
        num_threads=num_threads,
        seed=seed,
    )
    return model.generate(num_frames)
