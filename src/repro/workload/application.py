"""Frame-based periodic application model and its performance-requirement API.

In the paper's cross-layer view the application layer specifies its
performance requirement (frames per second / per-frame deadline) to the
run-time layer through an API; the run-time manager then controls DVFS to
meet that requirement at minimum energy.  :class:`PerformanceRequirement`
is that API surface and :class:`Application` is the sequence of frames a
run executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workload.task import Frame


@dataclass(frozen=True)
class PerformanceRequirement:
    """The application's declared performance requirement.

    Attributes
    ----------
    frames_per_second:
        Target frame rate.
    reference_time_s:
        Per-frame time budget ``Tref``; by default ``1 / fps`` but an
        application may declare a tighter budget (the paper's ffmpeg
        overhead experiment uses ``Tref = 31 ms``).
    """

    frames_per_second: float
    reference_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.frames_per_second <= 0:
            raise WorkloadError("frames_per_second must be positive")
        if self.reference_time_s is not None and self.reference_time_s <= 0:
            raise WorkloadError("reference_time_s must be positive when given")

    @property
    def tref_s(self) -> float:
        """The effective per-frame reference time ``Tref``."""
        if self.reference_time_s is not None:
            return self.reference_time_s
        return 1.0 / self.frames_per_second


class Application:
    """A named sequence of frames with a performance requirement."""

    def __init__(
        self,
        name: str,
        frames: Iterable[Frame],
        requirement: PerformanceRequirement,
        description: str = "",
    ) -> None:
        self.name = name
        self.requirement = requirement
        self.description = description
        self._frames: List[Frame] = list(frames)
        if not self._frames:
            raise WorkloadError(f"application {name!r} has no frames")
        for position, frame in enumerate(self._frames):
            if frame.index != position:
                raise WorkloadError(
                    f"frame at position {position} has index {frame.index}; "
                    "frames must be numbered consecutively from 0"
                )

    # -- container protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __getitem__(self, index: int) -> Frame:
        return self._frames[index]

    def __repr__(self) -> str:
        return (
            f"Application(name={self.name!r}, frames={len(self)}, "
            f"fps={self.requirement.frames_per_second:g})"
        )

    # -- convenience accessors ----------------------------------------------------
    @property
    def frames(self) -> Sequence[Frame]:
        """All frames, in execution order."""
        return tuple(self._frames)

    def cycles_per_core(self, num_cores: int) -> List[Tuple[float, ...]]:
        """Every frame's :meth:`~repro.workload.task.Frame.cycles_per_core`, in order.

        When every frame runs one thread per core, each row is the frame's
        own ``thread_cycles`` tuple (that method's identity mapping), read
        without a call per frame.
        """
        rows = list(map(attrgetter("thread_cycles"), self._frames))
        if set(map(len, rows)) == {num_cores}:
            return rows
        return [frame.cycles_per_core(num_cores) for frame in self._frames]

    @property
    def num_frames(self) -> int:
        """Number of frames in the application."""
        return len(self._frames)

    @property
    def reference_time_s(self) -> float:
        """The per-frame performance requirement ``Tref``."""
        return self.requirement.tref_s

    @property
    def total_cycles(self) -> float:
        """Total cycle demand summed over all frames and threads."""
        return sum(frame.total_cycles for frame in self._frames)

    @property
    def mean_frame_cycles(self) -> float:
        """Mean total cycle demand per frame."""
        return self.total_cycles / len(self._frames)

    def workload_variability(self) -> float:
        """Coefficient of variation of per-frame total cycles.

        The paper attributes the different exploration counts of Table II to
        the applications' inherent workload variability; this statistic is
        the quantitative handle on that property.
        """
        n = len(self._frames)
        mean = self.mean_frame_cycles
        if mean <= 0:
            return 0.0
        variance = sum((f.total_cycles - mean) ** 2 for f in self._frames) / n
        return (variance ** 0.5) / mean

    def truncated(self, num_frames: int, name: Optional[str] = None) -> "Application":
        """Return a copy containing only the first ``num_frames`` frames."""
        if num_frames <= 0:
            raise WorkloadError("num_frames must be positive")
        frames = self._frames[:num_frames]
        return Application(
            name=name or self.name,
            frames=frames,
            requirement=self.requirement,
            description=self.description,
        )
