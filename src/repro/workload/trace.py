"""Frame-trace container with CSV/JSON round-trip and summary statistics.

The paper's experimental data was published as a trace archive (DOI
10.5258/SOTON/404064).  We cannot fetch it offline, but the library keeps
the same workflow available: any generated :class:`~repro.workload.application.Application`
can be exported to a trace file, re-imported, summarised and replayed, so a
user who does obtain real per-frame cycle traces can feed them straight into
the simulator.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Union

from repro.errors import WorkloadError
from repro.workload.application import Application, PerformanceRequirement
from repro.workload.task import Frame

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceSummary:
    """Summary statistics of a frame trace."""

    num_frames: int
    num_threads: int
    mean_total_cycles: float
    min_total_cycles: float
    max_total_cycles: float
    coefficient_of_variation: float
    reference_time_s: float


class FrameTrace:
    """A serialisable record of an application's per-frame cycle demands."""

    def __init__(self, application_name: str, frames: Sequence[Frame], frames_per_second: float,
                 reference_time_s: float) -> None:
        if not frames:
            raise WorkloadError("a trace requires at least one frame")
        self.application_name = application_name
        self.frames: List[Frame] = list(frames)
        self.frames_per_second = frames_per_second
        self.reference_time_s = reference_time_s

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_application(cls, application: Application) -> "FrameTrace":
        """Capture an application's frames into a trace."""
        return cls(
            application_name=application.name,
            frames=application.frames,
            frames_per_second=application.requirement.frames_per_second,
            reference_time_s=application.reference_time_s,
        )

    def to_application(self, name: str = "") -> Application:
        """Rebuild an :class:`Application` from the trace."""
        requirement = PerformanceRequirement(
            frames_per_second=self.frames_per_second,
            reference_time_s=self.reference_time_s,
        )
        return Application(
            name=name or self.application_name,
            frames=self.frames,
            requirement=requirement,
            description="replayed from trace",
        )

    # -- statistics ---------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Compute summary statistics over the trace."""
        from repro.analysis.stats import coefficient_of_variation, mean

        totals = [f.total_cycles for f in self.frames]
        return TraceSummary(
            num_frames=len(totals),
            num_threads=self.frames[0].num_threads,
            mean_total_cycles=mean(totals),
            min_total_cycles=min(totals),
            max_total_cycles=max(totals),
            coefficient_of_variation=coefficient_of_variation(totals),
            reference_time_s=self.reference_time_s,
        )

    # -- CSV ------------------------------------------------------------------------
    def to_csv(self, path: PathLike) -> None:
        """Write the trace as CSV: one row per frame, one column per thread."""
        path = Path(path)
        num_threads = max(f.num_threads for f in self.frames)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            header = ["frame", "kind", "deadline_s"] + [
                f"thread_{i}_cycles" for i in range(num_threads)
            ]
            writer.writerow(header)
            for frame in self.frames:
                cycles = list(frame.thread_cycles) + [0.0] * (num_threads - frame.num_threads)
                writer.writerow([frame.index, frame.kind, repr(frame.deadline_s)] + [repr(c) for c in cycles])

    @classmethod
    def from_csv(
        cls,
        path: PathLike,
        application_name: str,
        frames_per_second: float,
        reference_time_s: float,
    ) -> "FrameTrace":
        """Read a trace written by :meth:`to_csv`."""
        path = Path(path)
        frames: List[Frame] = []
        with path.open("r", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise WorkloadError(f"trace file {path} is empty")
            thread_columns = [c for c in header if c.startswith("thread_")]
            for row in reader:
                if not row:
                    continue
                index = int(row[0])
                kind = row[1]
                deadline = float(row[2])
                cycles = tuple(float(v) for v in row[3:3 + len(thread_columns)])
                frames.append(Frame(index=index, thread_cycles=cycles, deadline_s=deadline, kind=kind))
        return cls(
            application_name=application_name,
            frames=frames,
            frames_per_second=frames_per_second,
            reference_time_s=reference_time_s,
        )

    # -- JSON --------------------------------------------------------------------------
    def to_json(self, path: PathLike) -> None:
        """Write the trace (including metadata) as a JSON document."""
        document = {
            "application_name": self.application_name,
            "frames_per_second": self.frames_per_second,
            "reference_time_s": self.reference_time_s,
            "frames": [
                {
                    "index": frame.index,
                    "kind": frame.kind,
                    "deadline_s": frame.deadline_s,
                    "thread_cycles": list(frame.thread_cycles),
                }
                for frame in self.frames
            ],
        }
        Path(path).write_text(json.dumps(document, indent=2))

    @classmethod
    def from_json(cls, path: PathLike) -> "FrameTrace":
        """Read a trace written by :meth:`to_json`."""
        document = json.loads(Path(path).read_text())
        try:
            frames = [
                Frame(
                    index=entry["index"],
                    thread_cycles=tuple(entry["thread_cycles"]),
                    deadline_s=entry["deadline_s"],
                    kind=entry.get("kind", ""),
                )
                for entry in document["frames"]
            ]
            return cls(
                application_name=document["application_name"],
                frames=frames,
                frames_per_second=document["frames_per_second"],
                reference_time_s=document["reference_time_s"],
            )
        except KeyError as exc:
            raise WorkloadError(f"trace file {path} is missing field {exc}") from exc

    def __len__(self) -> int:
        return len(self.frames)

    def __repr__(self) -> str:
        return f"FrameTrace({self.application_name!r}, {len(self.frames)} frames)"
