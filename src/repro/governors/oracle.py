"""Oracle governor: offline-optimal per-frame V-F selection.

The paper normalises every approach's energy against an "Oracle" obtained
by offline determination of the optimal V-F setting for the observed CPU
workloads.  With perfect knowledge of the upcoming frame's cycle demand the
energy-optimal choice on a platform with non-negligible idle power is the
*slowest operating point that still meets the deadline* (the convexity of
``P(V, f)`` makes any faster point strictly worse once the idle remainder of
the frame period is accounted for).

The Oracle therefore consumes the :class:`~repro.rtm.governor.FrameHint`
that the simulation engine passes to every governor and that honest online
governors ignore.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GovernorError
from repro.rtm.governor import EpochObservation, FrameHint, Governor
from repro.workload.application import Application


class OracleGovernor(Governor):
    """Per-frame optimal governor with perfect workload knowledge.

    Parameters
    ----------
    guard_band:
        Fractional safety margin applied to the deadline.  The small default
        covers the DVFS transition latency and governor bookkeeping charged
        to each epoch, so the Oracle's choice still meets the deadline after
        those overheads.
    """

    name = "oracle"

    def __init__(self, guard_band: float = 0.02) -> None:
        super().__init__()
        if not 0.0 <= guard_band < 1.0:
            raise GovernorError("guard_band must lie in [0, 1)")
        self.guard_band = guard_band

    def decide(
        self,
        previous: Optional[EpochObservation],
        hint: Optional[FrameHint] = None,
    ) -> int:
        if hint is None:
            raise GovernorError(
                "the Oracle governor requires a FrameHint with the upcoming frame's demand"
            )
        table = self.platform.vf_table
        effective_deadline = hint.deadline_s * (1.0 - self.guard_band)
        return table.lowest_index_meeting(hint.max_cycles, effective_deadline)

    def static_schedule(self, application: Application) -> Optional[List[int]]:
        """The Oracle's whole schedule, computed up front from the frame trace.

        Per-frame this is exactly :meth:`decide` on the hint the engine
        would pass: ``lowest_index_meeting`` over the guard-banded deadline,
        so the static-schedule fast path chooses bit-identical operating points.
        """
        table = self.platform.vf_table
        num_cores = self.platform.num_cores
        margin = 1.0 - self.guard_band
        return [
            table.lowest_index_meeting(max(cycles), frame.deadline_s * margin)
            for cycles, frame in zip(application.cycles_per_core(num_cores), application)
        ]

    def describe(self) -> str:
        return "oracle: slowest deadline-meeting operating point with perfect knowledge"
