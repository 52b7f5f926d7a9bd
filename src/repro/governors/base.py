"""Shared helpers for the baseline governors.

The governor *interface* lives in :mod:`repro.rtm.governor` (it is shared
with the proposed RTM); this module adds the small amount of machinery the
stock-policy baselines have in common.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GovernorError
from repro.rtm.governor import EpochObservation, FrameHint, Governor
from repro.workload.application import Application


class StaticGovernor(Governor):
    """A governor that always selects the same operating-point index.

    This is the building block for the ``performance`` (always fastest),
    ``powersave`` (always slowest) and ``userspace`` (caller-chosen) Linux
    policies.
    """

    name = "static"

    def __init__(self, index: Optional[int] = None) -> None:
        super().__init__()
        self._requested_index = index

    def _resolve_index(self) -> int:
        """Index the governor should hold; subclasses override for min/max behaviour."""
        if self._requested_index is None:
            raise GovernorError(f"governor {self.name!r} has no operating point configured")
        return self._requested_index

    def _validated_index(self) -> int:
        index = self._resolve_index()
        if not 0 <= index < self.platform.num_actions:
            raise GovernorError(
                f"{self.name!r} configured with index {index}, but the table has "
                f"{self.platform.num_actions} operating points"
            )
        return index

    def decide(
        self,
        previous: Optional[EpochObservation],
        hint: Optional[FrameHint] = None,
    ) -> int:
        return self._validated_index()

    def static_schedule(self, application: Application) -> Optional[List[int]]:
        """A pinned governor's schedule is its one index repeated per frame.

        The schedule snapshots the index configured at probe time; a caller
        that mutates a :class:`~repro.governors.userspace.UserspaceGovernor`
        *during* a run must run it on the scalar engine (the engine probes
        once, before the first frame).
        """
        return [self._validated_index()] * application.num_frames


def observed_load(observation: EpochObservation) -> float:
    """CPU load of an epoch as a cpufreq-style governor computes it.

    Load is the busy time of the epoch's critical path divided by the epoch's
    wall-clock interval, i.e. the fraction of the sampling window the CPU was
    not idle.  Values are clamped to [0, 1].
    """
    if observation.interval_s <= 0:
        return 0.0
    load = observation.busy_time_s / observation.interval_s
    # max(0.0, min(1.0, load)) as two comparisons, NaN and -0.0 included.
    if not load < 1.0:
        return 1.0
    return load if load > 0.0 else 0.0
