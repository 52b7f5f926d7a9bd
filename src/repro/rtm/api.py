"""Application-facing API of the cross-layer framework.

In the paper's cross-layer view (Fig. 1) the application layer announces its
performance requirements to the run-time layer through an API, and the RTM
in the OS uses those requirements when controlling the hardware knobs.  This
module is that API surface: applications register performance targets
(frames per second or an explicit per-frame deadline), may update them as
their needs change, and the RTM queries the effective requirement at each
decision epoch.

It also supports the paper's stated future-work scenario — multiple
concurrently executing applications — by tracking one target per registered
application and exposing the *most demanding* requirement as the effective
target the governor must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.workload.application import PerformanceRequirement


@dataclass(frozen=True)
class PerformanceTarget:
    """A registered application performance target.

    Attributes
    ----------
    application_name:
        Name of the registering application.
    requirement:
        The declared frames-per-second / reference-time requirement.
    priority:
        Relative importance; among equally demanding targets the higher
        priority wins ties in reporting.
    """

    application_name: str
    requirement: PerformanceRequirement
    priority: int = 0

    @property
    def tref_s(self) -> float:
        """Per-frame reference time of this target."""
        return self.requirement.tref_s


class RuntimeManagerAPI:
    """Registry of application performance targets used by the RTM."""

    def __init__(self) -> None:
        self._targets: Dict[str, PerformanceTarget] = {}

    # -- registration -------------------------------------------------------------
    def register(
        self,
        application_name: str,
        frames_per_second: float,
        reference_time_s: Optional[float] = None,
        priority: int = 0,
    ) -> PerformanceTarget:
        """Register (or replace) an application's performance target."""
        if not application_name:
            raise ConfigurationError("application_name must be non-empty")
        target = PerformanceTarget(
            application_name=application_name,
            requirement=PerformanceRequirement(
                frames_per_second=frames_per_second,
                reference_time_s=reference_time_s,
            ),
            priority=priority,
        )
        self._targets[application_name] = target
        return target

    # -- queries -----------------------------------------------------------------------
    def effective_requirement(self) -> PerformanceRequirement:
        """The requirement the RTM must satisfy right now.

        With several concurrent applications the tightest (smallest)
        reference time wins, because meeting it also meets every looser
        requirement on a shared V-F domain.

        Raises
        ------
        ConfigurationError
            If no application has registered a target.
        """
        if not self._targets:
            raise ConfigurationError("no application has registered a performance target")
        tightest = min(self._targets.values(), key=lambda t: (t.tref_s, -t.priority))
        return tightest.requirement
