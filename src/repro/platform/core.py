"""Single-CPU-core execution model.

A core executes *cycle demands*: a frame's share of work expressed as the
number of CPU cycles it requires (which is exactly the quantity the paper's
RTM observes each epoch).  At a given operating point the execution time
follows directly, and the busy/idle split feeds the power model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._compat import SLOTS
from repro.errors import PlatformError
from repro.platform.vf_table import OperatingPoint


@dataclass(frozen=True, **SLOTS)
class CoreExecutionResult:
    """Outcome of running one piece of work on one core.

    Attributes
    ----------
    busy_time_s:
        Time the core spent executing the cycle demand.
    idle_time_s:
        Time the core then spent idle waiting for the rest of the cluster.
    cycles:
        Busy cycles executed.
    """

    busy_time_s: float
    idle_time_s: float
    cycles: float


@dataclass
class Core:
    """A single CPU core belonging to a shared V-F cluster.

    Parameters
    ----------
    core_id:
        Identifier of the core within its cluster (0-based).
    name:
        Human-readable name, e.g. ``"A15-2"``.
    """

    core_id: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.core_id < 0:
            raise PlatformError(f"core_id must be non-negative, got {self.core_id}")
        if not self.name:
            self.name = f"core-{self.core_id}"

    def execute(
        self,
        cycles: float,
        point: OperatingPoint,
        interval_s: float = 0.0,
    ) -> CoreExecutionResult:
        """Execute ``cycles`` at ``point``, then idle until ``interval_s`` has elapsed.

        ``interval_s`` is the total interval the core must account for (for a
        cluster this is the time until the slowest core finishes, or the
        frame period).  If the busy time already exceeds ``interval_s`` the
        idle time is zero.
        """
        if cycles < 0:
            raise PlatformError(f"cycle demand must be non-negative, got {cycles}")
        busy_time = point.time_for_cycles(cycles)
        idle_time = max(0.0, interval_s - busy_time)
        return CoreExecutionResult(
            busy_time_s=busy_time,
            idle_time_s=idle_time,
            cycles=cycles,
        )

    def __repr__(self) -> str:
        return f"Core(id={self.core_id}, name={self.name!r})"
