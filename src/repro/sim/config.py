"""Engine names and run switches: the leaf the spec and result layers share.

:data:`ENGINES` (the ``auto`` negotiation ladder), :data:`AUTO` and
:class:`SimulationConfig` describe *what* a scenario asks for; the engines
in :mod:`repro.sim.backends` decide *how* it runs.  This module imports
nothing from the program, so a campaign spec, a stored result, a merge and
a reload load no engine, governor, platform model or numpy.  The names stay
importable from :mod:`repro.sim.backends` and :mod:`repro.sim.engine` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Name of the reference engine (and the target of the deprecated
#: ``SimulationConfig.prefer_fast_path=False`` switch).
SCALAR = "scalar"
FASTPATH = "fastpath"
JITPATH = "jitpath"
TABLEPATH = "tablepath"

#: Every engine, in ``auto`` negotiation order (fastest eligible first).
ENGINES = (FASTPATH, JITPATH, TABLEPATH, SCALAR)

#: The wildcard engine request: negotiate the fastest eligible engine.
AUTO = "auto"


@dataclass(frozen=True)
class SimulationConfig:
    """Engine behaviour switches.

    Attributes
    ----------
    idle_until_deadline:
        If True (default) the cluster idles out the remainder of the frame
        period when a frame finishes early, as a rate-limited periodic
        application does on the real board.  Idle power at the selected
        operating point is therefore part of the frame's energy, which is
        what makes "race ahead then idle at high voltage" unattractive and
        the Oracle's slowest-deadline-meeting point optimal.
    charge_governor_overhead:
        If True (default) the governor's per-epoch processing time and the
        DVFS transition latency are added to the frame's execution time (the
        paper's ``T_OVH``).
    initial_operating_index:
        Operating-point index in force before the first decision; ``None``
        selects the fastest point (the after-boot default).
    prefer_fast_path:
        Deprecated compatibility switch: ``False`` pins the run to the
        ``scalar`` reference engine (e.g. for bit-exact regression
        comparisons against archived scalar results).  Prefer the engine
        request — ``SimulationEngine(..., engine="scalar")`` or a scenario
        spec's ``engine`` field — which goes through the same negotiation
        as every other selection.
    """

    idle_until_deadline: bool = True
    charge_governor_overhead: bool = True
    initial_operating_index: Optional[int] = None
    prefer_fast_path: bool = True
