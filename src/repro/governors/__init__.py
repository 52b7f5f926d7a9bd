"""Baseline DVFS governors.

These are the comparison points of the paper's evaluation:

* :class:`OndemandGovernor` — Linux's ondemand policy [5], used in Table I;
* :class:`MultiCoreDVFSGovernor` — the learning-based multi-core DVFS
  control of Ge & Qiu (DAC'11) [20], used in Tables I and III;
* :class:`ShenRLGovernor` — the UPD-exploration Q-learning power manager of
  Shen et al. (TODAES'13) [21], used in Table II;
* :class:`OracleGovernor` — offline-optimal per-frame V-F selection, the
  normalisation baseline of Table I;
* :class:`PerformanceGovernor`, :class:`PowersaveGovernor`,
  :class:`ConservativeGovernor`, :class:`UserspaceGovernor` — the remaining
  stock Linux policies, provided for completeness and used in the examples
  and ablations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.governors.base": ("StaticGovernor",),
        "repro.governors.ondemand": ("OndemandGovernor", "OndemandParameters"),
        "repro.governors.conservative": ("ConservativeGovernor", "ConservativeParameters"),
        "repro.governors.performance": ("PerformanceGovernor",),
        "repro.governors.powersave": ("PowersaveGovernor",),
        "repro.governors.userspace": ("UserspaceGovernor",),
        "repro.governors.oracle": ("OracleGovernor",),
        "repro.governors.multicore_dvfs": ("MultiCoreDVFSGovernor", "MultiCoreDVFSParameters"),
        "repro.governors.shen_rl": ("ShenRLGovernor",),
    },
)
