"""Comparative-evaluation helpers: the paper's Table I style normalisation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a Table-I-style comparison.

    Attributes
    ----------
    methodology:
        Display name of the approach (e.g. "Linux Ondemand [5]").
    normalized_energy:
        Energy normalised to the Oracle run (>1 = more energy than optimal).
    normalized_performance:
        Average frame time normalised to ``Tref`` (>1 = under-performing,
        <1 = over-performing).
    total_energy_j / average_power_w / deadline_miss_ratio:
        Supporting absolute metrics.
    """

    methodology: str
    normalized_energy: float
    normalized_performance: float
    total_energy_j: float
    average_power_w: float
    deadline_miss_ratio: float


def compare_to_oracle(
    results: Dict[str, SimulationResult],
    oracle_key: str = "oracle",
    display_names: Optional[Dict[str, str]] = None,
) -> List[ComparisonRow]:
    """Build Table-I-style rows from a set of runs that includes an Oracle run.

    Parameters
    ----------
    results:
        Mapping of run key to result; must contain ``oracle_key``.
    oracle_key:
        Key of the Oracle run used for energy normalisation (it is excluded
        from the returned rows).
    display_names:
        Optional mapping of run key to the name shown in the row.
    """
    if display_names is None:
        display_names = {}
    if oracle_key not in results:
        raise SimulationError(f"results must include an Oracle run under key {oracle_key!r}")
    oracle = results[oracle_key]
    rows: List[ComparisonRow] = []
    for key, result in results.items():
        if key == oracle_key:
            continue
        rows.append(
            ComparisonRow(
                methodology=display_names.get(key, key),
                normalized_energy=result.normalized_energy(oracle),
                normalized_performance=result.normalized_performance,
                total_energy_j=result.total_energy_j,
                average_power_w=result.average_power_w,
                deadline_miss_ratio=result.deadline_miss_ratio,
            )
        )
    return rows


def energy_saving_percent(candidate_energy_j: float, baseline_energy_j: float) -> float:
    """Percentage energy saving of ``candidate`` relative to ``baseline``.

    Positive values mean the candidate used less energy.
    """
    if baseline_energy_j <= 0:
        raise ValueError("baseline energy must be positive")
    return 100.0 * (baseline_energy_j - candidate_energy_j) / baseline_energy_j


def pairwise_energy_saving(
    results: Dict[str, SimulationResult],
    candidate_key: str,
    baseline_key: str,
) -> float:
    """Percentage energy saving of ``candidate_key`` relative to ``baseline_key``.

    This is the quantity behind the paper's headline claim of "up to 16%
    energy savings compared to state-of-the-art".
    """
    for key in (candidate_key, baseline_key):
        if key not in results:
            raise SimulationError(f"results do not contain a run under key {key!r}")
    return energy_saving_percent(
        candidate_energy_j=results[candidate_key].total_energy_j,
        baseline_energy_j=results[baseline_key].total_energy_j,
    )
