"""CMOS power model.

Replaces the ODROID-XU3's on-board measurement path with an analytic model:

* dynamic power  ``P_dyn = C_eff * V^2 * f * u``  (``u`` = utilisation),
* static power   ``P_stat = V * (k1 * exp(k2 * V) * exp(k3 * T) + k4)``,

which is the standard form used by McPAT-style modelling and by the DVFS
literature the paper builds on.  The exact constants are calibrated so that
the A15 cluster spans roughly 0.25 W (idle, 200 MHz) to 5-6 W (four busy
cores at 2 GHz), matching published XU3 measurements closely enough that
energy *ratios* between governors are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.platform.vf_table import OperatingPoint


@dataclass(frozen=True)
class PowerModelParameters:
    """Constants of the per-core power model.

    Attributes
    ----------
    effective_capacitance_f:
        Switched capacitance per cycle (farads); multiplies ``V^2 * f``.
    leakage_k1_a:
        Leakage scale factor (amperes) before the exponential terms.
    leakage_k2_per_v:
        Voltage sensitivity of leakage (1/V).
    leakage_k3_per_c:
        Temperature sensitivity of leakage (1/degC).
    leakage_k4_a:
        Voltage-independent leakage floor (amperes).
    idle_activity_factor:
        Fraction of dynamic power drawn when a core is clocked but idle
        (clock tree and always-on structures).
    uncore_power_w:
        Constant cluster-level power (interconnect, L2) charged once per
        cluster, not per core.
    """

    effective_capacitance_f: float = 6.0e-10
    leakage_k1_a: float = 0.0110
    leakage_k2_per_v: float = 1.90
    leakage_k3_per_c: float = 0.016
    leakage_k4_a: float = 0.005
    idle_activity_factor: float = 0.08
    uncore_power_w: float = 0.12

    def __post_init__(self) -> None:
        if self.effective_capacitance_f <= 0:
            raise ConfigurationError("effective_capacitance_f must be positive")
        if not 0.0 <= self.idle_activity_factor <= 1.0:
            raise ConfigurationError("idle_activity_factor must lie in [0, 1]")
        for name in ("leakage_k1_a", "leakage_k4_a", "uncore_power_w"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass
class PowerModel:
    """Per-core analytic power model.

    The model is intentionally stateless: callers pass the operating point,
    utilisation and temperature for the interval of interest.  A core's
    power has one formula, :meth:`core_power_w` (dynamic plus static);
    the cluster charges ``uncore_power_w`` once on top of its cores.
    """

    parameters: PowerModelParameters = field(default_factory=PowerModelParameters)

    # -- component models ----------------------------------------------------
    def dynamic_power_w(self, point: OperatingPoint, utilisation: float) -> float:
        """Dynamic power for one core at ``point`` with the given utilisation.

        ``utilisation`` is the fraction of the interval the core spent
        executing instructions (0 = fully idle, 1 = fully busy).  An idle but
        clocked core still burns ``idle_activity_factor`` of full activity.
        """
        utilisation = self._check_utilisation(utilisation)
        p = self.parameters
        activity = p.idle_activity_factor + (1.0 - p.idle_activity_factor) * utilisation
        return (
            p.effective_capacitance_f
            * point.voltage_v ** 2
            * point.frequency_hz
            * activity
        )

    def static_power_w(self, point: OperatingPoint, temperature_c: float = 55.0) -> float:
        """Leakage power for one core at ``point`` and junction temperature."""
        p = self.parameters
        leakage_current_a = (
            p.leakage_k1_a
            * math.exp(p.leakage_k2_per_v * point.voltage_v)
            * math.exp(p.leakage_k3_per_c * (temperature_c - 55.0))
            + p.leakage_k4_a
        )
        return point.voltage_v * leakage_current_a

    def core_power_w(
        self,
        point: OperatingPoint,
        utilisation: float,
        temperature_c: float = 55.0,
    ) -> float:
        """Total single-core power in watts (no uncore share).

        The one core-power formula.  The scalar engine evaluates it
        through the cluster's power cache, fastpath through
        :meth:`power_table`, and the table engine's decomposition
        (:func:`repro.platform.cluster._power_decomposition`) repeats its
        operations bit for bit.
        """
        return self.dynamic_power_w(point, utilisation) + self.static_power_w(
            point, temperature_c
        )

    def power_table(
        self, points: "Sequence[OperatingPoint]", temperature_c: float = 55.0
    ) -> "Tuple[List[float], List[float]]":
        """Batch-evaluate per-core busy and idle power over a table of points.

        Returns ``(busy_powers_w, idle_powers_w)`` with one entry per
        operating point: the single-core power at utilisation 1.0 (busy) and
        0.0 (clocked idle) at ``temperature_c``.  Each entry is exactly
        :meth:`core_power_w` for that point — the same IEEE operations, so
        table-driven engines that index these lists reproduce the scalar
        simulation loop bit for bit.  Evaluated once per trace, this replaces
        ``2 x num_frames`` leakage-model calls with ``2 x num_points``.
        """
        busy = [self.core_power_w(point, 1.0, temperature_c) for point in points]
        idle = [self.core_power_w(point, 0.0, temperature_c) for point in points]
        return busy, idle

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _check_utilisation(utilisation: float) -> float:
        if not 0.0 <= utilisation <= 1.0 + 1e-9:
            raise ValueError(f"utilisation must lie in [0, 1], got {utilisation}")
        return min(utilisation, 1.0)
