"""Pre-configured ODROID-XU3-class platform.

The paper's testbed is the ODROID-XU3 (Samsung Exynos 5422): four
Cortex-A15 cores and four Cortex-A7 cores, each cluster with its own DVFS
domain.  The experiments use only the A15 cluster, which exposes 19
operating points from 200 MHz to 2000 MHz in 100 MHz steps, so that is the
cluster modelled here.

The voltage values below follow the shape of the Exynos 5422 ASV tables
(~0.91 V at 200 MHz rising to ~1.36 V at 2 GHz).  Exact silicon bins
differ per board; what matters for the reproduction is that the voltage
rises super-linearly with frequency so that DVFS exhibits the familiar
convex energy trade-off.
"""

from __future__ import annotations

from typing import Optional

from repro.platform.cluster import Cluster
from repro.platform.core import Core
from repro.platform.dvfs import DVFSActuator
from repro.platform.power import PowerModel, PowerModelParameters
from repro.platform.sensors import PowerSensor
from repro.platform.thermal import ThermalModel, ThermalParameters
from repro.platform.vf_table import OperatingPoint, VFTable

#: Frequency (MHz) -> voltage (V) for the A15 (big) cluster: 19 OPPs,
#: 200-2000 MHz in 100 MHz steps, as used by the paper's action space.
_A15_OPPS_MHZ_V = (
    (200, 0.9125),
    (300, 0.9125),
    (400, 0.9125),
    (500, 0.9200),
    (600, 0.9300),
    (700, 0.9400),
    (800, 0.9550),
    (900, 0.9700),
    (1000, 0.9875),
    (1100, 1.0075),
    (1200, 1.0275),
    (1300, 1.0500),
    (1400, 1.0750),
    (1500, 1.1075),
    (1600, 1.1400),
    (1700, 1.1800),
    (1800, 1.2275),
    (1900, 1.2875),
    (2000, 1.3625),
)

#: The A15 cluster's operating-point table (the paper's 19-entry action space).
A15_VF_TABLE = VFTable(
    OperatingPoint(frequency_hz=mhz * 1e6, voltage_v=volts)
    for mhz, volts in _A15_OPPS_MHZ_V
)

#: Power-model constants tuned for the A15 (big, out-of-order) core.
A15_POWER_PARAMETERS = PowerModelParameters(
    effective_capacitance_f=6.0e-10,
    leakage_k1_a=0.0110,
    leakage_k2_per_v=1.90,
    leakage_k3_per_c=0.016,
    leakage_k4_a=0.005,
    idle_activity_factor=0.08,
    uncore_power_w=0.15,
)

#: Name of the cluster the paper's experiments run on.
A15_CLUSTER_NAME = "a15"

#: Number of cores in the Exynos 5422's A15 cluster.
A15_CORE_COUNT = 4


def build_a15_cluster(
    num_cores: int = A15_CORE_COUNT,
    enable_thermal: bool = False,
    sensor_noise_w: float = 0.0,
    seed: Optional[int] = 0,
) -> Cluster:
    """Build the A15 (big) cluster the paper's experiments run on.

    Parameters
    ----------
    num_cores:
        Number of A15 cores (the paper uses all four).
    enable_thermal:
        Whether the RC thermal model evolves temperature.  The paper
        neglects the thermal constraint for its comparison, so this defaults
        to False (temperature fixed at its initial value).
    sensor_noise_w:
        Standard deviation of the power-sensor noise in watts.
    seed:
        Seed for the sensor-noise generator (the stream restarts from it
        on every :meth:`~repro.platform.cluster.Cluster.reset`).
    """
    cores = [Core(core_id=i, name=f"A15-{i}") for i in range(num_cores)]
    thermal = ThermalModel(
        parameters=ThermalParameters(
            ambient_c=30.0,
            resistance_c_per_w=7.0,
            capacitance_j_per_c=4.0,
            initial_c=50.0,
            throttle_c=95.0,
        ),
        enabled=enable_thermal,
    )
    return Cluster(
        name=A15_CLUSTER_NAME,
        cores=cores,
        vf_table=A15_VF_TABLE,
        power_model=PowerModel(parameters=A15_POWER_PARAMETERS),
        thermal_model=thermal,
        power_sensor=PowerSensor(
            sample_period_s=0.01,
            resolution_w=0.005,
            noise_stddev_w=sensor_noise_w,
            seed=seed,
        ),
        dvfs=DVFSActuator(table=A15_VF_TABLE),
    )
