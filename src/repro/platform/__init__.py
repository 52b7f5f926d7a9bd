"""Hardware-platform substrate.

This subpackage models the hardware the paper's run-time manager controls:
an ODROID-XU3-class big.LITTLE SoC with a cluster-level DVFS domain, a CMOS
power model, per-core performance-monitoring units, on-board power sensors
and a first-order thermal model.

The governor (see :mod:`repro.rtm` and :mod:`repro.governors`) interacts
with the platform only through the interfaces the real board exposes:

* reading cycle counts from the PMU,
* reading power/energy from the sensors,
* requesting a V-F operating point for a cluster.

Everything else (how many joules a frame costs at a given operating point)
is produced by the analytic models in :mod:`repro.platform.power` and
:mod:`repro.platform.thermal`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.platform.vf_table": ("OperatingPoint", "VFTable"),
        "repro.platform.power": ("PowerModel", "PowerModelParameters", "PowerBreakdown"),
        "repro.platform.pmu": ("PerformanceMonitoringUnit", "PMUSample"),
        "repro.platform.core": ("Core", "CoreExecutionResult"),
        "repro.platform.cluster": ("Cluster",),
        "repro.platform.chip": ("Chip",),
        "repro.platform.dvfs": ("DVFSActuator", "DVFSTransition"),
        "repro.platform.sensors": ("PowerSensor", "EnergyMeter", "SensorReading"),
        "repro.platform.thermal": ("ThermalModel", "ThermalParameters"),
        "repro.platform.odroid_xu3": (
            "build_odroid_xu3",
            "build_a15_cluster",
            "build_a7_cluster",
            "A15_VF_TABLE",
            "A7_VF_TABLE",
        ),
    },
)
