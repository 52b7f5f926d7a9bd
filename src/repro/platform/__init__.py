"""Hardware-platform substrate.

This subpackage models the hardware the paper's run-time manager controls:
the ODROID-XU3's A15 cluster with its cluster-level DVFS domain, a CMOS
power model, an on-board power sensor and a first-order thermal model.

The governor (see :mod:`repro.rtm` and :mod:`repro.governors`) interacts
with the platform only through the interfaces the real board exposes: it
observes each epoch's cycle counts and measured power (an
:class:`~repro.rtm.governor.EpochObservation`) and requests a V-F
operating point for the cluster.

Everything else (how many joules a frame costs at a given operating point)
is produced by the analytic models in :mod:`repro.platform.power` and
:mod:`repro.platform.thermal`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.platform.vf_table": ("OperatingPoint", "VFTable"),
        "repro.platform.power": ("PowerModel", "PowerModelParameters"),
        "repro.platform.core": ("Core", "CoreExecutionResult"),
        "repro.platform.cluster": ("Cluster",),
        "repro.platform.dvfs": ("DVFSActuator", "DVFSTransition"),
        "repro.platform.sensors": ("PowerSensor", "SensorReading"),
        "repro.platform.thermal": ("ThermalModel", "ThermalParameters"),
        "repro.platform.odroid_xu3": ("build_a15_cluster", "A15_VF_TABLE"),
    },
)
