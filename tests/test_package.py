"""Package-level tests: imports, version metadata and the public API surface."""

import importlib

import pytest

import repro


class TestPackageMetadata:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_paper_identity(self):
        assert "Run-Time Energy Optimisation" in repro.PAPER_TITLE
        assert repro.PAPER_VENUE == "DATE 2017"

    def test_public_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.platform",
            "repro.workload",
            "repro.rtm",
            "repro.governors",
            "repro.sim",
            "repro.experiments",
            "repro.analysis",
            "repro.campaign",
        ],
    )
    def test_subpackage_imports_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported is not None
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name} listed in __all__ but missing"
        assert set(imported.__all__) <= set(dir(imported))


LAZY_PACKAGES = [
    "repro",
    "repro.campaign",
    "repro.sim",
    "repro.platform",
    "repro.workload",
    "repro.rtm",
    "repro.governors",
    "repro.analysis",
]


class TestLazyExports:
    """Package names resolve on first read, to the defining module's objects."""

    @pytest.mark.parametrize("module", LAZY_PACKAGES)
    def test_names_are_the_defining_modules_objects(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            value = getattr(package, name)
            home = getattr(value, "__module__", None)
            if isinstance(home, str) and home.startswith("repro."):
                assert getattr(importlib.import_module(home), name, value) is value

    @pytest.mark.parametrize("module", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, module):
        package = importlib.import_module(module)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["CampaignSpec"] is importlib.import_module(
            "repro.campaign.spec"
        ).CampaignSpec

    def test_submodules_still_import_through_the_package(self):
        from repro.campaign import store
        from repro.sim import config

        assert store.__name__ == "repro.campaign.store"
        assert config.SimulationConfig is repro.SimulationConfig


#: Exports the package no longer has: the per-core PMU, the energy meter,
#: the A7 cluster and the Chip, and the frame trace, none of which a
#: campaign, an example or the CLI ever read.
REMOVED_EXPORTS = [
    ("repro", "Chip"),
    ("repro", "build_odroid_xu3"),
    ("repro.platform", "PerformanceMonitoringUnit"),
    ("repro.platform", "PMUSample"),
    ("repro.platform", "EnergyMeter"),
    ("repro.platform", "Chip"),
    ("repro.platform", "build_odroid_xu3"),
    ("repro.platform", "build_a7_cluster"),
    ("repro.platform", "A7_VF_TABLE"),
    ("repro.workload", "FrameTrace"),
    ("repro.workload", "TraceSummary"),
]


class TestRemovedSurface:
    """The deleted API stays deleted: no export, module or second import path."""

    @pytest.mark.parametrize("module, name", REMOVED_EXPORTS)
    def test_removed_name_is_not_exported(self, module, name):
        package = importlib.import_module(module)
        assert name not in package.__all__
        assert not hasattr(package, name)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.platform.pmu",
            "repro.platform.chip",
            "repro.workload.trace",
            "repro.campaign.faults",
        ],
    )
    def test_removed_module_does_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_rtm_api_re_exports_no_campaign_name(self):
        import repro.campaign
        from repro.rtm import api

        assert not set(repro.campaign.__all__) & set(dir(api))
        with pytest.raises(AttributeError):
            api.run_campaign


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import (
            ConfigurationError,
            GovernorError,
            PlatformError,
            ReproError,
            SimulationError,
            StateSpaceError,
            WorkloadError,
        )

        for error_type in (
            ConfigurationError,
            GovernorError,
            PlatformError,
            SimulationError,
            StateSpaceError,
            WorkloadError,
        ):
            assert issubclass(error_type, ReproError)

    def test_invalid_operating_point_is_platform_error(self):
        from repro.errors import InvalidOperatingPointError, PlatformError

        assert issubclass(InvalidOperatingPointError, PlatformError)


class TestQuickstartDocstringExample:
    def test_module_docstring_example_runs(self):
        """The example shown in the package docstring must actually work."""
        from repro import build_a15_cluster, mpeg4_application
        from repro.rtm import MultiCoreRLGovernor
        from repro.sim import SimulationEngine

        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(mpeg4_application(num_frames=120), MultiCoreRLGovernor())
        assert round(result.normalized_performance, 2) <= 1.1
