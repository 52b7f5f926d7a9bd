"""Shared fixtures for the test suite."""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro import _compat
from repro.campaign import store as result_store
from repro.campaign.results import CampaignResult, ScenarioOutcome
from repro.campaign.spec import CampaignSpec, FactorySpec, ScenarioSpec
from repro.platform.cluster import Cluster
from repro.platform.core import Core
from repro.platform.odroid_xu3 import A15_VF_TABLE, build_a15_cluster
from repro.platform.vf_table import OperatingPoint, VFTable
from repro.rtm.governor import Governor, PlatformInfo
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult
from repro.testing.parity.harness import paper_governors
from repro.workload.application import Application, PerformanceRequirement
from repro.workload.task import Frame
from repro.workload.video import h264_football_application, mpeg4_application
from repro.workload.fft import fft_application


@pytest.fixture(autouse=True)
def _numba_less_negotiation(monkeypatch):
    """Pin engine negotiation to the numba-less default for every test.

    The tier-1 suite asserts *which* backend auto-negotiation selects
    (fastpath/tablepath/...), and those expectations must not flip when
    the optional ``jit`` extra happens to be installed (the CI ``jit`` job
    runs this same suite with numba present).  Tests that exercise the
    compiled backend — :mod:`tests.test_jitpath` — opt back in by
    monkeypatching ``HAVE_NUMBA = True`` after this fixture, which also
    makes them runnable on numba-less machines (interpreted kernels are
    bit-identical by construction).
    """
    monkeypatch.setattr(_compat, "HAVE_NUMBA", False)


#: Committed inputs in formats nothing writes any more (see ``tests/data``).
DATA_DIR = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(script: str, *args: str, cwd=None, env=None) -> dict:
    """Run ``script`` in a fresh interpreter on this checkout's ``src``.

    The script prints one JSON line last, which is returned.  ``env``
    adds variables to the child's environment.  Like the in-process
    ``_numba_less_negotiation`` fixture, the child negotiates engines on
    the numba-less ladder (``REPRO_DISABLE_JIT=1``) unless ``env`` says
    otherwise, so its picks do not flip when numba is installed.
    """
    environment = dict(os.environ, REPRO_DISABLE_JIT="1", **(env or {}))
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd,
        env=environment,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


#: Run ondemand over 30 mpeg4 frames on the A15 cluster (thermal model on
#: when the argument is ``thermal``) with numpy unimportable; print the
#: engine and the energy and temperature columns.
_ONDEMAND_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from repro.governors.ondemand import OndemandGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim.engine import SimulationEngine
from repro.workload.video import mpeg4_application

cluster = build_a15_cluster(enable_thermal=sys.argv[1] == "thermal")
result = SimulationEngine(cluster).run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
columns = result.columns
print(json.dumps({"engine": result.engine_used, "energy_j": list(columns.energy_j),
                  "temperature_c": list(columns.temperature_c)}))
"""


def ondemand_without_numpy(thermal: bool) -> dict:
    """:data:`_ONDEMAND_WITHOUT_NUMPY`'s report."""
    return run_python(_ONDEMAND_WITHOUT_NUMPY, "thermal" if thermal else "isothermal")


def legacy_bytes(name: str) -> bytes:
    """The decompressed bytes of the committed ``tests/data/<name>.gz``."""
    return gzip.decompress((DATA_DIR / f"{name}.gz").read_bytes())


def wire_campaign() -> CampaignSpec:
    """The 7 paper governors on mpeg4, plus ondemand pinned to the scalar engine.

    ``tests/data/wire-format.v1.json.gz`` is this campaign's result as
    the legacy JSON blob.
    """
    grid = CampaignSpec.from_grid(
        "wire-format",
        applications=[FactorySpec.of("mpeg4", num_frames=40)],
        governors=paper_governors(),
        seeds=(5,),
    )
    ondemand = next(s for s in grid.scenarios if s.label == "ondemand")
    scalar = replace(ondemand, label="ondemand-scalar", engine="scalar")
    return CampaignSpec(name=grid.name, scenarios=grid.scenarios + (scalar,))


def legacy_wire_blob() -> dict:
    """The parsed legacy JSON blob of :func:`wire_campaign`."""
    return json.loads(legacy_bytes("wire-format.v1.json"))


def saved_bytes(result: CampaignResult | ScenarioOutcome) -> bytes:
    """The strict equality oracle: the bytes :meth:`CampaignResult.save` writes.

    Two results are the same when these bytes are: outcome order, every
    frame, ``engine_used``, probes, errors and the cached metrics all
    count (dataclass ``==`` ignores outcome order and ``engine_used``).
    A single outcome is saved as a one-outcome result.
    """
    if isinstance(result, ScenarioOutcome):
        result = CampaignResult("outcome", {result.scenario_id: result})
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "result.store")
        result.save(path)
        return Path(path).read_bytes()


def merged_bytes(stores, spec: CampaignSpec | None = None) -> bytes:
    """Save each store, merge the files as ``repro-campaign merge`` does, read the output."""
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for index, store in enumerate(stores):
            paths.append(os.path.join(workdir, f"shard{index}.store"))
            store.save(paths[-1])
        merged = os.path.join(workdir, "merged.store")
        result_store.merge_store_files(paths, merged, spec=spec, store="json")
        return Path(merged).read_bytes()


def outcome_of(result: SimulationResult) -> ScenarioOutcome:
    """``result`` as the done outcome of a placeholder scenario."""
    scenario = ScenarioSpec(
        label="record",
        application=FactorySpec.of("mpeg4"),
        governor=FactorySpec.of("ondemand"),
    )
    return ScenarioOutcome(scenario, result)


def store_record(result: SimulationResult) -> dict:
    """The store record a done outcome with ``result`` is saved as."""
    return json.loads(result_store.encode_line(outcome_of(result)))


def store_round_trip(result: SimulationResult) -> SimulationResult:
    """``result`` saved as a store record and read back."""
    return result_store.decode_record(store_record(result)).result


def run_governors(
    application: Application, governors: Dict[str, Callable[[], Governor]]
) -> Dict[str, SimulationResult]:
    """Run a fresh governor from each factory over ``application``, keyed as given.

    One engine on one A15 cluster serves every run; ``reset_cluster=True``
    starts each from the cluster's initial state.
    """
    engine = SimulationEngine(build_a15_cluster())
    return {
        name: engine.run(application, factory(), reset_cluster=True)
        for name, factory in governors.items()
    }


@pytest.fixture
def small_vf_table() -> VFTable:
    """A tiny 4-point table used by unit tests that don't need the full 19 OPPs."""
    return VFTable(
        [
            OperatingPoint(500e6, 0.90),
            OperatingPoint(1000e6, 1.00),
            OperatingPoint(1500e6, 1.10),
            OperatingPoint(2000e6, 1.30),
        ]
    )


@pytest.fixture
def a15_table() -> VFTable:
    """The full ODROID-XU3 A15 operating-point table."""
    return A15_VF_TABLE


@pytest.fixture
def a15_cluster() -> Cluster:
    """A freshly built 4-core A15 cluster model."""
    return build_a15_cluster()


@pytest.fixture
def small_cluster(small_vf_table) -> Cluster:
    """A 2-core cluster on the tiny table, for fast deterministic unit tests."""
    return Cluster(
        name="mini",
        cores=[Core(core_id=0), Core(core_id=1)],
        vf_table=small_vf_table,
    )


@pytest.fixture
def platform_info(a15_table) -> PlatformInfo:
    """PlatformInfo for a 4-core cluster on the A15 table."""
    return PlatformInfo(num_cores=4, vf_table=a15_table)


@pytest.fixture
def requirement_25fps() -> PerformanceRequirement:
    """A 25 fps performance requirement (Tref = 40 ms)."""
    return PerformanceRequirement(frames_per_second=25.0)


def make_constant_application(
    num_frames: int = 50,
    cycles_per_thread: float = 2.0e7,
    num_threads: int = 4,
    fps: float = 25.0,
    name: str = "constant",
) -> Application:
    """An application whose every frame has identical per-thread demand."""
    requirement = PerformanceRequirement(frames_per_second=fps)
    frames = [
        Frame(
            index=i,
            thread_cycles=tuple([cycles_per_thread] * num_threads),
            deadline_s=requirement.tref_s,
            kind="const",
        )
        for i in range(num_frames)
    ]
    return Application(name=name, frames=frames, requirement=requirement)


@pytest.fixture
def constant_application() -> Application:
    """A 50-frame constant-demand application at 25 fps."""
    return make_constant_application()


@pytest.fixture
def short_video_application() -> Application:
    """A short H.264 football workload for integration tests."""
    return h264_football_application(num_frames=200, seed=3)


@pytest.fixture
def short_mpeg4_application() -> Application:
    """A short MPEG-4 workload for integration tests."""
    return mpeg4_application(num_frames=150, seed=5)


@pytest.fixture
def short_fft_application() -> Application:
    """A short FFT workload for integration tests."""
    return fft_application(num_frames=150, seed=5)
