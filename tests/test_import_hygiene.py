"""Each subcommand imports only what it runs.

Every check runs in a fresh interpreter, since this test process has long
since imported the whole package.  Nothing here times anything: the checks
read ``sys.modules``.

* Importing the CLI loads no numpy, no HTTP or process-pool stack, no
  distributed service or fault harness and no compiled kernels.
* A ``merge`` and a reload need neither numpy nor any engine, governor or
  platform model.
* A campaign run imports everything it uses before its spec has loaded, and
  a reload imports everything before its first pass.

Every store here is jsonl (``--store json``, and ``CampaignResult.save``'s
default): an Arrow store imports pyarrow on first use, and pyarrow may
import numpy, so these checks would not hold for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, FactorySpec

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(script: str, *args: str, cwd: Path) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line last."""
    environment = dict(os.environ)
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


def small_campaign() -> CampaignSpec:
    return CampaignSpec.from_grid(
        "hygiene",
        applications=[
            FactorySpec.of("mpeg4", num_frames=30),
            FactorySpec.of("fft", num_frames=30),
        ],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
            "proposed": FactorySpec.of("proposed"),
        },
        seeds=(1,),
    )


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    """A spec file and its two shard stores."""
    directory = tmp_path_factory.mktemp("hygiene")
    campaign = small_campaign()
    campaign.save(str(directory / "spec.json"))
    for index in range(2):
        run_campaign(campaign.shard(index, 2)).save(str(directory / f"shard{index}.store"))
    return directory


_CLI_IMPORT = """
import json, sys
import repro.campaign.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_loads_no_run_service_or_pool_code(tmp_path):
    loaded = set(run_python(_CLI_IMPORT, cwd=tmp_path))
    for module in (
        "numpy",
        "http.server",
        "multiprocessing",
        "concurrent.futures.process",
        "repro.campaign.service",
        "repro.campaign.faults",
        "repro.sim.jitpath",
    ):
        assert module not in loaded, f"importing the CLI loaded {module}"


_MERGE_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from repro.analysis.reporting import format_campaign_summary
from repro.campaign import cli
from repro.campaign.results import CampaignResult

code = cli.main(["merge", "shard0.store", "shard1.store", "--spec", "spec.json",
                 "--store", "json", "--output", "merged.store", "--quiet"])
sizes = {}
for lazy in (False, True):
    store = CampaignResult.load("merged.store", lazy=lazy)
    format_campaign_summary(store)
    sizes[str(lazy)] = len(store.done())
print(json.dumps({"code": code, "sizes": sizes, "modules": sorted(sys.modules)}))
"""


def _is_run_code(module: str) -> bool:
    return (
        module in ("repro.platform.cluster", "repro.campaign.executor")
        or module.startswith(("repro.rtm.", "repro.governors."))
        or module
        in {f"repro.sim.{name}" for name in ("backends", "tablepath", "fastpath", "scalarpath")}
    )


def test_merge_and_reload_need_no_numpy_and_no_engine(shards):
    report = run_python(_MERGE_WITHOUT_NUMPY, cwd=shards)
    assert report["code"] == 0
    assert report["sizes"] == {"False": 6, "True": 6}
    loaded = [module for module in report["modules"] if _is_run_code(module)]
    assert loaded == []


_RUN_AFTER_SPEC_LOAD = """
import json, sys
from repro.campaign import cli
from repro.campaign.spec import CampaignSpec

loaded_at_spec = []
load = CampaignSpec.__dict__["load"].__func__

def marking_load(cls, path):
    spec = load(cls, path)
    loaded_at_spec.append(set(sys.modules))
    return spec

CampaignSpec.load = classmethod(marking_load)
code = cli.main(sys.argv[1:])
late = sorted(set(sys.modules) - loaded_at_spec[0])
print(json.dumps({"code": code, "late": late}))
"""


def test_campaign_run_imports_nothing_after_its_spec_loads(shards):
    report = run_python(
        _RUN_AFTER_SPEC_LOAD,
        "spec.json", "--quiet", "--store", "json", "--checkpoint", "run.ckpt",
        "--output", "run.store",
        cwd=shards,
    )
    assert report == {"code": 0, "late": []}


def test_merge_imports_nothing_after_its_spec_loads(shards):
    report = run_python(
        _RUN_AFTER_SPEC_LOAD,
        "merge", "shard0.store", "shard1.store", "--spec", "spec.json",
        "--store", "json", "--output", "merged-late.store", "--quiet",
        cwd=shards,
    )
    assert report == {"code": 0, "late": []}


_FIRST_RELOAD_PASS = """
import json, sys
from repro.analysis.reporting import format_campaign_summary
from repro.campaign.results import CampaignResult

late = {}
for lazy in (False, True):
    before = set(sys.modules)
    format_campaign_summary(CampaignResult.load(sys.argv[1], lazy=lazy))
    late[str(lazy)] = sorted(set(sys.modules) - before)
print(json.dumps(late))
"""


def test_first_reload_pass_imports_nothing(shards):
    assert run_python(_FIRST_RELOAD_PASS, "shard0.store", cwd=shards) == {
        "False": [],
        "True": [],
    }
