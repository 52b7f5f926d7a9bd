"""Each subcommand imports only what it runs.

Every check of ``sys.modules`` runs in a fresh interpreter, since this test
process has long since imported the whole package.  Nothing here times
anything: the checks read ``sys.modules`` and the exported names.

* Importing the CLI loads no numpy, no HTTP or process-pool stack, no
  distributed service or fault harness and no compiled kernels.
* A whole campaign run (spec load, engines, summary, save) loads no numpy.
  ``run_python`` pins the numba-less ladder: with numba installed,
  ``jitpath`` would run the closed-loop scenarios, and it needs numpy.
* A ``merge`` and a reload need neither numpy nor any engine, governor or
  platform model, and a legacy JSON blob reloads and renders its summary
  without numpy.
* A campaign run imports everything it uses before its spec has loaded, and
  a reload imports everything before its first pass.
* ``repro.campaign`` exports no name of the fault-injection harness, which
  lives in :mod:`repro.testing.faults` beside the parity harness.

Every store here is jsonl (``--store json``, and ``CampaignResult.save``'s
default); an Arrow store would also load pyarrow.
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, FactorySpec
from tests.conftest import legacy_bytes, run_python

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
        "repro.testing.faults",
        "repro.sim.jitpath",
    ):
        assert module not in loaded, f"importing the CLI loaded {module}"


def test_campaign_exports_no_fault_injection_name():
    import repro.campaign
    from repro.testing import faults

    defined = {
        name
        for name, value in vars(faults).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == faults.__name__
    }
    fault_names = defined | {"FAULT_KINDS"}
    exported = set(repro.campaign.__all__) | set(dir(repro.campaign))
    assert not fault_names & exported
    with pytest.raises(AttributeError):
        repro.campaign.run_with_faults


_CAMPAIGN_RUN = """
import json, sys
from repro.campaign import cli

code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_campaign_run_loads_no_numpy(shards):
    report = run_python(
        _CAMPAIGN_RUN, "spec.json", "--store", "json", "--output", "run.store", cwd=shards
    )
    assert report["code"] == 0
    assert [module for module in report["modules"] if module.split(".")[0] == "numpy"] == []


#: Reload the committed version-1 JSON blob and render its summary; print
#: the text and the numpy modules loaded.  ``block`` makes numpy unimportable.
_LEGACY_BLOB_SUMMARY = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from repro.analysis.reporting import format_campaign_summary
from repro.campaign.results import CampaignResult

text = format_campaign_summary(CampaignResult.load(sys.argv[2]))
numpy = [name for name, module in sys.modules.items()
         if name.split(".")[0] == "numpy" and module is not None]
print(json.dumps({"text": text, "numpy": numpy}))
"""


def test_legacy_blob_summary_needs_no_numpy(tmp_path):
    blob = tmp_path / "wire-format.v1.json"
    blob.write_bytes(legacy_bytes("wire-format.v1.json"))
    blob = str(blob)
    blocked = run_python(_LEGACY_BLOB_SUMMARY, "block", blob, cwd=tmp_path)
    allowed = run_python(_LEGACY_BLOB_SUMMARY, "allow", blob, cwd=tmp_path)
    assert blocked["text"] and blocked == allowed
    assert allowed["numpy"] == []


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
