"""The chaos smoke (benchmarks/chaos_smoke.py) cleans up its work directories.

Each try makes a ``campaign-chaos-*`` directory in the system temp
directory.  It is removed when the try passes or is retried after a missed
kill, and kept, with its path printed to standard error, only when the
smoke fails.  The service run itself is stubbed out: these tests exercise
the bookkeeping around it, with the temp directory pointed at ``tmp_path``.
"""

from __future__ import annotations

import importlib.util
import os
import tempfile

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "chaos_smoke.py",
)
_spec = importlib.util.spec_from_file_location("chaos_smoke", _SCRIPT)
chaos_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chaos_smoke)


@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    """Route the work directories to ``tmp_path`` and stub the campaign runs.

    Returns ``(outcomes, calls)``: each try pops its outcome from the front
    of ``outcomes`` (an exception is raised), and ``calls`` records each
    try's work directory and frame count.
    """
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(chaos_smoke, "build_smoke_campaign", lambda num_frames: [num_frames])
    monkeypatch.setattr(chaos_smoke, "run_campaign", lambda campaign: "reference")
    outcomes = []
    calls = []

    def kill_and_recover(campaign, reference, workdir, deadline):
        calls.append((workdir, campaign[0]))
        with open(os.path.join(workdir, "service.store"), "w") as handle:
            handle.write("partial")
        outcome = outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(chaos_smoke, "_kill_and_recover", kill_and_recover)
    return outcomes, calls


def _workdirs(tmp_path):
    return sorted(path.name for path in tmp_path.glob("campaign-chaos-*"))


def test_passing_try_removes_its_work_directory(stubbed, tmp_path, capsys):
    outcomes, calls = stubbed
    outcomes.append(True)
    assert chaos_smoke._try_once(12, deadline=0.0) is True
    assert calls and calls[0][0].startswith(str(tmp_path))
    assert _workdirs(tmp_path) == []
    assert "kept" not in capsys.readouterr().err


def test_missed_kill_removes_its_work_directory(stubbed, tmp_path, capsys):
    outcomes, _ = stubbed
    outcomes.append(None)
    assert chaos_smoke._try_once(12, deadline=0.0) is None
    assert _workdirs(tmp_path) == []
    assert "kept" not in capsys.readouterr().err


def test_mismatch_keeps_its_work_directory_and_names_it(stubbed, tmp_path, capsys):
    outcomes, calls = stubbed
    outcomes.append(False)
    assert chaos_smoke._try_once(12, deadline=0.0) is False
    workdir = calls[0][0]
    assert _workdirs(tmp_path) == [os.path.basename(workdir)]
    assert os.path.exists(os.path.join(workdir, "service.store"))
    assert f"work directory kept at {workdir}" in capsys.readouterr().err


def test_error_keeps_its_work_directory_and_propagates(stubbed, tmp_path, capsys):
    outcomes, calls = stubbed
    outcomes.append(RuntimeError("coordinator banner never arrived"))
    with pytest.raises(RuntimeError, match="banner"):
        chaos_smoke._try_once(12, deadline=0.0)
    workdir = calls[0][0]
    assert _workdirs(tmp_path) == [os.path.basename(workdir)]
    assert f"work directory kept at {workdir}" in capsys.readouterr().err


def test_smoke_that_passes_after_retries_leaves_nothing(stubbed, tmp_path, monkeypatch):
    outcomes, calls = stubbed
    outcomes.extend([None, None, True])
    monkeypatch.setattr("sys.argv", ["chaos_smoke.py", "--frames", "5"])
    assert chaos_smoke.main() == 0
    assert [frames for _, frames in calls] == [5, 20, 80]
    assert _workdirs(tmp_path) == []


def test_failing_smoke_keeps_only_the_failed_try(stubbed, tmp_path, monkeypatch):
    outcomes, calls = stubbed
    outcomes.extend([None, False])
    monkeypatch.setattr("sys.argv", ["chaos_smoke.py", "--frames", "5"])
    assert chaos_smoke.main() == 1
    assert _workdirs(tmp_path) == [os.path.basename(calls[-1][0])]
