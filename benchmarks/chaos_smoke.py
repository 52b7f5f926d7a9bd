"""CI chaos smoke: kill a worker site mid-campaign, assert bit-identity.

Boots the real distributed stack as OS processes — one
``repro-campaign serve`` coordinator and ``repro-campaign work`` sites
over loopback HTTP.  A victim site starts alone and leases the whole
campaign at once (``--lease-count`` = campaign size); it is SIGKILLed
as soon as ``status`` shows a lease held and nothing done.  Only then
does the survivor start.  The coordinator's lease reaper must requeue
the dead worker's scenarios onto the survivor, and the merged result
written by ``serve`` must be byte-identical to an unsharded in-process
serial run of the same campaign (the spec comes from
:mod:`benchmarks.make_smoke_campaign`, same as CI's sharding jobs).

The run passes only when the kill landed mid-campaign: the journal's
delivery ``attempts`` must show at least one scenario leased twice.
When the victim finished before the kill (a fast host), the exercise is
repeated with 4x the frames, at most :data:`MAX_TRIES` times in all and
within :data:`DEADLINE_S`; if every try misses, the smoke fails.

Usage (from any directory)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [--frames 120]

The child processes get the absolute ``src`` of this checkout as their
``PYTHONPATH``; the coordinator's standard error is kept in the work
directory and printed when its banner does not arrive.  Each try's work
directory (``campaign-chaos-*`` in the system temp directory) is removed
when the try passes or is retried; it is kept, and its path printed to
standard error, only when the smoke fails.

Exits non-zero on any divergence, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

sys.path.insert(0, os.path.dirname(__file__))
from make_smoke_campaign import build_smoke_campaign  # noqa: E402

from repro.campaign import run_campaign  # noqa: E402
from repro.campaign.service import HTTPClient  # noqa: E402

#: Hard wall-clock budget for the whole exercise, retries included.
DEADLINE_S = 240.0
#: Short lease so the killed worker's scenarios requeue quickly.
LEASE_TIMEOUT_S = 5.0
#: Tries in all; each retry after a missed kill runs 4x the frames.
MAX_TRIES = 3
#: Seconds between status polls while waiting to kill the victim.
POLL_S = 0.01
#: The checkout's source tree, for the child interpreters.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _spawn(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.cli", *args],
        env=env,
        text=True,
        **kwargs,
    )


def _drain(stream, sink):
    for line in stream:
        sink.append(line.rstrip("\n"))


def _worker(url: str, worker_id: str, *extra: str):
    return _spawn(
        [
            "work",
            "--coordinator", url,
            "--id", worker_id,
            "--poll", "0.2",
            "--heartbeat", "1.0",
            "--quiet",
            *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait(proc, deadline: float) -> int:
    while proc.poll() is None:
        if time.monotonic() > deadline:
            raise RuntimeError("chaos smoke exceeded its deadline")
        time.sleep(0.1)
    return proc.returncode


def _try_once(frames: int, deadline: float) -> Optional[bool]:
    """One kill-and-recover run: whether its output matched, ``None`` if the kill missed.

    The work directory is removed unless the try fails (a mismatch or an
    error), in which case its path is printed to standard error.
    """
    campaign = build_smoke_campaign(num_frames=frames)
    print(f"chaos smoke: {len(campaign)} scenarios, {frames} frames each")
    reference = run_campaign(campaign)

    workdir = tempfile.mkdtemp(prefix="campaign-chaos-")
    identical = False
    try:
        identical = _kill_and_recover(campaign, reference, workdir, deadline)
        return identical
    finally:
        if identical is False:
            print(f"chaos smoke: work directory kept at {workdir}", file=sys.stderr)
        else:
            shutil.rmtree(workdir, ignore_errors=True)


def _kill_and_recover(campaign, reference, workdir: str, deadline: float) -> Optional[bool]:
    """:func:`_try_once`'s run in ``workdir``."""
    spec_path = os.path.join(workdir, "spec.json")
    output_path = os.path.join(workdir, "service.store")
    reference_path = os.path.join(workdir, "reference.store")
    journal_path = os.path.join(workdir, "journal.json")
    serve_stderr_path = os.path.join(workdir, "serve.stderr")
    campaign.save(spec_path)
    reference.save(reference_path)

    procs = []
    serve_lines: list = []
    serve_stderr = open(serve_stderr_path, "w", encoding="utf-8")
    try:
        serve = _spawn(
            [
                "serve",
                spec_path,
                "--port", "0",
                "--output", output_path,
                "--store", "json",
                "--journal", journal_path,
                "--lease-timeout", str(LEASE_TIMEOUT_S),
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=serve_stderr,
        )
        procs.append(serve)
        # The serve banner carries the resolved address; keep draining the
        # pipe afterwards so the summary print cannot block the server.
        banner = serve.stdout.readline().strip()
        if " at http://" not in banner:
            serve.kill()
            serve.wait()
            with open(serve_stderr_path, encoding="utf-8", errors="replace") as handle:
                stderr = handle.read()
            raise RuntimeError(
                f"unexpected serve banner: {banner!r}; serve stderr:\n{stderr}"
            )
        url = banner.rsplit(" at ", 1)[1]
        threading.Thread(
            target=_drain, args=(serve.stdout, serve_lines), daemon=True
        ).start()

        # The victim leases every scenario and submits only after running
        # them all, so "leased, none done" is the whole of its run.
        victim = _worker(url, "site-victim", "--lease-count", str(len(campaign)))
        procs.append(victim)
        client = HTTPClient(url, timeout_s=5.0)
        killed = False
        while time.monotonic() < deadline and victim.poll() is None:
            try:
                status = client.call({"op": "status"})
            except OSError:
                break  # serve exits once the victim has drained the campaign
            if status["done"] or status["drained"]:
                break
            if status["leased"] >= 1:
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait()
                killed = True
                break
            time.sleep(POLL_S)
        if not killed:
            print("  missed: the victim finished before it could be killed")
            _wait(serve, deadline)
            return None
        print("  killed the victim with its leases held and nothing done")

        survivor = _worker(url, "site-survivor")
        procs.append(survivor)
        if _wait(serve, deadline) != 0:
            raise RuntimeError(f"serve exited with rc={serve.returncode}")
        with open(journal_path, encoding="utf-8") as handle:
            attempts = json.load(handle)["attempts"]
        redelivered = sum(1 for count in attempts.values() if count >= 2)
        if not redelivered:
            print("  missed: the journal shows no scenario leased twice")
            return None
        print(f"  {redelivered} scenario(s) re-leased to the survivor")
        survivor_rc = survivor.wait(timeout=30.0)
        if survivor_rc != 0:
            raise RuntimeError(f"surviving worker exited with rc={survivor_rc}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        serve_stderr.close()
    return filecmp.cmp(output_path, reference_path, shallow=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=120, help="frames per scenario")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    frames = args.frames
    for _ in range(MAX_TRIES):
        identical = _try_once(frames, deadline)
        if identical is None:
            frames *= 4
            continue
        if not identical:
            print("FAIL: service result differs from the unsharded serial run")
            return 1
        print(
            "OK: killed-worker service run is bit-identical to the serial run "
            f"({frames} frames per scenario)"
        )
        return 0
    print(f"FAIL: no kill landed mid-campaign in {MAX_TRIES} tries")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
