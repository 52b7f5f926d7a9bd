"""CI chaos smoke: kill a worker site mid-campaign, assert bit-identity.

Boots the real distributed stack as OS processes — one
``repro-campaign serve`` coordinator and two ``repro-campaign work``
sites over loopback HTTP — then SIGKILLs one worker while the campaign
is in flight.  The coordinator's lease reaper must requeue the dead
worker's scenarios onto the survivor, and the merged result written by
``serve`` must be byte-identical to an unsharded in-process serial run
of the same campaign (the spec comes from
:mod:`benchmarks.make_smoke_campaign`, same as CI's sharding jobs).

Usage (from any directory)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [--frames 120]

The child processes get the absolute ``src`` of this checkout as their
``PYTHONPATH``; the coordinator's standard error is kept in the work
directory and printed when its banner does not arrive.

Exits non-zero on any divergence, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(__file__))
from make_smoke_campaign import build_smoke_campaign  # noqa: E402

from repro.campaign import run_campaign  # noqa: E402
from repro.campaign.service import HTTPClient  # noqa: E402

#: Hard wall-clock budget for the whole exercise.
DEADLINE_S = 240.0
#: Short lease so the killed worker's scenarios requeue quickly.
LEASE_TIMEOUT_S = 5.0
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=120, help="frames per scenario")
    args = parser.parse_args()

    campaign = build_smoke_campaign(num_frames=args.frames)
    print(f"chaos smoke: {len(campaign)} scenarios, {args.frames} frames each")
    reference = run_campaign(campaign)
    print("serial reference computed")

    workdir = tempfile.mkdtemp(prefix="campaign-chaos-")
    spec_path = os.path.join(workdir, "spec.json")
    output_path = os.path.join(workdir, "service.store")
    reference_path = os.path.join(workdir, "reference.store")
    journal_path = os.path.join(workdir, "journal.json")
    serve_stderr_path = os.path.join(workdir, "serve.stderr")
    campaign.save(spec_path)
    reference.save(reference_path)

    deadline = time.monotonic() + DEADLINE_S
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
        print(f"coordinator serving at {url}")

        workers = [
            _spawn(
                [
                    "work",
                    "--coordinator", url,
                    "--id", f"site-{index}",
                    "--poll", "0.2",
                    "--heartbeat", "1.0",
                    "--quiet",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for index in range(2)
        ]
        procs.extend(workers)

        # Kill worker 1 as soon as the campaign is demonstrably in flight.
        client = HTTPClient(url, timeout_s=5.0)
        while time.monotonic() < deadline:
            status = client.call({"op": "status"})
            if status["done"] >= 1 or status["drained"]:
                break
            time.sleep(0.1)
        victim = workers[1]
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
            print("killed worker site-1 mid-campaign")
        else:
            print("worker site-1 already exited (campaign drained fast)")

        while serve.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError("chaos smoke exceeded its deadline")
            time.sleep(0.2)
        if serve.returncode != 0:
            raise RuntimeError(f"serve exited with rc={serve.returncode}")
        survivor_rc = workers[0].wait(timeout=30.0)
        if survivor_rc != 0:
            raise RuntimeError(f"surviving worker exited with rc={survivor_rc}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        serve_stderr.close()

    if not filecmp.cmp(output_path, reference_path, shallow=False):
        print("FAIL: service result differs from the unsharded serial run")
        return 1
    print(
        "OK: killed-worker service run is bit-identical to the serial run "
        f"({len(reference)} scenarios)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
