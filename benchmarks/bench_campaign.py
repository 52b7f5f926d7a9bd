"""Benchmark the campaign executor: serial vs process-pool backends.

Runs the acceptance sweep — three applications × four governors, twelve
scenarios — through both backends and checks that the process pool's output
is bit-identical to the serial run (same scenarios, same per-frame records,
byte-equal saved result stores).  The printed timing shows the wall-clock effect of
fanning the independent simulations out over the cores.
"""

from __future__ import annotations

import time

from repro.campaign import CampaignResult, CampaignSpec, FactorySpec, run_campaign

GOVERNORS = {
    "ondemand": FactorySpec.of("ondemand"),
    "multicore-dvfs": FactorySpec.of("multicore-dvfs"),
    "proposed": FactorySpec.of("proposed"),
    "oracle": FactorySpec.of("oracle"),
}


def _acceptance_campaign(num_frames: int) -> CampaignSpec:
    return CampaignSpec.from_grid(
        "backend-equivalence",
        applications={
            "mpeg4": FactorySpec.of("mpeg4", num_frames=num_frames),
            "h264": FactorySpec.of("h264", num_frames=num_frames),
            "fft": FactorySpec.of("fft", num_frames=num_frames),
        },
        governors=GOVERNORS,
        seeds=(11,),
    )


def saved_bytes(store: CampaignResult, path) -> bytes:
    """The bytes ``store.save`` writes: the strict equality oracle."""
    store.save(str(path))
    return path.read_bytes()


def test_bench_parallel_vs_serial_identical(benchmark, quick_settings, tmp_path):
    campaign = _acceptance_campaign(quick_settings.num_frames)
    assert len(campaign) >= 12

    def run():
        started = time.perf_counter()
        serial = run_campaign(campaign, backend="serial")
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        parallel = run_campaign(campaign, backend="process")
        parallel_s = time.perf_counter() - started
        return serial, parallel, serial_s, parallel_s

    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print()
    print(
        f"{len(campaign)} scenarios: serial {serial_s:.1f} s, "
        f"process pool {parallel_s:.1f} s ({serial_s / parallel_s:.2f}x)"
    )
    # The parallel run must be indistinguishable from the serial run.
    assert saved_bytes(serial, tmp_path / "serial.store") == saved_bytes(
        parallel, tmp_path / "parallel.store"
    )
    assert list(serial.results()) == campaign.labels


def test_bench_campaign_resume_skips_completed(benchmark, quick_settings, tmp_path):
    """Resuming from a full result store re-runs nothing and is near-instant."""
    campaign = _acceptance_campaign(min(quick_settings.num_frames, 300))
    store = run_campaign(campaign)

    def resume():
        return run_campaign(campaign, resume=store)

    resumed = benchmark.pedantic(resume, rounds=3, iterations=1)
    assert saved_bytes(resumed, tmp_path / "resumed.store") == saved_bytes(
        store, tmp_path / "store.store"
    )
