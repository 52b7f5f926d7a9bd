"""Tests for the deterministic fault-injection harness.

The service's headline guarantee is that *any* fault schedule — worker
crashes, dropped/duplicated responses, heartbeat loss, coordinator
restarts — yields a merged result bit-identical to an unsharded serial
run.  These tests drive every fault kind individually, all of them at
once, and a seeded random sweep, comparing JSON bytes each time.
"""

import pytest

from repro.campaign import (
    CampaignSpec,
    FactorySpec,
    RetryPolicy,
    run_campaign,
)
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    run_with_faults,
)
from repro.errors import ConfigurationError
from tests.conftest import saved_bytes

#: Small scale so the whole module stays fast.
FRAMES = 60


@pytest.fixture(scope="module")
def campaign():
    return CampaignSpec.from_grid(
        "faults",
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=(1, 2),
    )


@pytest.fixture(scope="module")
def serial_store(campaign):
    return run_campaign(campaign)


class TestScheduleConstruction:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent(kind="meteor-strike", at=1)
        with pytest.raises(ConfigurationError, match=">= 1"):
            FaultEvent(kind="crash-worker", at=0)

    def test_random_is_deterministic(self):
        first = FaultSchedule.random(seed=42)
        second = FaultSchedule.random(seed=42)
        assert first.events == second.events
        assert FaultSchedule.random(seed=43).events != first.events

    def test_random_respects_bounds(self):
        schedule = FaultSchedule.random(seed=7, count=10, horizon=2)
        assert len(schedule.events) == 10
        assert all(event.kind in FAULT_KINDS for event in schedule.events)
        assert all(1 <= event.at <= 2 for event in schedule.events)


class TestSingleFaultKinds:
    def test_worker_crash_requeues_and_matches_serial(self, campaign, serial_store):
        report = run_with_faults(
            campaign, FaultSchedule.of(FaultEvent("crash-worker", at=1))
        )
        assert [event.kind for event in report.fired] == ["crash-worker"]
        assert report.coordinator_stats["requeued"] >= 1
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_dropped_response_is_retried(self, campaign, serial_store):
        report = run_with_faults(
            campaign, FaultSchedule.of(FaultEvent("drop-response", at=1))
        )
        assert [event.kind for event in report.fired] == ["drop-response"]
        assert any("dropped" in line for line in report.events_log)
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_duplicate_response_is_acknowledged(self, campaign, serial_store):
        report = run_with_faults(
            campaign, FaultSchedule.of(FaultEvent("duplicate-response", at=2))
        )
        assert report.duplicates_acknowledged == 1
        assert report.coordinator_stats["duplicates"] == 1
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_heartbeat_loss_requeues_first_wins(self, campaign, serial_store):
        report = run_with_faults(
            campaign, FaultSchedule.of(FaultEvent("lose-heartbeats", at=1))
        )
        assert any("heartbeats lost" in line for line in report.events_log)
        assert report.coordinator_stats["requeued"] >= 1
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_coordinator_restart_resumes_from_journal(self, campaign, serial_store):
        report = run_with_faults(
            campaign, FaultSchedule.of(FaultEvent("restart-coordinator", at=1))
        )
        assert report.restarts == 1
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_all_fault_kinds_together(self, campaign, serial_store):
        schedule = FaultSchedule.of(
            FaultEvent("lose-heartbeats", at=1),
            FaultEvent("crash-worker", at=1),
            FaultEvent("drop-response", at=1),
            FaultEvent("duplicate-response", at=2),
            FaultEvent("restart-coordinator", at=1),
        )
        report = run_with_faults(campaign, schedule)
        assert sorted(event.kind for event in report.fired) == sorted(FAULT_KINDS)
        assert saved_bytes(report.result) == saved_bytes(serial_store)


class TestRandomSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_schedule_is_bit_identical(self, campaign, serial_store, seed):
        report = run_with_faults(campaign, FaultSchedule.random(seed))
        assert saved_bytes(report.result) == saved_bytes(serial_store)


class TestElasticityAndExhaustion:
    def test_all_workers_dead_respawns(self, campaign, serial_store):
        schedule = FaultSchedule.of(
            FaultEvent("crash-worker", at=1),
            FaultEvent("crash-worker", at=2),
        )
        report = run_with_faults(campaign, schedule, num_workers=2)
        assert report.respawned >= 1
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_exhausted_delivery_budget_records_failure(self, campaign):
        # Scenarios finish inside their lease (work_time < lease_timeout),
        # so only the crashed worker's scenario consumes its single
        # delivery attempt without a result and fails terminally.
        report = run_with_faults(
            campaign,
            FaultSchedule.of(FaultEvent("crash-worker", at=1)),
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
            work_time_s=2.0,
        )
        failures = report.result.failed()
        assert report.coordinator_stats["expired_failed"] == len(failures) == 1
        assert "lease expired" in failures[0].error

    def test_fault_free_schedule_matches_serial(self, campaign, serial_store):
        report = run_with_faults(campaign, FaultSchedule.of(), num_workers=3)
        assert report.fired == []
        assert saved_bytes(report.result) == saved_bytes(serial_store)

    def test_worker_count_validated(self, campaign):
        with pytest.raises(ConfigurationError):
            run_with_faults(campaign, FaultSchedule.of(), num_workers=0)
