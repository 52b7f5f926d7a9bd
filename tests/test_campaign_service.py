"""Tests for the distributed campaign service.

Covers the PR-7 tentpole surface: the lease/heartbeat/submit protocol of
:class:`~repro.campaign.service.Coordinator` (expiry + requeue with
bounded delivery retries, first-wins idempotent submits, journalled
crash-resume with quarantine of corrupt journals), the JSON-over-HTTP
transport, worker-site degradation (reconnect backoff + local fallback
checkpoint), the bit-identity of :func:`run_campaign_service` against a
serial run, and the ``serve`` / ``work`` CLI subcommands end to end.
"""

import json
import socket
import threading
import time

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    Coordinator,
    CoordinatorServer,
    FactorySpec,
    HTTPClient,
    LocalClient,
    RetryPolicy,
    ScenarioOutcome,
    WorkerSite,
    run_campaign,
    run_campaign_service,
)
from repro.campaign import service
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.campaign.service import (
    STATE_DRAINED,
    STATE_GRANTED,
    STATE_WAIT,
    dispatch_op,
)
from repro.errors import ConfigurationError, ServiceError
from tests.conftest import merged_bytes, saved_bytes

#: Small scale so the whole module stays fast.
FRAMES = 60


def small_campaign(name="service", seeds=(1, 2)):
    return CampaignSpec.from_grid(
        name,
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=seeds,
    )


@pytest.fixture(scope="module")
def campaign():
    return small_campaign()


@pytest.fixture(scope="module")
def serial_store(campaign):
    return run_campaign(campaign)


class FakeClock:
    """Manually advanced clock so lease expiry is deterministic in tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_coordinator(campaign, **kwargs):
    kwargs.setdefault("lease_timeout_s", 10.0)
    clock = kwargs.pop("clock", None) or FakeClock()
    return Coordinator(campaign, clock=clock, **kwargs), clock


class TestCoordinatorProtocol:
    def test_lease_grants_distinct_scenarios(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        first = coordinator.lease("w0", count=2)
        second = coordinator.lease("w1", count=2)
        assert first["state"] == second["state"] == STATE_GRANTED
        assert first["campaign"] == campaign.name
        granted = first["leases"] + second["leases"]
        labels = {lease["scenario"]["label"] for lease in granted}
        assert labels == set(campaign.labels)
        # Everything is leased out: a third worker has to wait.
        assert coordinator.lease("w2")["state"] == STATE_WAIT

    def test_heartbeat_keeps_lease_alive(self, campaign):
        coordinator, clock = make_coordinator(campaign)
        lease = coordinator.lease("w0")["leases"][0]
        clock.now = 8.0
        coordinator.heartbeat("w0", [lease["lease_id"]])
        clock.now = 15.0  # past the original deadline, inside the extended one
        coordinator.tick()
        assert coordinator.stats["requeued"] == 0

    def test_expired_lease_requeues_with_backoff(self, campaign):
        # One scenario only, so a lease during its backoff window must wait.
        campaign = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, clock = make_coordinator(
            campaign, retry=RetryPolicy(max_attempts=3, backoff_s=2.0)
        )
        lease = coordinator.lease("w0")["leases"][0]
        clock.now = 11.0
        coordinator.tick()
        assert coordinator.stats["requeued"] == 1
        # The scenario is backoff-delayed: an immediate lease must wait...
        waiting = coordinator.lease("w1")
        assert waiting["state"] == STATE_WAIT
        # ...until the coordinator's next self-inflicted deadline passes.
        clock.now = coordinator.next_deadline() + 0.01
        regranted = coordinator.lease("w1")
        assert regranted["state"] == STATE_GRANTED
        assert (
            regranted["leases"][0]["scenario"]["label"]
            == lease["scenario"]["label"]
        )

    def test_exhausted_deliveries_fail_terminally(self, campaign):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, clock = make_coordinator(
            solo, retry=RetryPolicy(max_attempts=1, backoff_s=0.0)
        )
        coordinator.lease("w0")
        clock.now = 11.0
        coordinator.tick()
        assert coordinator.stats["expired_failed"] == 1
        assert coordinator.finished
        outcome = next(iter(coordinator.result()))
        assert not outcome.ok
        assert "lease expired" in outcome.error

    def test_submit_is_first_wins(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        lease = coordinator.lease("w0")["leases"][0]
        sid = None
        for outcome in serial_store:
            if outcome.label == lease["scenario"]["label"]:
                sid = outcome
        first = coordinator.submit("w0", lease["lease_id"], sid)
        assert first["ok"] and first["accepted"] and not first["duplicate"]
        again = coordinator.submit("w1", None, sid)
        assert again["ok"] and again["duplicate"] and not again["accepted"]
        assert coordinator.stats["duplicates"] == 1

    def test_submit_unknown_scenario_rejected(self, campaign, serial_store):
        other = small_campaign(name="other", seeds=(9,))
        coordinator, _ = make_coordinator(other)
        stray = next(iter(serial_store))
        response = coordinator.submit("w0", None, stray)
        assert not response["ok"]
        assert "unknown scenario" in response["error"]

    def test_all_submits_drain_to_serial_bytes(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        for outcome in serial_store:
            coordinator.submit("w0", None, outcome)
        assert coordinator.finished
        assert coordinator.lease("w0")["state"] == STATE_DRAINED
        assert saved_bytes(coordinator.result()) == saved_bytes(serial_store)

    def test_workers_told_drained_by_lease_or_submit(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        outcomes = list(serial_store)
        coordinator.lease("w0")
        coordinator.submit("w1", None, outcomes[0])
        coordinator.heartbeat("w2", [])
        assert coordinator.workers_not_told_drained == ["w0", "w1", "w2"]
        for outcome in outcomes[1:]:
            response = coordinator.submit("w0", None, outcome)
        assert response["drained"]
        assert coordinator.workers_not_told_drained == ["w1", "w2"]
        # A heartbeat's "drained" flag does not stop a worker; a lease does.
        assert coordinator.heartbeat("w2", [])["drained"]
        assert coordinator.lease("w1")["state"] == STATE_DRAINED
        assert coordinator.workers_not_told_drained == ["w2"]
        assert coordinator.lease("w2")["state"] == STATE_DRAINED
        assert coordinator.workers_not_told_drained == []

    def test_result_before_drain_raises(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        with pytest.raises(ServiceError, match="without a final outcome"):
            coordinator.result()

    def test_status_counts(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        coordinator.submit("w0", None, next(iter(serial_store)))
        status = coordinator.status(include_summary=True)
        assert status["total"] == len(campaign)
        assert status["done"] == 1
        assert not status["drained"]
        assert "w0" in status["workers"]
        assert campaign.labels[0] in status["summary"]

    def test_dispatch_routes_and_reports_errors(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        assert dispatch_op(coordinator, {"op": "status"})["ok"]
        assert not dispatch_op(coordinator, {"op": "nope"})["ok"]
        bad = dispatch_op(coordinator, {"op": "lease", "count": 0})
        assert not bad["ok"] and "ConfigurationError" in bad["error"]

    def test_lease_timeout_validated(self, campaign):
        with pytest.raises(ConfigurationError):
            Coordinator(campaign, lease_timeout_s=0.0)

    def test_submit_carries_the_store_record(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        outcome = next(iter(serial_store))
        record = result_store.encode_record(outcome)
        # A lease id is opaque text: one of another JSON type names no lease.
        response = LocalClient(coordinator).call(
            {"op": "submit", "worker": "w0", "lease_id": ["?"], "outcome": record}
        )
        assert response["ok"] and response["accepted"]
        # The coordinator recomputes the metrics from the frames; an honest
        # worker's cached ones are the same values.
        assert coordinator.store.outcomes[outcome.scenario_id].metrics == record["metrics"]

    def test_packed_submit_round_trips_bit_exact(self, campaign, serial_store):
        """What a worker sends: frames packed, so smaller than the list form."""
        coordinator, _ = make_coordinator(campaign)
        client = LocalClient(coordinator)
        for outcome in serial_store:
            record = result_store.packed_record(outcome)
            assert isinstance(record["result"]["frames"]["energy_j"], str)
            listed = result_store.encode_record(outcome)
            assert len(json.dumps(record)) < len(json.dumps(listed))
            response = client.call({"op": "submit", "worker": "w0", "outcome": record})
            assert response["ok"] and response["accepted"]
            stored = coordinator.store.outcomes[outcome.scenario_id]
            assert stored == outcome
            assert result_store.encode_line(stored) == result_store.encode_line(outcome)
            assert stored.metrics == listed["metrics"]
        assert saved_bytes(coordinator.result()) == saved_bytes(serial_store)

    @pytest.mark.parametrize("metrics", [5, "x", {"total_energy_j": 1e9}])
    def test_submitted_metrics_are_recomputed(
        self, campaign, serial_store, tmp_path, metrics
    ):
        journal = str(tmp_path / "journal.json")
        coordinator, _ = make_coordinator(campaign, journal_path=journal)
        client = LocalClient(coordinator)
        outcomes = list(serial_store)
        record = result_store.encode_record(outcomes[0])
        honest = record["metrics"]
        record["metrics"] = metrics
        response = client.call({"op": "submit", "worker": "w0", "outcome": record})
        assert response["ok"] and response["accepted"]
        assert coordinator.store.outcomes[outcomes[0].scenario_id].metrics == honest
        # The journal keeps being written: later leases and submits work.
        grant = client.call({"op": "lease", "worker": "w0", "count": len(campaign)})
        assert grant["ok"] and len(grant["leases"]) == len(campaign) - 1
        for outcome in outcomes[1:]:
            coordinator.submit("w0", None, outcome)
        coordinator.close_journal()
        assert saved_bytes(coordinator.result()) == saved_bytes(serial_store)


#: Requests that cannot be parsed, each of which once raised out of
#: ``dispatch_op`` (over HTTP: a connection closed without a response).
MALFORMED_REQUESTS = {
    "submit-without-outcome": {"op": "submit"},
    "submit-record-without-scenario": {"op": "submit", "outcome": {"status": "done"}},
    "lease-count-not-an-integer": {"op": "lease", "count": "two"},
    "submit-record-not-an-object": {"op": "submit", "outcome": []},
    "heartbeat-leases-not-a-list": {"op": "heartbeat", "leases": 5},
}


def _poisoned_records(record):
    """Store records that parse but do not decode, or whose frames no summary
    can be taken over: list-framed (:func:`encode_record`, still accepted) and
    packed (as a jsonl store line holds them)."""
    text = json.loads(json.dumps(record))
    text["result"]["frames"]["energy_j"][0] = "x"
    short = json.loads(json.dumps(record))
    short["result"]["frames"]["energy_j"].pop()
    bad_base64 = json.loads(result_store.record_line(record))
    bad_base64["result"]["frames"]["energy_j"] = "not base64!"
    packed_short = json.loads(result_store.record_line(record))
    packed_short["result"]["frames"]["energy_j"] = result_store._pack_floats(
        record["result"]["frames"]["energy_j"][:-1]
    )
    return {
        "frame-value-not-a-number": text,
        "frame-column-too-short": short,
        "packed-column-not-base64": bad_base64,
        "packed-column-too-short": packed_short,
    }


class TestMalformedRequests:
    @pytest.mark.parametrize("transport", ["local", "http"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_REQUESTS))
    def test_answered_with_an_error(self, campaign, transport, name):
        coordinator, _ = make_coordinator(campaign)
        server = None
        if transport == "http":
            server = CoordinatorServer(coordinator)
            server.start()
            client = HTTPClient(server.address, timeout_s=5.0)
        else:
            client = LocalClient(coordinator)
        try:
            response = client.call(MALFORMED_REQUESTS[name])
            assert response["ok"] is False
            assert "malformed" in response["error"]
            # Nothing was recorded and the coordinator keeps serving.
            status = client.call({"op": "status"})
            assert status["ok"] and status["done"] == 0
        finally:
            if server is not None:
                server.stop()

    @pytest.mark.parametrize(
        "name",
        [
            "frame-value-not-a-number",
            "frame-column-too-short",
            "packed-column-not-base64",
            "packed-column-too-short",
        ],
    )
    def test_poisoned_record_rejected(self, campaign, serial_store, name):
        coordinator, _ = make_coordinator(campaign)
        client = LocalClient(coordinator)
        record = result_store.encode_record(next(iter(serial_store)))
        response = client.call({"op": "submit", "outcome": _poisoned_records(record)[name]})
        assert response["ok"] is False
        assert "malformed" in response["error"]
        assert client.call({"op": "status"})["done"] == 0


class TestCoordinatorJournal:
    def test_restart_resumes_from_journal(self, campaign, serial_store, tmp_path):
        journal = str(tmp_path / "journal.json")
        coordinator, _ = make_coordinator(campaign, journal_path=journal)
        for outcome in list(serial_store)[:2]:
            coordinator.submit("w0", None, outcome)
        # A brand-new coordinator (same journal) carries the work over.
        revived, _ = make_coordinator(campaign, journal_path=journal)
        assert revived.stats["resumed"] == 2
        assert len(revived.store) == 2
        grant = revived.lease("w0", count=len(campaign))
        assert len(grant["leases"]) == len(campaign) - 2

    def test_corrupt_journal_quarantined(self, campaign, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text("{truncated by a crash", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            coordinator, _ = make_coordinator(campaign, journal_path=str(journal))
        assert len(coordinator.store) == 0
        # A fresh, empty journal took the corrupt one's place.
        assert json.loads(journal.read_text(encoding="utf-8"))["attempts"] == {}
        assert len(CampaignResult.load(f"{journal}.outcomes")) == 0
        assert (tmp_path / "journal.json.corrupt").exists()

    def test_resumed_failure_with_budget_is_rerun(self, campaign):
        seed = CampaignResult(campaign_name=campaign.name)
        seed.add(
            ScenarioOutcome.failure(
                campaign.scenarios[0], error="Killed", traceback_text=""
            )
        )
        coordinator, _ = make_coordinator(
            campaign, resume=seed, retry=RetryPolicy(max_attempts=2)
        )
        grant = coordinator.lease("w0", count=len(campaign))
        granted = {lease["scenario"]["label"] for lease in grant["leases"]}
        assert campaign.scenarios[0].label in granted


class TestInProcessService:
    def test_service_run_is_bit_identical_to_serial(self, campaign, serial_store):
        events = []
        store = run_campaign_service(campaign, num_workers=3, progress=events.append)
        assert saved_bytes(store) == saved_bytes(serial_store)
        # Live streaming observed every completion, in order.
        assert [event.kind for event in events] == ["done"] * len(campaign)
        assert events[-1].done == events[-1].total == len(campaign)

    def test_worker_count_validated(self, campaign):
        with pytest.raises(ConfigurationError):
            run_campaign_service(campaign, num_workers=0)


class _SubmitLostClient:
    """Delegates to a real client but loses the coordinator at submit time."""

    def __init__(self, inner):
        self.inner = inner

    def call(self, request):
        if request.get("op") == "submit":
            raise ConnectionRefusedError("coordinator gone")
        return self.inner.call(request)


class _FinishedElsewhereClient:
    """Another worker finishes the campaign just before this worker's first
    submit; once the coordinator has answered "drained" it is gone."""

    def __init__(self, coordinator, outcomes):
        self.coordinator = coordinator
        self.inner = LocalClient(coordinator)
        self.outcomes = outcomes
        self.submits = 0
        self.told_drained = False

    def call(self, request):
        if request.get("op") != "submit":
            return self.inner.call(request)
        if self.told_drained:
            raise ConnectionRefusedError("coordinator closed after the drain")
        if self.submits == 0:
            for outcome in self.outcomes:
                self.coordinator.submit("other", None, outcome)
        self.submits += 1
        response = self.inner.call(request)
        self.told_drained = response["drained"]
        return response


class TestWorkerDegradation:
    def test_stops_submitting_once_told_drained(self, campaign, serial_store, tmp_path):
        pair = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:2])
        coordinator, _ = make_coordinator(pair)
        client = _FinishedElsewhereClient(
            coordinator,
            [serial_store.outcomes[s.scenario_id] for s in pair.scenarios],
        )
        fallback = tmp_path / "stranded.json"
        stats = WorkerSite(
            client,
            worker_id="late",
            lease_count=2,
            reconnect=RetryPolicy(max_attempts=1),
            fallback_path=str(fallback),
            heartbeat_interval_s=None,
        ).run()
        # The first submit is a duplicate answered "drained"; the second
        # outcome is one too, so it is neither submitted nor stranded.
        assert client.submits == 1
        assert stats.drained and stats.stranded == 0
        assert not fallback.exists()
        assert coordinator.workers_not_told_drained == []

    def test_unreachable_submit_strands_to_fallback(self, campaign, tmp_path):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, _ = make_coordinator(solo)
        fallback = str(tmp_path / "stranded.json")
        site = WorkerSite(
            _SubmitLostClient(LocalClient(coordinator)),
            worker_id="doomed",
            reconnect=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fallback_path=fallback,
            poll_interval_s=0.01,
            heartbeat_interval_s=None,
        )
        stats = site.run()
        assert stats.completed == 0
        assert stats.stranded == 1
        stranded = CampaignResult.load(fallback)
        assert stranded.campaign_name == solo.name
        assert [outcome.label for outcome in stranded] == [solo.scenarios[0].label]

    def test_stranded_results_merge_back(self, campaign, serial_store, tmp_path):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, _ = make_coordinator(solo)
        fallback = str(tmp_path / "stranded.json")
        WorkerSite(
            _SubmitLostClient(LocalClient(coordinator)),
            reconnect=RetryPolicy(max_attempts=1),
            fallback_path=fallback,
            heartbeat_interval_s=None,
        ).run()
        merged = merged_bytes([CampaignResult.load(fallback)], spec=solo)
        assert merged == saved_bytes(CampaignResult(
            campaign_name=solo.name,
            outcomes={
                s.scenario_id: serial_store.outcomes[s.scenario_id]
                for s in solo.scenarios
            },
        ))

    def test_never_reachable_coordinator_exits_cleanly(self, tmp_path):
        class DeadClient:
            def call(self, request):
                raise ConnectionRefusedError("nothing listening")

        site = WorkerSite(
            DeadClient(),
            reconnect=RetryPolicy(max_attempts=2, backoff_s=0.0),
            heartbeat_interval_s=None,
        )
        stats = site.run()
        assert stats.completed == 0 and not stats.drained


class TestHTTPTransport:
    def test_http_worker_sites_match_serial(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign, clock=time.monotonic)
        server = CoordinatorServer(coordinator)
        server.start()
        try:
            status = HTTPClient(server.address).call({"op": "status"})
            assert status["ok"] and status["total"] == len(campaign)
            sites = [
                WorkerSite(
                    HTTPClient(server.address),
                    worker_id=f"http-{index}",
                    poll_interval_s=0.05,
                )
                for index in range(2)
            ]
            results = {}
            threads = [
                threading.Thread(
                    target=lambda s=site: results.setdefault(s.worker_id, s.run()),
                    daemon=True,
                )
                for site in sites
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert all(stats.drained for stats in results.values())
            assert saved_bytes(coordinator.result()) == saved_bytes(serial_store)
        finally:
            server.stop()

    def test_malformed_request_is_a_400(self, campaign):
        from urllib import error, request

        coordinator, _ = make_coordinator(campaign)
        server = CoordinatorServer(coordinator)
        server.start()
        try:
            with pytest.raises(error.HTTPError) as info:
                request.urlopen(
                    request.Request(
                        f"{server.address}/rpc", data=b"not json", method="POST"
                    ),
                    timeout=5.0,
                )
            assert info.value.code == 400
        finally:
            server.stop()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeWorkCli:
    def test_serve_and_work_roundtrip(self, campaign, serial_store, tmp_path):
        spec_path = str(tmp_path / "spec.json")
        campaign.save(spec_path)
        output = str(tmp_path / "service-results.json")
        port = _free_port()
        serve_rc = {}

        def serve():
            serve_rc["rc"] = cli_main(
                [
                    "serve",
                    spec_path,
                    "--port",
                    str(port),
                    "--output",
                    output,
                    "--quiet",
                ]
            )

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        url = f"http://127.0.0.1:{port}"
        client = HTTPClient(url, timeout_s=5.0)
        deadline = time.monotonic() + 15.0
        while True:
            try:
                client.call({"op": "status"})
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert cli_main(
            ["work", "--coordinator", url, "--quiet", "--poll", "0.05"]
        ) == 0
        server_thread.join(timeout=60.0)
        assert not server_thread.is_alive()
        assert serve_rc["rc"] == 0
        assert saved_bytes(CampaignResult.load(output)) == saved_bytes(serial_store)

    def test_work_against_nothing_fails(self, tmp_path, monkeypatch):
        # One immediate retry instead of the default backoff schedule.
        monkeypatch.setattr(
            service, "DEFAULT_RECONNECT", RetryPolicy(max_attempts=2, backoff_s=0.0)
        )
        port = _free_port()  # nothing is listening on it
        rc = cli_main(
            ["work", "--coordinator", f"http://127.0.0.1:{port}", "--quiet"]
        )
        assert rc == 1

    def test_serve_rejects_bad_spec(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli_main(["serve", missing, "--quiet"]) == 2
        assert "serve" in capsys.readouterr().err
