"""Campaign subsystem: declarative scenario specs and batch execution.

The paper's evaluation is a grid of application × governor × platform
runs.  This subpackage turns every such sweep into data plus one executor
call:

* :mod:`repro.campaign.spec` — hashable, JSON-serialisable
  :class:`ScenarioSpec` / :class:`CampaignSpec` with grid expansion;
* :mod:`repro.campaign.registry` — the name -> factory registries that
  resolve spec component names (extensible via ``register_*``);
* :mod:`repro.campaign.executor` — :class:`CampaignExecutor` with serial
  and process-pool backends, deterministic result ordering, per-scenario
  retries (:class:`RetryPolicy`), incremental atomic checkpointing, and
  resume that skips ``done`` scenarios while re-running ``failed`` ones;
* :mod:`repro.campaign.results` — the :class:`CampaignResult` store with
  per-scenario status (``done``/``failed`` + captured traceback), JSON
  round-trip persistence (shard stores merge on disk with
  :func:`~repro.campaign.store.merge_store_files`), feeding the existing
  :func:`~repro.sim.comparison.compare_to_oracle` analysis unchanged;
* :mod:`repro.campaign.service` — the fault-tolerant distributed layer:
  a lease/heartbeat :class:`Coordinator` with journalled crash-resume,
  the JSON-over-HTTP transport, pull-based :class:`WorkerSite`\\ s with
  graceful degradation, and :func:`run_campaign_service`;
* :mod:`repro.campaign.cli` — the ``repro-campaign`` console entry point
  (run, ``--shard I/N``, and the ``merge`` / ``serve`` / ``work``
  subcommands).

The public API below is resolved lazily (PEP 562, :mod:`repro._lazy`):
``import repro.campaign`` runs this file only, and each name's module is
imported when the name is first read, so a campaign run never loads the
service, and a merge or a reload loads no engine.  The subpackage holds
only what a campaign or the service runs: the fault-injection harness that
proves the service is :mod:`repro.testing.faults`.

Quickstart
----------
>>> from repro.campaign import CampaignSpec, FactorySpec, run_campaign
>>> campaign = CampaignSpec.from_grid(
...     "demo",
...     applications=[FactorySpec.of("mpeg4", num_frames=120)],
...     governors=[FactorySpec.of("ondemand"), FactorySpec.of("oracle")],
... )
>>> store = run_campaign(campaign, backend="serial")
>>> sorted(store.results())
['ondemand', 'oracle']
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.campaign.spec": ("CampaignSpec", "DEFAULT_CLUSTER", "FactorySpec", "ScenarioSpec"),
        "repro.campaign.registry": (
            "application_factory",
            "cluster_factory",
            "governor_factory",
            "probe_factory",
            "register_application",
            "register_cluster",
            "register_governor",
            "register_probe",
            "registered_names",
        ),
        "repro.campaign.results": (
            "STATUS_DONE",
            "STATUS_FAILED",
            "CampaignResult",
            "ScenarioOutcome",
            "quarantine_corrupt_file",
        ),
        "repro.campaign.executor": (
            "BACKENDS",
            "CampaignExecutor",
            "CampaignInterrupted",
            "ProcessPoolBackend",
            "RetryPolicy",
            "SerialBackend",
            "run_campaign",
            "run_scenario",
            "run_scenario_safely",
        ),
        "repro.campaign.service": (
            "Coordinator",
            "CoordinatorServer",
            "HTTPClient",
            "LocalClient",
            "ServiceEvent",
            "WorkerSite",
            "WorkerStats",
            "run_campaign_service",
        ),
    },
)
