"""Tests for the campaign subsystem: specs, executor backends, result store."""

import json

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignResult,
    CampaignSpec,
    FactorySpec,
    RetryPolicy,
    ScenarioSpec,
    register_application,
    run_campaign,
    run_scenario,
    run_scenario_safely,
)
from repro.campaign import executor as campaign_executor
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimulationConfig
from repro.sim.results import SimulationResult
from repro.workload.video import mpeg4_application
from tests.conftest import saved_bytes

#: Small scale so the whole module stays fast.
FRAMES = 120


def acceptance_campaign(num_frames=FRAMES, seeds=(11,)):
    """Three applications x four governors — the acceptance-criterion grid."""
    return CampaignSpec.from_grid(
        "acceptance",
        applications={
            "mpeg4": FactorySpec.of("mpeg4", num_frames=num_frames),
            "h264": FactorySpec.of("h264", num_frames=num_frames),
            "fft": FactorySpec.of("fft", num_frames=num_frames),
        },
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "multicore-dvfs": FactorySpec.of("multicore-dvfs"),
            "proposed": FactorySpec.of("proposed"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=seeds,
    )


@pytest.fixture(scope="module")
def small_campaign():
    return CampaignSpec.from_grid(
        "small",
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=(3, 4),
    )


@pytest.fixture(scope="module")
def small_store(small_campaign):
    return run_campaign(small_campaign)


class TestFactorySpec:
    def test_param_order_does_not_matter(self):
        first = FactorySpec.of("mpeg4", num_frames=10, seed=1)
        second = FactorySpec.of("mpeg4", seed=1, num_frames=10)
        assert first == second
        assert hash(first) == hash(second)

    def test_kwargs_round_trip(self):
        spec = FactorySpec.of("parsec", benchmark="bodytrack", num_frames=50)
        assert spec.kwargs == {"benchmark": "bodytrack", "num_frames": 50}

    def test_sequences_are_frozen_and_thawed(self):
        spec = FactorySpec.of("custom", values=[1, 2, 3])
        assert spec.params == (("values", (1, 2, 3)),)
        assert spec.kwargs == {"values": [1, 2, 3]}

    def test_rejects_non_json_params(self):
        with pytest.raises(ConfigurationError):
            FactorySpec.of("custom", bad=object())

    def test_json_round_trip(self):
        spec = FactorySpec.of("mpeg4", num_frames=10)
        assert FactorySpec.from_dict(spec.to_dict()) == spec


class TestScenarioSpec:
    def test_is_hashable(self):
        scenario = ScenarioSpec(
            label="x",
            application=FactorySpec.of("mpeg4", num_frames=10),
            governor=FactorySpec.of("ondemand"),
        )
        assert scenario in {scenario}

    def test_scenario_id_is_stable_and_content_addressed(self):
        build = lambda frames: ScenarioSpec(
            label="x",
            application=FactorySpec.of("mpeg4", num_frames=frames),
            governor=FactorySpec.of("ondemand"),
        )
        assert build(10).scenario_id == build(10).scenario_id
        assert build(10).scenario_id != build(20).scenario_id

    def test_json_round_trip_preserves_id(self):
        scenario = ScenarioSpec(
            label="x",
            application=FactorySpec.of("mpeg4", num_frames=10),
            governor=FactorySpec.of("proposed", ewma_gamma=0.4),
            config=SimulationConfig(idle_until_deadline=False),
            seed=5,
            probe=FactorySpec.of("rl-prediction", early_window=50),
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert restored == scenario
        assert restored.scenario_id == scenario.scenario_id


class TestCampaignSpec:
    def test_grid_expansion_counts(self):
        campaign = acceptance_campaign(seeds=(1, 2))
        assert len(campaign) == 3 * 4 * 2

    def test_grid_labels_unique_and_ordered(self, small_campaign):
        assert small_campaign.labels == [
            "ondemand/seed=3",
            "ondemand/seed=4",
            "oracle/seed=3",
            "oracle/seed=4",
        ]

    def test_duplicate_labels_rejected(self):
        scenario = ScenarioSpec(
            label="dup",
            application=FactorySpec.of("mpeg4", num_frames=10),
            governor=FactorySpec.of("ondemand"),
        )
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad", scenarios=(scenario, scenario))

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="empty", scenarios=())

    def test_json_round_trip(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.json"
        small_campaign.save(str(path))
        assert CampaignSpec.load(str(path)) == small_campaign


class TestRunScenario:
    def test_seed_overrides_application_seed(self):
        build = lambda seed: run_scenario(
            ScenarioSpec(
                label="x",
                application=FactorySpec.of("mpeg4", num_frames=FRAMES),
                governor=FactorySpec.of("ondemand"),
                seed=seed,
            )
        )
        first, second = build(1), build(2)
        assert first.result.records != second.result.records
        assert build(1).result.records == first.result.records

    def test_unknown_names_raise(self):
        scenario = ScenarioSpec(
            label="x",
            application=FactorySpec.of("no-such-app"),
            governor=FactorySpec.of("ondemand"),
        )
        with pytest.raises(ConfigurationError):
            run_scenario(scenario)

    def test_probe_payload_attached(self):
        outcome = run_scenario(
            ScenarioSpec(
                label="x",
                application=FactorySpec.of("mpeg4", num_frames=FRAMES),
                governor=FactorySpec.of("proposed"),
                probe=FactorySpec.of("rl-prediction", early_window=50),
            )
        )
        assert outcome.probe is not None
        assert len(outcome.probe["predicted_cycles"]) > 0
        assert outcome.probe["ewma_gamma"] == pytest.approx(0.6)


class TestBackendDeterminism:
    def test_parallel_identical_to_serial(self):
        """The acceptance grid (12 scenarios) is bit-identical on both backends."""
        campaign = acceptance_campaign()
        assert len(campaign) >= 12
        serial = run_campaign(campaign, backend="serial")
        parallel = run_campaign(campaign, backend="process", max_workers=4)
        assert saved_bytes(serial) == saved_bytes(parallel)
        assert list(parallel.results()) == campaign.labels

    def test_rerun_is_deterministic(self, small_campaign, small_store):
        again = run_campaign(small_campaign)
        assert saved_bytes(again) == saved_bytes(small_store)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(backend="threads")


class TestCampaignResult:
    def test_results_mapping_in_campaign_order(self, small_campaign, small_store):
        assert list(small_store.results()) == small_campaign.labels
        for result in small_store.results().values():
            assert isinstance(result, SimulationResult)
            assert result.num_frames == FRAMES

    def test_select_by_grid_coordinates(self, small_store):
        ondemand = small_store.select(governor_key="ondemand")
        assert len(ondemand) == 2
        assert {o.scenario.seed for o in ondemand} == {3, 4}
        assert small_store.select(governor_key="ondemand", seed=3)[0].label == "ondemand/seed=3"

    def test_json_round_trip_preserves_everything(self, small_store, tmp_path):
        path = tmp_path / "results.json"
        small_store.save(str(path))
        restored = CampaignResult.load(str(path))
        assert saved_bytes(restored) == saved_bytes(small_store)
        original = next(iter(small_store)).result
        loaded = next(iter(restored)).result
        assert loaded.records == original.records
        assert loaded.total_energy_j == original.total_energy_j

    def test_ordered_for_missing_scenario_raises(self, small_campaign):
        with pytest.raises(SimulationError):
            CampaignResult(campaign_name="small").ordered_for(small_campaign)


class TestResume:
    def test_resume_skips_completed_scenarios(self, small_campaign, small_store):
        executed = []

        def progress(label, done, total):
            executed.append(label)

        partial = CampaignResult(small_store.campaign_name, dict(small_store.outcomes))
        dropped = small_campaign.scenarios[1].scenario_id
        del partial.outcomes[dropped]

        executor = CampaignExecutor(backend="serial")
        resumed = executor.run(small_campaign, resume=partial, progress=progress)
        # Only the dropped scenario re-ran, and the final store is complete
        # and identical to the from-scratch run.
        assert executed == [small_campaign.scenarios[1].label]
        assert saved_bytes(resumed) == saved_bytes(small_store)

    def test_resume_from_disk(self, small_campaign, small_store, tmp_path):
        path = tmp_path / "partial.json"
        small_store.save(str(path))
        resumed = run_campaign(small_campaign, resume=CampaignResult.load(str(path)))
        assert saved_bytes(resumed) == saved_bytes(small_store)

    def test_resume_with_full_store_runs_nothing(self, small_campaign, small_store):
        executed = []
        CampaignExecutor().run(
            small_campaign,
            resume=small_store,
            progress=lambda label, done, total: executed.append(label),
        )
        assert executed == []


class TestRegistryExtension:
    def test_custom_application_factory(self):
        @register_application("test-custom-app")
        def custom(num_frames=30, seed=0):
            return mpeg4_application(num_frames=num_frames, seed=seed)

        outcome = run_scenario(
            ScenarioSpec(
                label="custom",
                application=FactorySpec.of("test-custom-app", num_frames=40),
                governor=FactorySpec.of("ondemand"),
            )
        )
        assert outcome.result.num_frames == 40


def counting_factory(calls, fail_first=0):
    """An mpeg4 factory that logs each build's seed and fails its first builds."""

    def build(num_frames=30, seed=0):
        calls.append(seed)
        if len(calls) <= fail_first:
            raise RuntimeError("transient build failure")
        return mpeg4_application(num_frames=num_frames, seed=seed)

    return build


class TestApplicationCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        campaign_executor._build_application.cache_clear()
        yield
        campaign_executor._build_application.cache_clear()

    @staticmethod
    def grid(application, seeds=(1, 2), governors=("performance", "ondemand", "proposed")):
        return CampaignSpec.from_grid(
            "app-cache",
            applications=[FactorySpec.of(application, num_frames=30)],
            governors={name: FactorySpec.of(name) for name in governors},
            seeds=seeds,
        )

    def test_one_build_per_application_and_seed(self):
        calls = []
        register_application("test-cache-counting", counting_factory(calls))
        store = run_campaign(self.grid("test-cache-counting"), backend="serial")
        assert len(store.done()) == 6
        assert sorted(calls) == [1, 2]

    def test_shared_build_matches_fresh_builds_in_any_order(self):
        forward_spec = self.grid("mpeg4")
        forward = run_campaign(forward_spec)
        campaign_executor._build_application.cache_clear()
        backward_spec = CampaignSpec(
            name=forward_spec.name, scenarios=tuple(reversed(forward_spec.scenarios))
        )
        backward = run_campaign(backward_spec)
        assert saved_bytes(backward.ordered_for(forward_spec)) == saved_bytes(forward)
        for scenario in forward_spec.scenarios:
            campaign_executor._build_application.cache_clear()
            fresh = run_scenario(scenario)
            assert saved_bytes(fresh) == saved_bytes(forward.outcomes[scenario.scenario_id])

    def test_failed_build_is_not_cached(self):
        calls = []
        register_application("test-cache-flaky", counting_factory(calls, fail_first=1))
        scenario = ScenarioSpec(
            label="flaky",
            application=FactorySpec.of("test-cache-flaky", num_frames=30),
            governor=FactorySpec.of("ondemand"),
            seed=3,
        )
        outcome = run_scenario_safely(scenario, retry=RetryPolicy(max_attempts=2))
        assert outcome.ok and outcome.attempts == 2
        assert calls == [3, 3]
        assert campaign_executor._build_application.cache_info().currsize == 1

    def test_cache_stays_bounded(self):
        limit = campaign_executor._build_application.cache_info().maxsize
        calls = []
        register_application("test-cache-bounded", counting_factory(calls))
        spec = self.grid(
            "test-cache-bounded", seeds=tuple(range(limit + 3)), governors=("performance",)
        )
        run_campaign(spec)
        assert campaign_executor._build_application.cache_info().currsize == limit
        assert len(calls) == limit + 3
        run_scenario(spec.scenarios[-1])  # newest seed: still cached
        assert len(calls) == limit + 3
        run_scenario(spec.scenarios[0])  # oldest seed: evicted, rebuilt
        assert len(calls) == limit + 4
        assert campaign_executor._build_application.cache_info().currsize == limit

    def test_reregistered_name_rebuilds(self):
        first, second = [], []
        scenario = ScenarioSpec(
            label="reregistered",
            application=FactorySpec.of("test-cache-reregistered", num_frames=30),
            governor=FactorySpec.of("ondemand"),
            seed=4,
        )
        register_application("test-cache-reregistered", counting_factory(first))
        run_scenario(scenario)
        register_application("test-cache-reregistered", counting_factory(second))
        run_scenario(scenario)
        assert (first, second) == ([4], [4])


class TestExperimentDriversOnCampaigns:
    def test_table1_campaign_shape(self):
        from repro.experiments import ExperimentSettings, build_table1_campaign

        campaign = build_table1_campaign(ExperimentSettings(num_frames=100))
        assert set(campaign.labels) == {"ondemand", "multicore_dvfs", "proposed", "oracle"}

    def test_table2_campaign_shape(self):
        from repro.experiments import ExperimentSettings, build_table2_campaign

        campaign = build_table2_campaign(ExperimentSettings(num_frames=300, num_seeds=2))
        assert len(campaign) == 3 * 2 * 2

    def test_figure3_campaign_has_probe(self):
        from repro.experiments import ExperimentSettings, build_figure3_campaign

        campaign = build_figure3_campaign(ExperimentSettings(num_frames=300))
        assert campaign.scenarios[0].probe.name == "rl-prediction"
