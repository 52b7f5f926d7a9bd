"""Declarative scenario and campaign specifications.

A *scenario* is one complete simulation run described by data instead of
code: the application to generate, the governor to run it under, the
cluster to run it on, the engine configuration and the workload seed.
Every component is named — the names resolve against the factory
registries in :mod:`repro.campaign.registry` — so a scenario is hashable,
JSON-serialisable, and can be shipped to a worker process or a results
file unchanged.

A *campaign* is an ordered collection of scenarios with unique labels,
typically produced by :meth:`CampaignSpec.from_grid` as the cross product
application × governor × seed that the paper's tables sweep over.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.config import AUTO, ENGINES, SimulationConfig

#: Engine backends earlier releases shipped, with why they are gone: a spec
#: naming one is rejected when it loads instead of failing every scenario.
REMOVED_ENGINES = {
    "batchpath": "the batched multi-scenario engine was removed; scenarios run one at a time",
    "thermalpath": "the thermally-coupled table engine was folded into 'tablepath', "
    "which now runs thermally-enabled clusters",
}

#: JSON-representable parameter values accepted by factory specs.
ParamValue = Union[None, bool, int, float, str, Tuple["ParamValue", ...]]


def _freeze(value: Any) -> ParamValue:
    """Canonicalise a parameter value into a hashable, JSON-stable form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"factory parameters must be JSON scalars or sequences, got {type(value).__name__}"
    )


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON emission (tuples back to lists)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class FactorySpec:
    """A named factory call: registry name plus keyword arguments.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    spec is hashable and two specs with the same arguments in different
    order compare equal.
    """

    name: str
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "FactorySpec":
        """Build a spec from keyword arguments (the usual constructor)."""
        frozen = tuple(sorted((key, _freeze(value)) for key, value in params.items()))
        return cls(name=name, params=frozen)

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The parameters as a plain keyword dict (tuples thawed to lists)."""
        return {key: _thaw(value) for key, value in self.params}

    def with_params(self, **overrides: Any) -> "FactorySpec":
        """A copy with ``overrides`` merged over the existing parameters."""
        merged = dict(self.kwargs)
        merged.update(overrides)
        return FactorySpec.of(self.name, **merged)

    # -- JSON -----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": {k: _thaw(v) for k, v in self.params}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FactorySpec":
        return cls.of(data["name"], **dict(data.get("params", {})))

    def __str__(self) -> str:
        if not self.params:
            return self.name
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({rendered})"


#: Cluster used when a scenario does not name one: the paper's A15 cluster.
DEFAULT_CLUSTER = FactorySpec.of("a15")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described simulation run.

    Attributes
    ----------
    label:
        Unique key of the scenario inside its campaign; also the key under
        which its result is reported (e.g. ``"ondemand"`` in a Table-I
        style campaign).
    application / governor / cluster:
        Named factories resolved against the campaign registry.
    config:
        Engine configuration of the run.
    seed:
        Workload seed.  When not ``None`` it is passed to the application
        factory as its ``seed`` keyword (overriding any ``seed`` in the
        application params); leave ``None`` for factories without a seed.
    probe:
        Optional named probe executed after the run with access to the
        live governor, returning a JSON payload of governor internals
        (predictor records, learnt policy, ...) that an out-of-process
        worker could otherwise not report back.
    application_key / governor_key:
        Grid coordinates filled in by :meth:`CampaignSpec.from_grid`, used
        to select/aggregate results along grid axes.
    engine:
        Engine request for the run: ``"auto"`` (default) negotiates the
        fastest eligible engine; an engine name (``"fastpath"``,
        ``"jitpath"``, ``"tablepath"`` or ``"scalar"``) pins the run to that
        engine.  Any other name is rejected when the spec is built.  The
        pinned engine is checked against the request when the scenario runs
        — a scenario the named engine cannot execute fails with a clear
        capability-mismatch error instead of silently falling back.
    """

    label: str
    application: FactorySpec
    governor: FactorySpec
    cluster: FactorySpec = DEFAULT_CLUSTER
    config: SimulationConfig = field(default_factory=SimulationConfig)
    seed: Optional[int] = None
    probe: Optional[FactorySpec] = None
    application_key: str = ""
    governor_key: str = ""
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine == AUTO or self.engine in ENGINES:
            return
        choices = f"use 'auto' or one of: {', '.join(ENGINES)}"
        if self.engine in REMOVED_ENGINES:
            raise ConfigurationError(
                f"scenario {self.label!r}: engine {self.engine!r} is not "
                f"available ({REMOVED_ENGINES[self.engine]}); {choices}"
            )
        raise ConfigurationError(
            f"scenario {self.label!r}: unknown engine {self.engine!r}; {choices}"
        )

    @cached_property
    def scenario_id(self) -> str:
        """Stable content hash identifying the scenario (used for resume/merge).

        A pure function of the frozen spec, so it is computed once per spec
        object (runs, checkpoints, saves and merges each read it).

        The ``engine`` request is deliberately excluded from the hash:
        every backend reproduces the same numbers (the registry's
        equivalence contract), so pinning an engine does not change *what*
        is simulated — shard outputs produced under ``--engine`` still
        merge against the original spec, and a resume matches outcomes
        recorded under a different engine pin.
        """
        canonical_dict = self.to_dict()
        canonical_dict.pop("engine", None)
        canonical = json.dumps(canonical_dict, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]

    # -- JSON -----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "label": self.label,
            "application": self.application.to_dict(),
            "governor": self.governor.to_dict(),
            "cluster": self.cluster.to_dict(),
            "config": asdict(self.config),
            "seed": self.seed,
            "application_key": self.application_key,
            "governor_key": self.governor_key,
        }
        if self.probe is not None:
            data["probe"] = self.probe.to_dict()
        # Serialised only when non-default so pre-existing scenario ids (the
        # content hashes resume/merge key on) are unchanged for auto runs.
        if self.engine != AUTO:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        probe = data.get("probe")
        return cls(
            label=data["label"],
            application=FactorySpec.from_dict(data["application"]),
            governor=FactorySpec.from_dict(data["governor"]),
            cluster=FactorySpec.from_dict(data.get("cluster", DEFAULT_CLUSTER.to_dict())),
            config=SimulationConfig(**data.get("config", {})),
            seed=data.get("seed"),
            probe=FactorySpec.from_dict(probe) if probe else None,
            application_key=data.get("application_key", ""),
            governor_key=data.get("governor_key", ""),
            engine=data.get("engine", "auto"),
        )


def _as_spec_mapping(
    components: Union[Mapping[str, FactorySpec], Iterable[FactorySpec]],
) -> "Dict[str, FactorySpec]":
    """Normalise a grid axis into an ordered ``label -> FactorySpec`` mapping."""
    if isinstance(components, Mapping):
        return dict(components)
    mapping: Dict[str, FactorySpec] = {}
    for spec in components:
        if spec.name in mapping:
            raise ConfigurationError(
                f"duplicate grid label {spec.name!r}; pass a mapping to disambiguate"
            )
        mapping[spec.name] = spec
    return mapping


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered, uniquely labelled collection of scenarios."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("a campaign needs at least one scenario")
        labels = [scenario.label for scenario in self.scenarios]
        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            raise ConfigurationError(
                f"campaign {self.name!r} has duplicate scenario labels: {sorted(duplicates)}"
            )

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def labels(self) -> List[str]:
        """Scenario labels in campaign order."""
        return [scenario.label for scenario in self.scenarios]

    def scenario(self, label: str) -> ScenarioSpec:
        """The scenario with the given label."""
        for candidate in self.scenarios:
            if candidate.label == label:
                return candidate
        raise KeyError(f"campaign {self.name!r} has no scenario labelled {label!r}")

    # -- sharding -------------------------------------------------------------
    def shard(self, index: int, count: int) -> "CampaignSpec":
        """Deterministic ``1/count`` slice of the campaign by scenario index.

        Shard ``index`` keeps the scenarios whose position in the campaign
        is congruent to ``index`` modulo ``count`` — an interleaved split,
        so grid axes (which vary fastest by seed) spread evenly across
        shards.  The shards of one campaign are disjoint, cover every
        scenario, and keep the campaign's name, so their saved result
        stores recombine with
        :func:`~repro.campaign.store.merge_store_files` into exactly the
        store an unsharded run would save.

        Raises
        ------
        ConfigurationError
            If ``index``/``count`` are out of range, or the slice is empty
            (more shards than scenarios).
        """
        if count < 1:
            raise ConfigurationError(f"shard count must be >= 1, got {count}")
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        selected = tuple(
            scenario
            for position, scenario in enumerate(self.scenarios)
            if position % count == index
        )
        if not selected:
            raise ConfigurationError(
                f"shard {index}/{count} of campaign {self.name!r} is empty "
                f"({len(self.scenarios)} scenarios)"
            )
        return CampaignSpec(name=self.name, scenarios=selected)

    # -- grid expansion -------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        name: str,
        applications: Union[Mapping[str, FactorySpec], Iterable[FactorySpec]],
        governors: Union[Mapping[str, FactorySpec], Iterable[FactorySpec]],
        cluster: FactorySpec = DEFAULT_CLUSTER,
        config: Optional[SimulationConfig] = None,
        seeds: Sequence[Optional[int]] = (None,),
        probe: Optional[FactorySpec] = None,
        engine: str = "auto",
    ) -> "CampaignSpec":
        """Expand the cross product application × governor × seed.

        ``applications`` and ``governors`` may be mappings (label -> spec)
        or plain iterables of specs (labelled by their registry name).
        Labels are ``app/gov`` joined with ``/seed=N`` when more than one
        seed is given; with a single application the ``app/`` prefix is
        dropped so a Table-I style campaign is keyed purely by governor.
        """
        app_map = _as_spec_mapping(applications)
        gov_map = _as_spec_mapping(governors)
        if not app_map or not gov_map:
            raise ConfigurationError("from_grid needs at least one application and one governor")
        scenarios: List[ScenarioSpec] = []
        multi_app = len(app_map) > 1
        multi_seed = len(seeds) > 1
        for app_key, app_spec in app_map.items():
            for gov_key, gov_spec in gov_map.items():
                for seed in seeds:
                    parts = []
                    if multi_app:
                        parts.append(app_key)
                    parts.append(gov_key)
                    label = "/".join(parts)
                    if multi_seed:
                        label = f"{label}/seed={seed}"
                    scenarios.append(
                        ScenarioSpec(
                            label=label,
                            application=app_spec,
                            governor=gov_spec,
                            cluster=cluster,
                            config=config or SimulationConfig(),
                            seed=seed,
                            probe=probe,
                            application_key=app_key,
                            governor_key=gov_key,
                            engine=engine,
                        )
                    )
        return cls(name=name, scenarios=tuple(scenarios))

    # -- JSON -----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            scenarios=tuple(ScenarioSpec.from_dict(item) for item in data["scenarios"]),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# Keep `fields` imported for introspection helpers used by the CLI.
_SCENARIO_FIELDS = tuple(f.name for f in fields(ScenarioSpec))
