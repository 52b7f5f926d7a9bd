"""Campaign result store: ordered scenario outcomes with persistence.

A :class:`CampaignResult` aggregates one :class:`ScenarioOutcome` per
executed scenario, keyed by the scenario's content hash.  Outcomes carry an
explicit status — ``"done"`` for a scenario that produced a simulation
result, ``"failed"`` for one whose execution raised (the error message and
traceback text are captured in the outcome instead of killing the
campaign) — plus the number of attempts the executor spent on it.

The store persists through :mod:`repro.campaign.store` so long campaigns
can checkpoint to disk and *resume*: the executor skips any scenario whose
stored outcome is ``done`` and re-runs the ``failed`` ones.
:meth:`CampaignResult.save` is atomic (write-temp + ``os.replace``), so a
crash mid-checkpoint can never truncate a previously good store.  The
monolithic JSON blob of earlier releases is read-only: the store reads
it (:func:`repro.campaign.store.blob_store`), so this module knows no
on-disk format.  Disjoint stores of the same campaign —
e.g. the per-shard result files of a :meth:`CampaignSpec.shard` split —
recombine on disk with :func:`repro.campaign.store.merge_store_files`.

The store feeds the existing analysis layer unchanged —
:meth:`CampaignResult.results` returns the plain ``label ->
SimulationResult`` mapping (``done`` outcomes only) that
:func:`repro.sim.comparison.compare_to_oracle` and the Table-I
normalisation consume.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.sim.metrics import MetricsSummary
from repro.sim.results import SimulationResult

#: Status of a scenario that ran to completion and has a simulation result.
STATUS_DONE = "done"
#: Status of a scenario whose execution raised on every allowed attempt.
STATUS_FAILED = "failed"

#: Everything a corrupt/truncated checkpoint file can raise while parsing:
#: JSON decode errors (``ValueError``), missing keys, wrong value shapes.
CORRUPT_CHECKPOINT_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def quarantine_corrupt_file(
    path: str, reason: Exception, salvaged: Optional[int] = None
) -> Optional[str]:
    """Move an unreadable checkpoint aside and warn, instead of raising.

    A crash mid-``os.replace`` on exotic filesystems (or a partial copy)
    can leave a truncated or garbled JSON file where a checkpoint should
    be.  This renames it to ``<path>.corrupt`` (``.corrupt-2``, ... when
    one already exists) so the bad bytes stay available for post-mortem
    while the caller resumes from scratch — or, when the caller recovered
    a valid prefix, from those ``salvaged`` outcomes (the warning names
    the count).  Returns the quarantine path, or ``None`` when even the
    rename failed (the warning still fires).
    """
    quarantine = f"{path}.corrupt"
    suffix = 1
    while os.path.exists(quarantine):
        suffix += 1
        quarantine = f"{path}.corrupt-{suffix}"
    try:
        os.replace(path, quarantine)
    except OSError:
        quarantine = None
    resuming = (
        "resuming from scratch"
        if salvaged is None
        else f"resuming from {salvaged} salvaged outcome(s)"
    )
    warnings.warn(
        f"checkpoint {path!r} is corrupt ({type(reason).__name__}: {reason}); "
        + (
            f"quarantined to {quarantine!r} and {resuming}"
            if quarantine
            else f"could not quarantine it; {resuming}"
        ),
        RuntimeWarning,
        stacklevel=3,
    )
    return quarantine


@dataclass(frozen=True)
class ScenarioOutcome:
    """One executed scenario: its spec, its result (or captured failure).

    Attributes
    ----------
    scenario:
        The spec that was executed.
    result:
        The simulation result; ``None`` when the scenario failed.
    probe:
        Optional probe payload (``done`` scenarios only).
    status:
        ``"done"`` or ``"failed"``.
    error:
        ``"ExceptionType: message"`` of the last attempt's exception, for
        failed scenarios.
    traceback:
        Full traceback text of the last attempt's exception, for failed
        scenarios.
    attempts:
        How many executions the scenario consumed (> 1 when a retry policy
        re-ran it).
    metrics:
        Optional cached :class:`~repro.sim.metrics.MetricsSummary` as a
        plain dict.  Stamped by the result store
        (:mod:`repro.campaign.store`) on every record it writes, so
        summary queries on a loaded store never touch the frames; it is a
        derived cache — excluded from equality and from the record's
        ``digest``.
    store_slot:
        Where the columnar store last wrote this outcome's record (file,
        offset, length and checksum; set by :mod:`repro.campaign.store`,
        never by callers).  Later writes copy those bytes back instead
        of re-encoding the outcome.  Like :attr:`metrics` it is a cache:
        not an ``__init__`` argument, invisible to equality and ``repr``,
        and never carried over by
        :func:`dataclasses.replace`.
    """

    scenario: ScenarioSpec
    result: Optional[SimulationResult]
    probe: Optional[Dict[str, Any]] = None
    status: str = STATUS_DONE
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False)
    store_slot: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.status not in (STATUS_DONE, STATUS_FAILED):
            raise SimulationError(
                f"scenario outcome status must be {STATUS_DONE!r} or {STATUS_FAILED!r}, "
                f"got {self.status!r}"
            )
        if self.status == STATUS_DONE and self.result is None:
            raise SimulationError(f"done outcome for {self.scenario.label!r} has no result")

    @classmethod
    def failure(
        cls,
        scenario: ScenarioSpec,
        error: str,
        traceback_text: str,
        attempts: int = 1,
    ) -> "ScenarioOutcome":
        """Build the record of a scenario that raised on its final attempt."""
        return cls(
            scenario=scenario,
            result=None,
            status=STATUS_FAILED,
            error=error,
            traceback=traceback_text,
            attempts=attempts,
        )

    @property
    def ok(self) -> bool:
        """Whether the scenario completed with a result."""
        return self.status == STATUS_DONE

    @property
    def scenario_id(self) -> str:
        """Content hash of the scenario that produced this outcome."""
        return self.scenario.scenario_id

    @property
    def label(self) -> str:
        """The scenario's campaign label."""
        return self.scenario.label

    def metrics_summary(self) -> Optional[MetricsSummary]:
        """The outcome's aggregate metrics, without materialising records.

        Prefers the cached :attr:`metrics` dict (stamped by the columnar
        store at write time — answering from it never touches the frames,
        which for a lazily loaded store means no disk read at all) and
        falls back to the result's own summary
        (:attr:`~repro.sim.results.SimulationResult.summary`, computed
        once), the summary the store writes.
        ``None`` for failed outcomes.
        """
        if self.result is None:
            return None
        if self.metrics is not None:
            try:
                return MetricsSummary(**self.metrics)
            except TypeError:
                pass  # unknown cache shape: recompute from the frames
        return self.result.summary


@dataclass
class CampaignResult:
    """Ordered store of scenario outcomes for one campaign."""

    campaign_name: str
    outcomes: Dict[str, ScenarioOutcome] = field(default_factory=dict)

    # -- building -----------------------------------------------------------------
    def add(self, outcome: ScenarioOutcome) -> None:
        """Record a completed scenario (replacing any previous run of it)."""
        self.outcomes[outcome.scenario_id] = outcome

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[ScenarioOutcome]:
        return iter(self.outcomes.values())

    def __contains__(self, scenario: ScenarioSpec) -> bool:
        return scenario.scenario_id in self.outcomes

    # -- lookup -------------------------------------------------------------------
    def outcome(self, label: str) -> ScenarioOutcome:
        """The outcome of the scenario labelled ``label``."""
        for candidate in self.outcomes.values():
            if candidate.label == label:
                return candidate
        raise KeyError(f"campaign {self.campaign_name!r} has no outcome labelled {label!r}")

    def result(self, label: str) -> SimulationResult:
        """The simulation result of the scenario labelled ``label``."""
        return self.outcome(label).result

    def results(self) -> Dict[str, SimulationResult]:
        """``label -> SimulationResult`` of the ``done`` outcomes, in campaign order.

        This is the mapping the pre-campaign analysis helpers
        (:func:`~repro.sim.comparison.compare_to_oracle`,
        :func:`~repro.sim.comparison.pairwise_energy_saving`) consume.
        Failed scenarios have no simulation result and are omitted; call
        :meth:`raise_on_failures` first to insist on a fully clean store.
        """
        return {
            outcome.label: outcome.result
            for outcome in self.outcomes.values()
            if outcome.ok and outcome.result is not None
        }

    def done(self) -> List[ScenarioOutcome]:
        """The outcomes that completed with a result, in campaign order."""
        return [outcome for outcome in self.outcomes.values() if outcome.ok]

    def failed(self) -> List[ScenarioOutcome]:
        """The outcomes recorded as failed, in campaign order."""
        return [outcome for outcome in self.outcomes.values() if not outcome.ok]

    def raise_on_failures(self) -> None:
        """Raise :class:`SimulationError` if any stored outcome failed."""
        failures = self.failed()
        if failures:
            detail = "; ".join(
                f"{outcome.label!r}: {outcome.error}" for outcome in failures[:5]
            )
            if len(failures) > 5:
                detail += f"; ... {len(failures) - 5} more"
            raise SimulationError(
                f"campaign {self.campaign_name!r} has {len(failures)} failed "
                f"scenario(s): {detail}"
            )

    def select(
        self,
        application_key: Optional[str] = None,
        governor_key: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[ScenarioOutcome]:
        """Outcomes matching the given grid coordinates (``None`` = any)."""
        matches = []
        for outcome in self.outcomes.values():
            spec = outcome.scenario
            if application_key is not None and spec.application_key != application_key:
                continue
            if governor_key is not None and spec.governor_key != governor_key:
                continue
            if seed is not None and spec.seed != seed:
                continue
            matches.append(outcome)
        return matches

    # -- resume support -----------------------------------------------------------
    def pending(self, campaign: CampaignSpec) -> List[ScenarioSpec]:
        """Scenarios of ``campaign`` that still need to run.

        A scenario is pending when it has no stored outcome, or when its
        stored outcome is ``failed`` — resuming retries failures but never
        re-runs ``done`` work.
        """
        pending: List[ScenarioSpec] = []
        for scenario in campaign.scenarios:
            outcome = self.outcomes.get(scenario.scenario_id)
            if outcome is None or not outcome.ok:
                pending.append(scenario)
        return pending

    def ordered_for(self, campaign: CampaignSpec) -> "CampaignResult":
        """A copy whose outcomes follow ``campaign``'s scenario order.

        Raises
        ------
        SimulationError
            If any scenario of the campaign has no stored outcome.
        """
        ordered = CampaignResult(campaign_name=campaign.name)
        for scenario in campaign.scenarios:
            outcome = self.outcomes.get(scenario.scenario_id)
            if outcome is None:
                raise SimulationError(
                    f"campaign {campaign.name!r} has no outcome for scenario "
                    f"{scenario.label!r} (id {scenario.scenario_id})"
                )
            ordered.add(outcome)
        return ordered

    # -- persistence --------------------------------------------------------------
    def save(self, path: str, store: str = "json") -> None:
        """Atomically write the store (write-temp + ``os.replace``).

        ``store`` picks the encoding through
        :func:`repro.campaign.store.negotiate_store`: the default
        ``"json"`` is the stdlib jsonl encoding; ``"arrow"`` (or
        ``"auto"``) is Arrow on an install with pyarrow.  The rename
        guarantees a reader (or a crash) never sees a half-written store.
        """
        result_store.save_store(self, path, result_store.negotiate_store(store))

    @classmethod
    def load(cls, path: str, lazy: bool = False) -> "CampaignResult":
        """Load a store file, or a legacy JSON blob (detected by content).

        ``lazy`` applies to store files: outcomes come back with
        disk-backed deferred frame columns and their cached metrics, so a
        million-scenario store can be summarised without holding any
        per-frame data in memory (first access to a result's columns
        re-reads just that record from disk).  Legacy JSON blobs are
        parsed whole regardless.
        """
        if result_store.is_store_file(path):
            return result_store.load_store(path, lazy=lazy)
        return result_store.load_blob(path)

    @classmethod
    def load_checkpoint(cls, path: str) -> Optional["CampaignResult"]:
        """Load a checkpoint file, degrading gracefully when it is unusable.

        Returns ``None`` when the file does not exist, and — unlike
        :meth:`load` — when it exists but cannot be parsed: the corrupt
        file is moved aside via :func:`quarantine_corrupt_file` (with a
        ``RuntimeWarning``) and the campaign resumes from scratch instead
        of dying on a ``JSONDecodeError``.  Completed work checkpointed
        *before* the corruption was introduced is only lost in that rare
        quarantine case; the atomic save path makes it rarer still.
        Store checkpoints do one better: records are independent, so
        the valid prefix of a torn file is salvaged before the file is
        quarantined (see
        :func:`repro.campaign.store.load_store_checkpoint`).
        """
        if result_store.is_store_file(path):
            return result_store.load_store_checkpoint(path)
        try:
            return cls.load(path)
        except FileNotFoundError:
            return None
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            quarantine_corrupt_file(path, exc)
            return None

    def __repr__(self) -> str:
        return f"CampaignResult({self.campaign_name!r}, {len(self)} outcomes)"


# The store reads and writes this module's types, so it is imported last,
# once every name above exists; loading a result then needs no import of
# its own (a timed reload pass imports nothing).
from repro.campaign import store as result_store  # noqa: E402
