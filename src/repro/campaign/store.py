"""The campaign result store: the one on-disk encoding of an outcome.

Every save, checkpoint, service journal, merge output and worker submit
writes a :class:`ScenarioOutcome` as the store record this module
defines.  A store file is::

    #repro-campaign-store {"campaign_name": ..., "encoding": ..., "version": 2}\n
    <one outcome record per line or per Arrow IPC segment>

Two encodings share that framing:

``jsonl``
    One JSON object per line.  Frames are stored *columnar* inside the
    record (``result.frames`` maps each
    :data:`~repro.sim.epoch.FRAME_COLUMN_NAMES` name to its column), so a
    record never materialises per-frame dicts.  Each column whose values
    are all Python floats is *packed*: one base64 string of the values as
    little-endian IEEE-754 binary64, so every float round-trips bit-exact
    without being printed as decimal text and parsed back.
    ``cycles_per_core`` is packed as ``{"packed": <base64 of the rows,
    flattened>, "width": <values per row>}``.  A column that does not
    qualify stays a JSON list: the int and bool columns, a float column
    holding an int or a bool, ragged ``cycles_per_core`` rows, and empty
    columns.  Pure stdlib, and the default: ``--store json`` names it,
    and ``auto``/``arrow`` fall back to it on pyarrow-less installs, as
    the engines drop ``jitpath`` on numba-less ones (:mod:`repro._compat`).
    Each line is one ``json.dumps`` of the packed record without
    ``metrics``/``digest`` (sorted keys, compact separators), closed by
    the ``metrics`` summary and the ``digest`` of those same bytes
    (:func:`encode_line`).  Packed columns are decoded only where frames
    are read: an eager load, the merge's validation and the deferred
    loader of a lazy load.  The packing rule is
    :func:`~repro.sim.epoch.float_column`'s, so a result's ``array('d')``
    columns are exactly the packed ones: each is encoded from its buffer
    and decoded back into one, and no float is boxed on either side.

``arrow``
    Repeated ``[8-byte little-endian length][self-contained Arrow IPC
    stream]`` segments.  Each segment holds one record batch with a
    ``meta`` JSON string column (everything except frames) plus one
    list-typed Arrow column per frame field.  Requires the ``[arrow]``
    extra (``pip install repro-biswas-date17[arrow]``); the
    ``REPRO_DISABLE_ARROW`` kill-switch turns the encoding off per
    process without reinstalling (existing Arrow files stay *readable*
    whenever pyarrow is importable — the switch gates negotiation, not
    decoding).

Both encodings are **append-only**: the executor and the distributed
service's journal append each :class:`ScenarioOutcome` as it completes
(O(1) checkpoint cost), instead of rewriting the whole campaign.  Records
carry a content ``digest`` (frames + spec + status, *excluding* the
derived ``metrics`` summary) so :func:`merge_store_files` can detect
conflicting duplicates while holding only one record in memory, and a
cached ``metrics`` summary so reporting answers summary queries without
touching frames at all.  The digest is the SHA-256 of the canonical JSON
of the record with its frames packed (:func:`record_digest`), so one
outcome has one digest whether its frames were read packed or as lists;
the merge recomputes it for every record and never trusts a stored one.

Each outcome is encoded **once**: :func:`encode_line` (or, for Arrow,
:func:`encode_record`) runs the first time a writer stores the outcome,
and every write leaves a small :attr:`ScenarioOutcome.store_slot`
behind — file, offset, length and a SHA-256 of the bytes written.  A
later write in the same encoding copies those bytes back (the raw jsonl
line, or the Arrow row) after checking the checksum, so a checkpoint
append, the final checkpoint rewrite and an ``--output`` save cost one
encode between them while the outcome holds no encoded payload in
memory.  A slot whose file has since changed fails the check and the
outcome is simply encoded again.  The merge passes current-version jsonl
records through as the raw line bytes it read: it parses and decodes each
line (for the scenario id, the digest and validity), but never re-encodes
it on the way to a jsonl output.

Versions: this build writes version 2 (packed jsonl columns) and reads
versions 1 and 2 (:data:`READABLE_VERSIONS`).  A version-1 file holds
every frame column as a JSON list; its lines load, resume and merge, but
their stored digests were taken over the list form and are not
recomputable.  :meth:`StoreWriter.open_append` refuses a version-1 file,
so no version-2 line ever lands under a version-1 header; the executor
and the service rewrite a loaded checkpoint before appending.  A build
that reads only version 1 refuses a version-2 file with a
:class:`~repro.errors.ConfigurationError` instead of quarantining it.

The monolithic JSON blob of earlier releases (``{"campaign_name": ...,
"outcomes": [...]}`` with per-frame row dicts) is read-only, and this
module is its one reader: :func:`blob_store` turns each outcome into the
store record it stands for (frame rows become columns) and decodes that
with :func:`decode_record`, like every other stored form.  It still
loads, resumes and merges, but nothing writes it any more.  Version-1
jsonl lines, in both the insertion-order and the sorted-key layout,
load and merge too; a merge re-seals them as version-2 lines (frames
packed, ``digest`` recomputed), so its output's stored digests all equal
:func:`record_digest` of their lines.

Corruption handling: an unreadable store is quarantined to
``<path>.corrupt`` with a ``RuntimeWarning``
(:func:`repro.campaign.results.quarantine_corrupt_file`), and — because
records are independent — :func:`load_store_checkpoint` additionally
salvages the valid prefix of a torn file before quarantining it.

Format selection is capability-negotiated like the engine backends:
:func:`negotiate_store` maps the CLI's ``--store {auto,json,arrow}`` onto
``jsonl`` or ``arrow``, and :meth:`CampaignResult.load` auto-detects the
format from the magic header so readers never need to be told what they
are looking at.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import sys
from array import array
from dataclasses import asdict, dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro._compat import HAVE_PYARROW, arrow_disabled
from repro.errors import ConfigurationError, SimulationError
from repro.campaign.results import (
    CORRUPT_CHECKPOINT_ERRORS,
    STATUS_DONE,
    CampaignResult,
    ScenarioOutcome,
    quarantine_corrupt_file,
)
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.sim.epoch import FLOAT_COLUMN_NAMES, FRAME_COLUMN_NAMES, FrameColumns, float_column
from repro.sim.results import SimulationResult

#: First bytes of every columnar store file (followed by the JSON header).
MAGIC = b"#repro-campaign-store"
#: Store format version stamped into the header of every file written.
FORMAT_VERSION = 2
#: Header versions this build reads.  Version 1 wrote every frame column
#: as a JSON list; version 2 packs float columns (:func:`_packed_frames`).
#: List-form columns decode under either header.
READABLE_VERSIONS = (1, 2)

#: Requested-format names (the CLI's ``--store`` choices).
STORE_AUTO = "auto"
STORE_JSON = "json"
STORE_ARROW = "arrow"
STORE_CHOICES = (STORE_AUTO, STORE_JSON, STORE_ARROW)

#: Resolved on-disk encodings of the columnar store.
ENCODING_JSONL = "jsonl"
ENCODING_ARROW = "arrow"
ENCODINGS = (ENCODING_JSONL, ENCODING_ARROW)

#: Rows per Arrow segment (and per jsonl writelines batch) in bulk saves;
#: appends write one record per segment so each completion is one flush.
STORE_CHUNK_ROWS = 256


def arrow_available() -> bool:
    """Whether the Arrow encoding may be *written* in this process."""
    return HAVE_PYARROW and not arrow_disabled()


def negotiate_store(requested: str = STORE_AUTO) -> str:
    """Resolve a requested ``--store`` format to an encoding of the store.

    Returns ``"jsonl"`` or ``"arrow"``; nothing writes the legacy
    monolithic JSON blob any more (it stays readable):

    * ``json`` — always ``jsonl``, the stdlib encoding.
    * ``arrow`` / ``auto`` — Arrow when pyarrow is importable and not
      disabled, ``jsonl`` otherwise (the records are identical; only the
      byte encoding degrades).
    """
    if requested == STORE_JSON:
        return ENCODING_JSONL
    if requested in (STORE_ARROW, STORE_AUTO):
        return ENCODING_ARROW if arrow_available() else ENCODING_JSONL
    raise ConfigurationError(
        f"unknown result store format {requested!r}; expected one of {STORE_CHOICES}"
    )


def is_store_file(path: str) -> bool:
    """Whether ``path`` exists and starts with the columnar store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _pyarrow():
    """Import pyarrow or explain how to get it (never quarantines good data)."""
    if not HAVE_PYARROW:
        raise ConfigurationError(
            "this result store is Arrow-encoded but pyarrow is not installed; "
            "install the extra (pip install 'repro-biswas-date17[arrow]') to read it"
        )
    import pyarrow  # noqa: PLC0415 - deliberate lazy import (native modules)

    return pyarrow


# ---------------------------------------------------------------------------
# Record encoding: ScenarioOutcome <-> store record dict.
# ---------------------------------------------------------------------------


def _frame_columns_of(result: SimulationResult) -> Dict[str, Any]:
    """The result's live columns (callers must not mutate them)."""
    columns = result.columns
    return {name: getattr(columns, name) for name in FRAME_COLUMN_NAMES}


#: Packed columns are little-endian on disk, whatever the host's byte order.
_BYTESWAP = sys.byteorder != "little"


def _pack_floats(values: Sequence[float]) -> str:
    """base64 of ``values`` as little-endian IEEE-754 binary64.

    An ``array('d')`` (a :class:`FrameColumns` float column) is encoded
    from its own buffer; any other sequence of floats is copied into one
    first.
    """
    packed = values if type(values) is array and values.typecode == "d" else array("d", values)
    if _BYTESWAP:
        packed = array("d", packed)  # never swap the caller's column in place
        packed.byteswap()
    return base64.b64encode(packed).decode("ascii")


def _unpack_floats(text: str) -> array:
    """Inverse of :func:`_pack_floats`; ``ValueError`` on malformed input.

    Returns the ``array('d')`` the bytes were copied into, so no float is
    boxed.  The array is allocated at its exact size and filled through a
    byte view (``frombytes`` would over-allocate it by about 1/16).  Bad
    base64 raises ``binascii.Error`` (a ``ValueError``), and so does a
    byte length that is not a multiple of 8.
    """
    raw = base64.b64decode(text, validate=True)
    count, remainder = divmod(len(raw), 8)
    if remainder:
        raise ValueError("bytes length not a multiple of item size")
    values = array("d", [0.0]) * count
    memoryview(values).cast("B")[:] = raw
    if _BYTESWAP:
        values.byteswap()
    return values


def _packed_cycles(rows: Any) -> Any:
    """``cycles_per_core`` as one flat packed column plus its row width.

    Ragged rows, and rows holding anything but floats, stay a list of rows.
    """
    if type(rows) is not list or not rows:
        return rows
    widths = set(map(len, rows))
    if len(widths) != 1:
        return rows
    flat = float_column(chain.from_iterable(rows))
    if type(flat) is not array:
        return rows
    return {"packed": _pack_floats(flat), "width": widths.pop()}


def _packed_frames(frames: Dict[str, Any]) -> Dict[str, Any]:
    """The frames with every all-float column packed (:func:`_pack_floats`).

    A column is packed exactly when :func:`~repro.sim.epoch.float_column`
    makes it an ``array('d')``: an array column (a live
    :class:`FrameColumns` column) is packed from its buffer, and a list
    column (a version-1 record, :func:`encode_record`'s dict) when it is
    non-empty and all floats.  Idempotent: packed columns, and list
    columns that hold ints, bools or a mix of ints and floats, are kept
    as they are.  A record therefore has one packed form, whichever
    layout it was read from.
    """
    packed: Dict[str, Any] = {}
    for name, column in frames.items():
        if name == "cycles_per_core":
            packed[name] = _packed_cycles(column)
        elif type(column) in (list, array):
            column = float_column(column)
            packed[name] = _pack_floats(column) if type(column) is array else column
        else:
            packed[name] = column
    return packed


def _packed(record: Dict[str, Any]) -> Dict[str, Any]:
    """``record`` with its frames packed (a shallow copy; frames-less as is)."""
    result_data = record.get("result")
    if not isinstance(result_data, dict) or "frames" not in result_data:
        return record
    frames = _packed_frames(result_data["frames"])
    return {**record, "result": {**result_data, "frames": frames}}


def _listed(frames: Dict[str, Any]) -> Dict[str, Any]:
    """The frames with every ``array('d')`` column as a list (JSON, Arrow)."""
    return {
        name: column.tolist() if type(column) is array else column
        for name, column in frames.items()
    }


def _unpacked_column(name: str, column: Any) -> Any:
    if isinstance(column, str):
        column = _unpack_floats(column)
    if name in FLOAT_COLUMN_NAMES:
        return float_column(column)
    return column if type(column) is list else list(column)


def _unpacked_cycles(column: Any, rows: int) -> list:
    if not isinstance(column, dict):
        return [tuple(row) for row in column]
    width = column["width"]
    flat = _unpack_floats(column["packed"])
    if type(width) is not int or width < 1 or len(flat) != rows * width:
        raise ValueError(
            f"packed cycles_per_core holds {len(flat)} values, not {rows} rows "
            f"of width {width!r}"
        )
    return list(zip(*[iter(flat)] * width))


def _unpacked_frames(frames: Dict[str, Any]) -> Dict[str, Any]:
    """Every frame column in its :class:`FrameColumns` form.

    Packed columns are decoded to ``array('d')`` columns, list columns
    are passed through, and every float column is given the type
    :func:`~repro.sim.epoch.float_column` gives it (so an all-float list
    of a version-1 record becomes an array too); ``cycles_per_core`` is
    a list of tuple rows.  A column whose length differs from ``index``
    raises ``ValueError``, as does a malformed packed column.
    """
    columns = {
        name: _unpacked_column(name, frames[name])
        for name in FRAME_COLUMN_NAMES
        if name != "cycles_per_core"
    }
    rows = len(columns["index"])
    columns["cycles_per_core"] = _unpacked_cycles(frames["cycles_per_core"], rows)
    for name in FRAME_COLUMN_NAMES:
        if len(columns[name]) != rows:
            raise ValueError(
                f"frame column {name!r} has {len(columns[name])} entries, "
                f"expected {rows}"
            )
    return columns


def _columns_from_lists(frames: Dict[str, Any]) -> FrameColumns:
    """Validating inverse of :func:`_frame_columns_of` (decode path)."""
    try:
        return FrameColumns(**_unpacked_frames(frames))
    except SimulationError as exc:
        # Unify corrupt-shape detection on the checkpoint-quarantine errors.
        raise ValueError(str(exc)) from exc


def _frames_for_deferred(frames: Dict[str, Any]) -> Dict[str, Any]:
    """Shape raw decoded frames for :meth:`FrameColumns.from_deferred`.

    Only :func:`_unpacked_frames` under its own name: the deferred loaders
    call it so that ``e2ebench/tracing.py`` can count deferred frame loads
    by wrapping it.
    """
    return _unpacked_frames(frames)


def _canonical(payload: Any) -> bytes:
    """The sorted-key, compact JSON bytes the digest is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _unsealed(record: Dict[str, Any]) -> Dict[str, Any]:
    """``record`` without its ``metrics`` and ``digest``."""
    return {
        key: value
        for key, value in record.items()
        if key not in ("digest", "metrics")
    }


def record_digest(record: Dict[str, Any]) -> str:
    """Content hash of a store record, for streaming-merge conflict checks.

    Canonical JSON (sorted keys, compact separators) of the record with
    its frames packed (:func:`_packed_frames`), over everything except
    ``digest`` itself and the derived ``metrics`` summary.  Packing first
    gives one outcome the same digest whether its frames arrive as lists
    (a version-1 line, :func:`encode_record`'s dict) or packed.  Metrics
    are excluded because they are a derived cache of the frames
    (:func:`~repro.sim.metrics.summarize_result`): the digest already
    covers what they are computed from, and a cache written by another
    version must never make identical outcomes look conflicting.
    """
    return hashlib.sha256(_canonical(_packed(_unsealed(record)))).hexdigest()


def _outcome_record(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """The outcome's store record without ``metrics`` and ``digest``."""
    record: Dict[str, Any] = {
        "scenario": outcome.scenario.to_dict(),
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    result = outcome.result
    if result is not None:
        result_data: Dict[str, Any] = {
            "governor_name": result.governor_name,
            "application_name": result.application_name,
            "reference_time_s": result.reference_time_s,
            "exploration_count": result.exploration_count,
            "converged_epoch": result.converged_epoch,
        }
        if result.engine_used:
            result_data["engine_used"] = result.engine_used
        result_data["frames"] = _frame_columns_of(result)
        record["result"] = result_data
    if outcome.probe is not None:
        record["probe"] = outcome.probe
    if outcome.error is not None:
        record["error"] = outcome.error
    if outcome.traceback is not None:
        record["traceback"] = outcome.traceback
    return record


def _outcome_metrics(outcome: ScenarioOutcome) -> Optional[Dict[str, Any]]:
    """The record's ``metrics``: the outcome's cache, else the result's summary.

    Every record on disk can therefore answer summary queries without
    its frames.  The result keeps its summary
    (:attr:`~repro.sim.results.SimulationResult.summary`), so a later
    :meth:`~ScenarioOutcome.metrics_summary` does not compute it again.
    """
    if outcome.metrics is not None:
        return dict(outcome.metrics)
    if outcome.result is None:
        return None
    return asdict(outcome.result.summary)


def encode_record(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """Serialise one outcome to a store record dict (columnar frames + digest).

    The form the Arrow encoding carries: frames are plain column lists
    (``array('d')`` columns are converted with ``tolist()``), so the dict
    is JSON-serialisable.  jsonl writers use :func:`encode_line`, which
    yields the same record, frames packed, as bytes with the same
    ``digest``.
    """
    record = _outcome_record(outcome)
    if "result" in record:
        record["result"]["frames"] = _listed(record["result"]["frames"])
    metrics = _outcome_metrics(outcome)
    if metrics is not None:
        record["metrics"] = metrics
    record["digest"] = record_digest(record)
    return record


def _seal(record: Dict[str, Any], metrics: Optional[Dict[str, Any]]) -> bytes:
    """The jsonl line of an unsealed record: one dump, then metrics and digest.

    The record is dumped once, canonically; those bytes are hashed for the
    digest (exactly :func:`record_digest`'s value) and reused as the body
    of the line, with ``metrics`` and ``digest`` appended before the
    closing brace.
    """
    body = _canonical(record)
    tail = b""
    if metrics is not None:
        tail = b',"metrics":' + _canonical(metrics)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return body[:-1] + tail + b',"digest":"' + digest + b'"}\n'


def packed_record(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """The outcome's store record, frames packed, without ``metrics``/``digest``.

    The record :func:`encode_line` seals into a line, as a dict: the form
    the service's ``submit`` carries.  The coordinator derives the
    metrics from the frames itself, and nothing checks a digest in
    transit, so neither is computed for the wire.
    """
    return _packed(_outcome_record(outcome))


def encode_line(outcome: ScenarioOutcome) -> bytes:
    """One outcome as its newline-terminated jsonl store line (frames packed)."""
    return _seal(packed_record(outcome), _outcome_metrics(outcome))


def record_line(record: Dict[str, Any]) -> bytes:
    """A store record dict as its jsonl line (the layout of :func:`encode_line`)."""
    return _seal(_packed(_unsealed(record)), record.get("metrics"))


def decode_record(
    record: Dict[str, Any],
    frames_loader: Optional[Callable[[], Dict[str, list]]] = None,
) -> ScenarioOutcome:
    """Rebuild a :class:`ScenarioOutcome` from a store record.

    The one decoder of every stored form of an outcome: a jsonl line, an
    Arrow row, a service submit and a legacy blob outcome
    (:func:`blob_store`) all reach it as a record.  With ``frames_loader`` the result's columns are deferred
    (:meth:`FrameColumns.from_deferred`): the loader re-reads the frames
    from disk on first column access, so a lazily loaded store holds only
    outcome metadata and cached metrics in memory.
    """
    result_data = record.get("result")
    result = None
    if result_data is not None:
        if frames_loader is not None:
            columns = FrameColumns.from_deferred(frames_loader)
        else:
            columns = _columns_from_lists(result_data["frames"])
        result = SimulationResult(
            governor_name=result_data["governor_name"],
            application_name=result_data["application_name"],
            reference_time_s=result_data["reference_time_s"],
            columns=columns,
            exploration_count=result_data.get("exploration_count", 0),
            converged_epoch=result_data.get("converged_epoch"),
            engine_used=result_data.get("engine_used", ""),
        )
    return ScenarioOutcome(
        scenario=ScenarioSpec.from_dict(record["scenario"]),
        result=result,
        probe=record.get("probe"),
        status=record["status"],
        error=record.get("error"),
        traceback=record.get("traceback"),
        attempts=record.get("attempts", 1),
        metrics=record.get("metrics"),
    )


# ---------------------------------------------------------------------------
# The legacy monolithic JSON blob, read as the store records it stands for.
# ---------------------------------------------------------------------------

#: A blob frame dict's values as one row, in :data:`FRAME_COLUMN_NAMES` order.
_blob_row = itemgetter(*FRAME_COLUMN_NAMES)
#: The fields of a blob outcome that its store record keeps as they are.
_BLOB_OUTCOME_FIELDS = ("scenario", "status", "attempts", "probe", "error", "traceback")


def _blob_frames(rows: Sequence[Dict[str, Any]]) -> Dict[str, list]:
    """A blob result's per-frame row dicts as a store record's frame columns.

    Strict on every row, so a bad frame never yields a silently short or
    dropped column: an unknown field raises ``TypeError`` and a missing
    one ``KeyError`` (only ``explored`` has a default, ``False``).  A
    ``cycles_per_core`` that is not a sequence raises ``TypeError`` when
    :func:`decode_record` reads the columns.
    """
    gathered = []
    for row in rows:
        unknown = set(row).difference(FRAME_COLUMN_NAMES)
        if unknown:
            raise TypeError(f"unexpected frame field(s): {sorted(map(str, unknown))}")
        gathered.append(_blob_row({"explored": False, **row}))
    columns = zip(*gathered) if gathered else [()] * len(FRAME_COLUMN_NAMES)
    return {name: list(column) for name, column in zip(FRAME_COLUMN_NAMES, columns)}


def _blob_record(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """The store record (no ``metrics``/``digest``) a blob outcome stands for."""
    record = {key: outcome[key] for key in _BLOB_OUTCOME_FIELDS if key in outcome}
    record.setdefault("status", STATUS_DONE)
    result = outcome.get("result")
    if result is not None:
        result_data = {key: value for key, value in result.items() if key != "records"}
        result_data["frames"] = _blob_frames(result.get("records", []))
        record["result"] = result_data
    return record


def blob_store(data: Dict[str, Any]) -> CampaignResult:
    """Read a parsed legacy JSON blob (``{"campaign_name", "outcomes"}``).

    Each outcome becomes its store record and is decoded by
    :func:`decode_record`.  ``data`` is left as it was.
    """
    store = CampaignResult(campaign_name=data["campaign_name"])
    for outcome in data.get("outcomes", []):
        store.add(decode_record(_blob_record(outcome)))
    return store


def load_blob(path: str) -> CampaignResult:
    """Read a legacy JSON blob file (:func:`blob_store`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return blob_store(json.loads(handle.read()))


# ---------------------------------------------------------------------------
# File framing: header line + jsonl lines / length-prefixed Arrow segments.
# ---------------------------------------------------------------------------


def _header_line(campaign_name: str, encoding: str) -> bytes:
    meta = {
        "campaign_name": campaign_name,
        "encoding": encoding,
        "version": FORMAT_VERSION,
    }
    return MAGIC + b" " + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"


def _read_header(handle) -> Dict[str, Any]:
    """Parse the header line; the handle is left at the first record."""
    line = handle.readline()
    if not line.startswith(MAGIC + b" "):
        raise ValueError("not a repro campaign store file (missing magic header)")
    meta = json.loads(line[len(MAGIC) + 1 :].decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("store header is not a JSON object")
    version = meta.get("version")
    if version not in READABLE_VERSIONS:
        # A future format is a setup problem, not corruption: never
        # quarantine a file a newer build wrote deliberately.
        raise ConfigurationError(
            f"result store {getattr(handle, 'name', '?')!r} has format version "
            f"{version!r}; this build reads versions {READABLE_VERSIONS}"
        )
    if meta.get("encoding") not in ENCODINGS:
        raise ValueError(f"unknown store encoding {meta.get('encoding')!r}")
    if "campaign_name" not in meta:
        raise ValueError("store header has no campaign_name")
    return meta


def _jsonl_lines(handle) -> Iterator[Tuple[Dict[str, Any], int, bytes]]:
    """Yield ``(record, offset, line)`` for each record line after the header."""
    while True:
        offset = handle.tell()
        line = handle.readline()
        if not line:
            return
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("store record line is not a JSON object")
        yield record, offset, line


_ARROW_META_COLUMN = "meta"


def _arrow_schema(pa):
    fields = [pa.field(_ARROW_META_COLUMN, pa.string())]
    for name in FRAME_COLUMN_NAMES:
        if name in ("index", "operating_index"):
            value_type = pa.int64()
        elif name == "explored":
            value_type = pa.bool_()
        elif name == "cycles_per_core":
            value_type = pa.list_(pa.float64())
        else:
            value_type = pa.float64()
        fields.append(pa.field(name, pa.list_(value_type)))
    return pa.schema(fields)


def _arrow_columns(
    records: Sequence[Dict[str, Any]],
) -> Tuple[List[str], Dict[str, List[Optional[list]]]]:
    """Shape records for an Arrow segment: meta JSON rows and frame columns.

    Frames may arrive as lists (:func:`encode_record`) or packed (a jsonl
    line the merge re-encodes); either way each column becomes one list
    per record, ``None`` for a record without a result.
    """
    metas: List[str] = []
    frame_columns: Dict[str, List[Optional[list]]] = {
        name: [] for name in FRAME_COLUMN_NAMES
    }
    for record in records:
        result_data = record.get("result")
        meta = dict(record)
        if result_data is not None:
            meta["result"] = {
                key: value for key, value in result_data.items() if key != "frames"
            }
            frames = _listed(_unpacked_frames(result_data["frames"]))
            for name in FRAME_COLUMN_NAMES:
                frame_columns[name].append(frames[name])
        else:
            for name in FRAME_COLUMN_NAMES:
                frame_columns[name].append(None)
        metas.append(json.dumps(meta))
    return metas, frame_columns


def _arrow_segment(records: Sequence[Dict[str, Any]]) -> bytes:
    """Encode records as one length-prefixed, self-contained IPC segment."""
    pa = _pyarrow()
    schema = _arrow_schema(pa)
    metas, frame_columns = _arrow_columns(records)
    arrays = [pa.array(metas, type=pa.string())]
    for field in schema[1:]:
        arrays.append(pa.array(frame_columns[field.name], type=field.type))
    batch = pa.record_batch(arrays, schema=schema)
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, schema) as writer:
        writer.write_batch(batch)
    payload = sink.getvalue()
    return len(payload).to_bytes(8, "little") + payload


def _arrow_segment_table(payload: bytes):
    pa = _pyarrow()
    with pa.ipc.open_stream(io.BytesIO(payload)) as reader:
        return reader.read_all()


def _arrow_segment_records(
    payload: bytes, include_frames: bool
) -> List[Dict[str, Any]]:
    """Decode one segment back to store records (optionally with frames)."""
    table = _arrow_segment_table(payload)
    metas = table.column(_ARROW_META_COLUMN).to_pylist()
    records: List[Dict[str, Any]] = []
    frames_by_name = (
        {name: table.column(name).to_pylist() for name in FRAME_COLUMN_NAMES}
        if include_frames
        else None
    )
    for row, meta_json in enumerate(metas):
        record = json.loads(meta_json)
        if not isinstance(record, dict):
            raise ValueError("arrow segment meta row is not a JSON object")
        if include_frames and record.get("result") is not None:
            record["result"]["frames"] = {
                name: frames_by_name[name][row] for name in FRAME_COLUMN_NAMES
            }
        records.append(record)
    return records


def _arrow_segment_frames(payload: bytes, row: int) -> Dict[str, list]:
    """Extract one row's frame columns from a segment (lazy loaders)."""
    table = _arrow_segment_table(payload)
    return {name: table.column(name)[row].as_py() for name in FRAME_COLUMN_NAMES}


def _arrow_table_record(table, row: int) -> Dict[str, Any]:
    """Decode one row of a segment table back to its full store record."""
    record = json.loads(table.column(_ARROW_META_COLUMN)[row].as_py())
    if record.get("result") is not None:
        record["result"]["frames"] = {
            name: table.column(name)[row].as_py() for name in FRAME_COLUMN_NAMES
        }
    return record


# ---------------------------------------------------------------------------
# Slots: where an outcome's record was last written, so it is encoded once.
# ---------------------------------------------------------------------------


class _Slot(NamedTuple):
    """One written record: its jsonl line, or its row of an Arrow segment.

    ``offset``/``length`` span the line or the segment payload (after its
    length prefix), as in :meth:`StoreReader.iter_records` locations.
    """

    path: str
    encoding: str
    offset: int
    length: int
    row: int
    checksum: bytes


def _checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def _slot_bytes(outcome: ScenarioOutcome, encoding: str) -> Optional[bytes]:
    """The bytes the outcome's slot names, if still on disk in ``encoding``.

    ``None`` when the outcome was never written in this encoding, or when
    its file was since removed, rewritten or truncated (the checksum no
    longer matches): the caller then encodes the outcome afresh.
    """
    slot = outcome.store_slot
    if slot is None or slot.encoding != encoding:
        return None
    try:
        with open(slot.path, "rb") as handle:
            handle.seek(slot.offset)
            payload = handle.read(slot.length)
    except OSError:
        return None
    if len(payload) != slot.length or _checksum(payload) != slot.checksum:
        return None
    return payload


def _remember(outcome: ScenarioOutcome, slot: _Slot) -> None:
    object.__setattr__(outcome, "store_slot", slot)  # frozen dataclass cache field


def _arrow_records(outcomes: Sequence[ScenarioOutcome]) -> List[Dict[str, Any]]:
    """Store records for one Arrow segment, decoded from slots where possible.

    Consecutive outcomes usually share a source segment (a rewritten
    store is read back in the order it was written), so the last segment
    read stays open as a table and each row is decoded on its own.
    """
    records: List[Dict[str, Any]] = []
    segment, table = None, None
    for outcome in outcomes:
        slot = outcome.store_slot
        if slot is not None and slot._replace(row=0) != segment:
            segment = slot._replace(row=0)
            payload = _slot_bytes(outcome, ENCODING_ARROW)
            table = None if payload is None else _arrow_segment_table(payload)
        if slot is not None and table is not None:
            records.append(_arrow_table_record(table, slot.row))
        else:
            records.append(encode_record(outcome))
    return records


# ---------------------------------------------------------------------------
# Writer: create / append / flush.
# ---------------------------------------------------------------------------


class StoreWriter:
    """Append-only writer for one columnar store file.

    ``create`` starts a fresh file (header included); ``open_append``
    reopens an existing one and keeps appending in its encoding.  Each
    :meth:`append` call writes exactly one record — a single
    ``handle.write`` of a whole line/segment followed by
    :meth:`flush` on the executor's checkpoint cadence — so checkpoint
    cost is O(1) per completion instead of O(campaign).
    """

    def __init__(self, path: str, campaign_name: str, encoding: str, handle) -> None:
        self.path = path
        self.campaign_name = campaign_name
        self.encoding = encoding
        self._handle = handle
        #: The file the written outcomes' slots name (a bulk save points
        #: it at the final path its temp file is renamed to).
        self.slot_path = os.path.abspath(path)

    @classmethod
    def create(cls, path: str, campaign_name: str, encoding: str) -> "StoreWriter":
        if encoding not in ENCODINGS:
            raise ConfigurationError(
                f"unknown store encoding {encoding!r}; expected one of {ENCODINGS}"
            )
        if encoding == ENCODING_ARROW:
            _pyarrow()  # fail before creating the file, not on first append
        handle = open(path, "wb")
        handle.write(_header_line(campaign_name, encoding))
        handle.flush()
        return cls(path, campaign_name, encoding, handle)

    @classmethod
    def open_append(cls, path: str) -> "StoreWriter":
        """Reopen a store written by this build (``FORMAT_VERSION``) for appends.

        A file under an older header is refused: a build that reads only
        that version would take the appended lines for corruption.
        Rewrite it first (:func:`save_store`), as the executor and the
        service's journal do before their first append.
        """
        with open(path, "rb") as probe:
            meta = _read_header(probe)
        if meta["version"] != FORMAT_VERSION:
            raise ConfigurationError(
                f"result store {path!r} has format version {meta['version']!r}; "
                f"rewrite it before appending version-{FORMAT_VERSION} records"
            )
        if meta["encoding"] == ENCODING_ARROW:
            _pyarrow()
        return cls(path, meta["campaign_name"], meta["encoding"], open(path, "ab"))

    def append(self, outcome: ScenarioOutcome) -> None:
        """Append one outcome (O(1) in the number already stored)."""
        self.append_outcomes([outcome])

    def append_outcomes(self, outcomes: Sequence[ScenarioOutcome]) -> None:
        """Append outcomes, copying each one's bytes back from its slot.

        Only an outcome never written in this encoding (or whose slot's
        file has changed) is encoded (:func:`encode_line` or
        :func:`encode_record`).  Afterwards
        every outcome's slot names the bytes just written here.  Bulk
        saves chunk through this: a jsonl chunk is written line by line,
        an Arrow chunk as one segment.
        """
        if not outcomes:
            return
        if self.encoding == ENCODING_JSONL:
            for outcome in outcomes:
                line = _slot_bytes(outcome, ENCODING_JSONL)
                if line is None:
                    line = encode_line(outcome)
                    checksum = _checksum(line)
                else:
                    checksum = outcome.store_slot.checksum
                offset = self._handle.tell()
                self._handle.write(line)
                _remember(
                    outcome,
                    _Slot(self.slot_path, ENCODING_JSONL, offset, len(line), 0, checksum),
                )
            return
        segment = _arrow_segment(_arrow_records(outcomes))
        offset = self._handle.tell() + 8
        self._handle.write(segment)
        checksum = _checksum(segment[8:])
        for row, outcome in enumerate(outcomes):
            _remember(
                outcome,
                _Slot(self.slot_path, ENCODING_ARROW, offset, len(segment) - 8, row, checksum),
            )

    def append_records(self, records: Sequence[Dict[str, Any]]) -> None:
        """Append pre-encoded records (the merge's decoded records)."""
        if not records:
            return
        if self.encoding == ENCODING_JSONL:
            self._handle.writelines(record_line(record) for record in records)
        else:
            self._handle.write(_arrow_segment(records))

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader: streaming iteration with per-record disk offsets for lazy loads.
# ---------------------------------------------------------------------------


class StoreReader:
    """Streaming reader over one columnar store file."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            meta = _read_header(handle)
        self.campaign_name: str = meta["campaign_name"]
        self.encoding: str = meta["encoding"]
        if self.encoding == ENCODING_ARROW:
            _pyarrow()

    def iter_records(
        self, include_frames: bool = True
    ) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        """Yield ``(record, location)`` pairs in file order.

        ``location`` is ``("jsonl", offset, length)`` or
        ``("arrow", offset, length, row)`` — enough for a lazy loader to
        re-read exactly one record's frames later.  A truncated or
        garbled tail raises ``ValueError`` at the first bad record, after
        every preceding good record has been yielded (which is what lets
        :func:`load_store_checkpoint` salvage the prefix).
        """
        with open(self.path, "rb") as handle:
            _read_header(handle)
            if self.encoding == ENCODING_JSONL:
                yield from self._iter_jsonl(handle)
            else:
                yield from self._iter_arrow(handle, include_frames)

    def _iter_jsonl(self, handle) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        for record, offset, line in _jsonl_lines(handle):
            yield record, (ENCODING_JSONL, offset, len(line))

    def _iter_arrow(
        self, handle, include_frames: bool
    ) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        size = os.fstat(handle.fileno()).st_size
        while True:
            prefix = handle.read(8)
            if not prefix:
                return
            if len(prefix) < 8:
                raise ValueError("truncated arrow segment length prefix")
            length = int.from_bytes(prefix, "little")
            offset = handle.tell()
            if length <= 0 or offset + length > size:
                raise ValueError(
                    f"arrow segment at offset {offset} claims {length} bytes "
                    f"but the file holds {size}"
                )
            payload = handle.read(length)
            for row, record in enumerate(
                _arrow_segment_records(payload, include_frames)
            ):
                yield record, (ENCODING_ARROW, offset, length, row)

    def _frames_loader(self, location: Tuple) -> Callable[[], Dict[str, list]]:
        path = self.path
        if location[0] == ENCODING_JSONL:
            _, offset, length = location

            def load_jsonl() -> Dict[str, list]:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    record = json.loads(handle.read(length))
                return _frames_for_deferred(record["result"]["frames"])

            return load_jsonl
        _, offset, length, row = location

        def load_arrow() -> Dict[str, list]:
            with open(path, "rb") as handle:
                handle.seek(offset)
                payload = handle.read(length)
            return _frames_for_deferred(_arrow_segment_frames(payload, row))

        return load_arrow

    def iter_outcomes(self, lazy: bool = False) -> Iterator[ScenarioOutcome]:
        """Decode every stored outcome, optionally with disk-backed frames."""
        for record, location in self.iter_records(include_frames=not lazy):
            loader = None
            if lazy and record.get("result") is not None:
                record["result"].pop("frames", None)
                loader = self._frames_loader(location)
            yield decode_record(record, frames_loader=loader)


# ---------------------------------------------------------------------------
# Whole-store operations: atomic save, load, checkpoint salvage, merge.
# ---------------------------------------------------------------------------


def save_store(store: CampaignResult, path: str, encoding: str) -> None:
    """Atomically (re)write a whole store columnar (write-temp + ``os.replace``)."""
    temp_path = f"{path}.tmp"
    writer = StoreWriter.create(temp_path, store.campaign_name, encoding)
    writer.slot_path = os.path.abspath(path)
    try:
        batch: List[ScenarioOutcome] = []
        for outcome in store:
            batch.append(outcome)
            if len(batch) >= STORE_CHUNK_ROWS:
                writer.append_outcomes(batch)
                batch = []
        writer.append_outcomes(batch)
        writer.close()
    except BaseException:
        writer.close()
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    os.replace(temp_path, path)


def load_store(path: str, lazy: bool = False) -> CampaignResult:
    """Load a columnar store file (format already detected by the caller)."""
    reader = StoreReader(path)
    store = CampaignResult(campaign_name=reader.campaign_name)
    for outcome in reader.iter_outcomes(lazy=lazy):
        store.add(outcome)
    return store


def load_store_checkpoint(path: str) -> Optional[CampaignResult]:
    """Checkpoint-load a columnar store, salvaging the prefix of a torn file.

    Records are independent, so everything before the first corrupt byte
    is recovered; the damaged file is then quarantined (``<path>.corrupt``
    + ``RuntimeWarning``) exactly like a corrupt JSON checkpoint, and the
    campaign resumes from the salvaged outcomes.  ``None`` only when the
    header itself is unreadable (nothing to salvage).
    """
    try:
        reader = StoreReader(path)
    except FileNotFoundError:
        return None
    except CORRUPT_CHECKPOINT_ERRORS as exc:
        quarantine_corrupt_file(path, exc)
        return None
    store = CampaignResult(campaign_name=reader.campaign_name)
    try:
        for outcome in reader.iter_outcomes(lazy=False):
            store.add(outcome)
    except CORRUPT_CHECKPOINT_ERRORS as exc:
        quarantine_corrupt_file(path, exc, salvaged=len(store))
    return store


@dataclass(frozen=True)
class MergeStats:
    """What a streaming merge did: inputs, distinct scenarios, duplicates."""

    stores: int
    scenarios: int
    duplicates: int


def _iter_shard(path: str) -> Iterator[Tuple[str, Dict[str, Any], bytes]]:
    """Yield ``(campaign_name, record, line)`` from one shard file of any format.

    ``line`` is the record's jsonl store line.  For a jsonl shard of the
    current :data:`FORMAT_VERSION` it is the bytes as read — parsed (the
    merge needs the scenario id and digest, and a garbled line must fail
    before its bytes reach an output) but never re-encoded; only a last
    line whose trailing newline was cut off gets one back, so spilled
    lines stay separable.  A version-1 jsonl shard's lines are re-sealed
    (:func:`record_line`): their frames are packed and their stored
    ``digest`` becomes :func:`record_digest`, so every line of a merged
    output answers for itself.  Other shards encode it afresh.  Columnar
    shards stream record by record; legacy monolithic JSON shards are
    parsed whole (unavoidably) but one shard at a time, so merge memory
    is bounded by the largest single shard, not their sum.
    """
    if is_store_file(path):
        with open(path, "rb") as handle:
            meta = _read_header(handle)
            if meta["encoding"] == ENCODING_JSONL:
                current = meta["version"] == FORMAT_VERSION
                for record, _, line in _jsonl_lines(handle):
                    if not current:
                        line = record_line(record)
                    elif not line.endswith(b"}\n"):
                        line = line.rstrip() + b"\n"
                    yield meta["campaign_name"], record, line
                return
        reader = StoreReader(path)
        for record, _ in reader.iter_records(include_frames=True):
            yield reader.campaign_name, record, record_line(record)
        return
    legacy = load_blob(path)
    for outcome in legacy:
        line = encode_line(outcome)
        yield legacy.campaign_name, json.loads(line), line


def _shard_campaign_name(path: str) -> str:
    if is_store_file(path):
        return StoreReader(path).campaign_name
    return load_blob(path).campaign_name


def merge_store_files(
    paths: Sequence[str],
    output_path: str,
    spec: Optional[CampaignSpec] = None,
    store: str = STORE_AUTO,
) -> MergeStats:
    """Streaming union of shard result files into ``output_path``.

    Pass 1 streams every shard into a jsonl spill file next to the
    output, deduplicating by scenario id with the per-record content
    digests — identical duplicates are unioned silently, conflicting ones
    raise :class:`SimulationError`, and at no point is more than one
    record (plus one legacy shard, if any input is monolithic JSON) held
    in memory.  Every record is decoded once, so one that parses but is
    not a valid outcome (ragged frame columns, say) fails the merge
    before any output is written.  Current-version jsonl shard lines are
    spilled as the bytes read; version-1 lines are re-sealed first.
    Pass 2 re-reads the spill by offset in final order (``spec`` order
    when given, else first occurrence) and writes the negotiated encoding
    atomically: a jsonl output copies the spill lines one at a time and
    the Arrow output re-encodes them.
    """
    if not paths:
        raise ConfigurationError("merge needs at least one result store")
    resolved = negotiate_store(store)
    spill_path = f"{output_path}.merge-spill"
    campaign_name: Optional[str] = None
    #: scenario_id -> (digest, spill offset, spill length)
    entries: Dict[str, Tuple[str, int, int]] = {}
    duplicates = 0
    spill = open(spill_path, "w+b")
    try:
        for path in paths:
            for shard_name, record, line in _iter_shard(path):
                if campaign_name is None:
                    campaign_name = shard_name
                elif shard_name != campaign_name:
                    raise ConfigurationError(
                        "cannot merge result stores of different campaigns: "
                        f"{sorted({campaign_name, shard_name})}"
                    )
                outcome = decode_record(record)
                sid = outcome.scenario_id
                # Recomputed, never read: a version-1 line's stored digest
                # was taken over list-form frames.
                digest = record_digest(record)
                existing = entries.get(sid)
                if existing is not None:
                    if existing[0] != digest:
                        raise SimulationError(
                            f"conflicting outcomes for scenario "
                            f"{outcome.label!r} (id {sid}) while merging "
                            f"campaign {campaign_name!r}"
                        )
                    duplicates += 1
                    continue
                offset = spill.tell()
                spill.write(line)
                entries[sid] = (digest, offset, len(line))

        if campaign_name is None:
            # Every shard was empty; name the merge after the first one.
            campaign_name = _shard_campaign_name(paths[0])

        ordered_ids: List[str] = list(entries)
        if spec is not None:
            ordered_ids = [s.scenario_id for s in spec.scenarios]
            for scenario in spec.scenarios:
                if scenario.scenario_id not in entries:
                    raise SimulationError(
                        f"campaign {spec.name!r} has no outcome for scenario "
                        f"{scenario.label!r} (id {scenario.scenario_id})"
                    )
            campaign_name = spec.name

        def read_spill(sid: str) -> bytes:
            _, offset, length = entries[sid]
            spill.seek(offset)
            return spill.read(length)

        spill.flush()
        temp_path = f"{output_path}.tmp"
        try:
            if resolved == ENCODING_JSONL:
                with open(temp_path, "wb") as out:
                    out.write(_header_line(campaign_name, resolved))
                    for sid in ordered_ids:
                        out.write(read_spill(sid))
            else:
                writer = StoreWriter.create(temp_path, campaign_name, resolved)
                try:
                    batch: List[Dict[str, Any]] = []
                    for sid in ordered_ids:
                        batch.append(json.loads(read_spill(sid)))
                        if len(batch) >= STORE_CHUNK_ROWS:
                            writer.append_records(batch)
                            batch = []
                    writer.append_records(batch)
                finally:
                    writer.close()
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        os.replace(temp_path, output_path)
    finally:
        spill.close()
        try:
            os.unlink(spill_path)
        except OSError:
            pass
    return MergeStats(
        stores=len(paths), scenarios=len(entries), duplicates=duplicates
    )
