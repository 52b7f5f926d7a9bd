"""Small cross-version and optional-dependency compatibility shims.

``SLOTS`` is splatted into ``@dataclass(...)`` decorators of hot-path record
types so they are allocated without a per-instance ``__dict__`` on modern
interpreters.  Slotted frozen dataclasses only pickle correctly from Python
3.11 onward (needed by the campaign process-pool backend), so the flag is
gated on 3.11 rather than 3.10 where the keyword first appeared.

``HAVE_NUMBA`` is a one-time import probe that downstream modules (and
tests, via monkeypatching) consult instead of importing numba themselves.  The
``REPRO_DISABLE_JIT`` environment variable is a kill-switch read *per call*
by :func:`jit_disabled`, so an operator can turn the compiled path off for
a single process without reinstalling anything.

``HAVE_PYARROW`` / :func:`arrow_disabled` repeat the same pattern for the
columnar campaign result store (:mod:`repro.campaign.store`): pyarrow is
an optional ``[arrow]`` extra, and ``REPRO_DISABLE_ARROW`` turns the
Arrow encoding off without reinstalling.

:func:`left_sum` is the one float summation the run path uses, because
the builtin ``sum()`` of floats changed its rounding in Python 3.12.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from functools import reduce
from operator import add
from typing import Any, Dict, Iterable

SLOTS: Dict[str, Any] = {"slots": True} if sys.version_info >= (3, 11) else {}


def left_sum(values: Iterable[Any]) -> Any:
    """Add ``values`` left to right from the int ``0``: ``sum()`` as of 3.10 and 3.11.

    From Python 3.12 the builtin ``sum()`` of floats is compensated
    (Neumaier), so its result can differ in the last digits from the
    plain left-to-right sum, and a workload, a cluster's energy or a
    learner's state built with it would differ between interpreters.
    Every float sum on the run path goes through this function instead,
    so one spec writes the same stored bytes on every supported Python.
    Integer counts need no such care and keep the builtin.
    """
    return reduce(add, values, 0)


#: True when numba is importable.  A cheap find_spec probe rather than a
#: real import: importing numba costs seconds, which every process would
#: pay even when the compiled path is never used.  The jitpath module
#: imports numba lazily, only once a kernel is actually requested.
try:
    HAVE_NUMBA: bool = importlib.util.find_spec("numba") is not None
except (ImportError, ValueError):  # pragma: no cover - broken interpreter paths
    HAVE_NUMBA = False


def jit_disabled() -> bool:
    """True when the ``REPRO_DISABLE_JIT`` kill-switch is set.

    Read from the environment on every call (not cached at import) so
    toggling the variable mid-process — e.g. from a test — takes effect
    immediately.  Any non-empty value other than ``0`` disables the
    compiled path.
    """
    value = os.environ.get("REPRO_DISABLE_JIT", "")
    return value not in ("", "0")


#: True when pyarrow is importable.  Same cheap find_spec probe as
#: ``HAVE_NUMBA``: importing pyarrow loads native extension modules, which
#: every campaign process would pay even when it only ever writes JSON.
#: The store module imports pyarrow lazily, only once an Arrow-encoded
#: file is actually written or read.
try:
    HAVE_PYARROW: bool = importlib.util.find_spec("pyarrow") is not None
except (ImportError, ValueError):  # pragma: no cover - broken interpreter paths
    HAVE_PYARROW = False


def arrow_disabled() -> bool:
    """True when the ``REPRO_DISABLE_ARROW`` kill-switch is set.

    Same contract as :func:`jit_disabled`: read per call so tests and
    operators can toggle it mid-process; any non-empty value other than
    ``0`` keeps the result store on the pure-JSON encodings.
    """
    value = os.environ.get("REPRO_DISABLE_ARROW", "")
    return value not in ("", "0")
