"""PEP 562 lazy re-exports for the package ``__init__`` modules.

Each re-exporting package lists, per defining module, the public names it
provides.  Importing the package runs only its own file: a name's module
is imported the first time the name is read from the package
(``package.Name``, ``from package import Name`` or ``import *``), and the
object is then cached in the package namespace, so later reads are plain
attribute lookups and every name stays the object its module defines.
A subcommand therefore loads only the modules it runs (see the README's
"Where the time goes").
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; ``__all__`` lists them in that order.  Unknown
    names raise :class:`AttributeError`, so submodule imports
    (``from package import submodule``) fall through to the import system.
    """
    homes: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | homes.keys())

    return list(homes), __getattr__, __dir__
