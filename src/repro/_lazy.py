"""Deferred imports: lazy package re-exports and the optional numpy.

Every package ``__init__`` re-exports its public names from submodules.
Imported eagerly, that would load every submodule — and everything those
import — as soon as any one name is used: importing the wire service
would start the whole simulated facility.  :func:`lazy_exports` (PEP 562)
defers each submodule to the first access of a name it provides, so a
process loads only the layers it touches.  :func:`optional_numpy` does
the same for the ``[fast]`` extra.
"""

from __future__ import annotations

import functools
import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Mapping, Optional


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule (absolute dotted name) to the names
    ``package`` re-exports from it.  A name's submodule is imported on the
    first access, and the name is then bound in the package namespace so
    later accesses never reach the hook.  Usage, in ``__init__.py``::

        __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.pkg.sub": ("Thing", "helper"),
        })
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


@functools.cache
def optional_numpy() -> Optional[ModuleType]:
    """numpy, imported on first use; ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        return None
    return numpy
