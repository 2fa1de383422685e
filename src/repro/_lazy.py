"""Package re-exports that load on first use (PEP 562).

A package facade names each export and the module that defines it; the
module is imported the first time the name is read, and the value is
then stored in the package's globals, so later reads are plain lookups.
``from repro import XMemEstimator`` therefore loads the estimator's
modules and nothing of the service plane, and ``import repro.service``
loads no driver until one is named.

A name whose module is the package's own submodule of that name (``"layers":
".layers"`` in ``repro.framework``) resolves to the submodule itself, so
``repro.framework.layers`` reads as an attribute after ``import
repro.framework`` alone.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.  ``table`` maps each exported name to the module,
    relative to the package, whose attribute of that name it is, or
    that is itself the submodule of that name."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(module, package)
        if value.__name__ != f"{package}.{name}":  # not the submodule itself
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
