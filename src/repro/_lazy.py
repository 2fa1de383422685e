"""Package re-exports that load on first use (PEP 562).

A package facade names each export once, in its ``_EXPORTS`` table,
under the module that defines it; its ``__all__`` is derived from the
table (``[*_EXPORTS]``).  The module is imported the first time the name
is read, and the value is then stored in the package's globals, so later
reads are plain lookups.  ``from repro import XMemEstimator`` therefore
loads the estimator's modules and nothing of the service plane, and
``import repro.service`` loads no driver until one is named.

A facade re-exports only the names some caller outside ``tests/``
imports from it (a module of the package, the CLI, a bench, an example
or a doc); everything else is imported from its defining module.  A
package no caller imports a name from keeps a docstring-only
``__init__``.  A submodule is not an export: ``from repro.models.transformer
import configs`` imports the submodule with or without a table.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.  ``table`` maps each exported name to the module,
    relative to the package, whose attribute of that name it is."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
