"""The xMem pipeline: Analyzer -> Memory Orchestrator -> Memory Simulator."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Analyzer": ".analyzer",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
