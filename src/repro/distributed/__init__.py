"""Distributed-training preparation (paper §6.2): per-layer profiles and
pipeline-stage planning from a single-node CPU profile."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "minimum_stages": ".planner",
    "extract_layer_profiles": ".profiles",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
