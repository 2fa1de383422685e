"""Cluster scheduling demo: estimates drive GPU-sharing decisions."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Job": ".job",
    "MemoryAwareScheduler": ".scheduler",
    "ServiceAdmissionController": ".scheduler",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
