"""Two-level GPU memory-allocator simulation (paper §3.4).

* :class:`~.device.DeviceAllocator` — the simulated device (cudaMalloc
  level) with a finite capacity.
* :class:`~.caching.CachingAllocator` — the framework-level caching
  allocator (PyTorch's CUDACachingAllocator in Python).
* :class:`~.constants.AllocatorConfig` — tunable constants (512 B
  rounding, pool boundaries, segment sizes) for ablations.
* :func:`~.snapshot.memory_snapshot` — snapshot export for fidelity
  comparisons.
"""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "memory_snapshot": ".snapshot",
    "summarize_snapshot": ".snapshot",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
