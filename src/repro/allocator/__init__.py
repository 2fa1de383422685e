"""Two-level GPU memory-allocator simulation (paper §3.4).

Public surface:

* :class:`DeviceAllocator` — the simulated device (cudaMalloc level) with a
  finite capacity.
* :class:`CachingAllocator` — the framework-level caching allocator
  (PyTorch's CUDACachingAllocator in Python).
* :class:`AllocatorConfig` — tunable constants (512 B rounding, pool
  boundaries, segment sizes) for ablations.
* :func:`memory_snapshot` — snapshot export for fidelity comparisons.
"""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Block": ".block",
    "Segment": ".block",
    "CachingAllocator": ".caching",
    "DEFAULT_CONFIG": ".constants",
    "AllocatorConfig": ".constants",
    "DeviceAllocator": ".device",
    "DeviceStats": ".device",
    "BlockPool": ".pool",
    "is_small_request": ".rounding",
    "round_size": ".rounding",
    "segment_size": ".rounding",
    "memory_snapshot": ".snapshot",
    "summarize_snapshot": ".snapshot",
    "AllocatorStats": ".stats",
    "StatCounter": ".stats",
    "TimelinePoint": ".stats",
    "TimelineRecorder": ".stats",
    "merge_timelines": ".stats",
}

__all__ = [
    "AllocatorConfig",
    "AllocatorStats",
    "Block",
    "BlockPool",
    "CachingAllocator",
    "DEFAULT_CONFIG",
    "DeviceAllocator",
    "DeviceStats",
    "Segment",
    "StatCounter",
    "TimelinePoint",
    "TimelineRecorder",
    "is_small_request",
    "memory_snapshot",
    "merge_timelines",
    "round_size",
    "segment_size",
    "summarize_snapshot",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
