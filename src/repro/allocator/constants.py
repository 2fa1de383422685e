"""Constants of PyTorch's CUDACachingAllocator.

Values follow ``c10/cuda/CUDACachingAllocator.cpp`` (release/2.6), the
implementation the paper simulates (§3.4).  They are collected into an
:class:`AllocatorConfig` so that tests and ablation benchmarks can vary them
(e.g. a TensorFlow-BFC-flavoured configuration) without touching the code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MiB, require_types

#: All requested sizes are rounded up to a multiple of this (512 bytes).
MIN_BLOCK_SIZE = 512

#: Requests at or below this size are served from the "small" pool (1 MiB).
SMALL_SIZE = 1 * MiB

#: Segment size used to back small-pool allocations (2 MiB).
SMALL_BUFFER = 2 * MiB

#: Segment size used for "medium" large-pool allocations (20 MiB).
LARGE_BUFFER = 20 * MiB

#: Large-pool requests below this get a LARGE_BUFFER segment (10 MiB).
MIN_LARGE_ALLOC = 10 * MiB

#: Requests above MIN_LARGE_ALLOC round their segment to a multiple of this.
ROUND_LARGE = 2 * MiB


@dataclass(frozen=True)
class AllocatorConfig:
    """Tunable parameters of the caching-allocator simulation.

    The defaults reproduce PyTorch's CUDACachingAllocator.  The
    ``max_split_size`` knob mirrors
    ``PYTORCH_CUDA_ALLOC_CONF=max_split_size_mb`` (blocks larger than this
    are never split and are preferentially released under pressure); ``None``
    disables it, which is PyTorch's default.
    """

    min_block_size: int = MIN_BLOCK_SIZE
    small_size: int = SMALL_SIZE
    small_buffer: int = SMALL_BUFFER
    large_buffer: int = LARGE_BUFFER
    min_large_alloc: int = MIN_LARGE_ALLOC
    round_large: int = ROUND_LARGE
    max_split_size: int | None = None
    #: When False, blocks are never split (ablation: naive buddy-less pooling).
    allow_split: bool = True
    #: When False, freed segments are returned to the device immediately
    #: (ablation: no caching; every miss pays a device allocation).
    cache_segments: bool = True
    #: When False, a device allocation failure is a hard OOM with no
    #: cached-segment reclamation — the single-level behaviour DNNMem
    #: simulates (paper §5.1); the real allocator reclaims first.
    reclaim_on_oom: bool = True

    def __post_init__(self) -> None:
        require_types(
            self,
            min_block_size=int,
            small_size=int,
            small_buffer=int,
            large_buffer=int,
            min_large_alloc=int,
            round_large=int,
            allow_split=bool,
            cache_segments=bool,
            reclaim_on_oom=bool,
        )
        if self.max_split_size is not None:
            require_types(self, max_split_size=int)
        if self.min_block_size <= 0:
            raise ValueError("min_block_size must be positive")
        if self.small_size > self.small_buffer:
            raise ValueError("small_size cannot exceed small_buffer")
        if self.min_large_alloc > self.large_buffer:
            raise ValueError("min_large_alloc cannot exceed large_buffer")


DEFAULT_CONFIG = AllocatorConfig()
