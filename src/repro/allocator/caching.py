"""The framework-level caching allocator: a Python CUDACachingAllocator.

This is the simulator the paper releases alongside xMem (§3.4, contribution
4).  It reproduces the techniques the paper enumerates:

* **Round up** — request sizes rounded to 512 B (``rounding.round_size``).
* **Segment** — cache misses allocate over-sized device segments (2 MiB /
  20 MiB / 2 MiB-aligned), so reserved memory exceeds tensor memory.
* **Algorithm** — Best Fit with Coalescing: best-fit free-block search per
  pool, block splitting when the remainder is worth keeping, and merging of
  adjacent free blocks on free.
* **Caching behaviour** — freed blocks stay cached in their segment; new
  segments are requested from the device only when the cache cannot serve.
* **OOM** — a device allocation failure first triggers reclamation of
  fully-free cached segments (same pool, then all pools); only when the
  device still cannot satisfy the request is a simulated OOM raised.  This
  two-level chain is what single-level simulations (DNNMem) miss (§5.1).
"""

from __future__ import annotations

from typing import Optional

from ..errors import (
    DeviceOutOfMemoryError,
    InvalidFreeError,
    SimOutOfMemoryError,
)
from .block import Block, Segment
from .constants import DEFAULT_CONFIG, AllocatorConfig
from .device import DeviceAllocator
from .pool import BlockPool
from .rounding import is_small_request, round_size, segment_size
from .stats import AllocatorStats, TimelineRecorder


class CachingAllocator:
    """Two-level caching allocator over a :class:`DeviceAllocator`."""

    def __init__(
        self,
        device: DeviceAllocator,
        config: AllocatorConfig = DEFAULT_CONFIG,
        record_timeline: bool = True,
    ):
        self.device = device
        self.config = config
        self.stats = AllocatorStats()
        self.timeline = TimelineRecorder() if record_timeline else None
        self._small_pool = BlockPool(is_small=True)
        self._large_pool = BlockPool(is_small=False)
        self._segments: dict[int, Segment] = {}
        self._owners: dict[int, Block] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def malloc(self, size: int, ts: int = 0, owner: Optional[int] = None) -> Block:
        """Allocate ``size`` bytes; returns the backing block.

        ``owner`` is an optional caller-side identifier (the replayed memory
        event's block id) enabling :meth:`free_owner`.

        Raises :class:`SimOutOfMemoryError` when the request fails at both
        allocator levels even after reclaiming cached segments.
        """
        if owner is not None and owner in self._owners:
            raise InvalidFreeError(
                f"owner {owner} already holds a live block — double alloc"
            )
        stats = self.stats
        rounded = round_size(size, self.config)
        pool = self._pool_for(rounded)
        block = self._find_cached_block(pool, rounded)
        if block is not None:
            stats.num_cache_hits += 1
            pool.remove(block)
        else:
            stats.num_cache_misses += 1
            block = self._alloc_segment_block(pool, rounded)
        if block.size > rounded and self._should_split(pool, block, rounded):
            self._split(pool, block, rounded)
        block.allocated = True
        block.requested_size = size
        block.owner = owner
        if owner is not None:
            self._owners[owner] = block
        # StatCounter.increase, inlined: three counters per call
        counter = stats.allocated_bytes
        counter.current += block.size
        counter.allocated += block.size
        if counter.current > counter.peak:
            counter.peak = counter.current
        counter = stats.requested_bytes
        counter.current += size
        counter.allocated += size
        if counter.current > counter.peak:
            counter.peak = counter.current
        counter = stats.active_blocks
        counter.current += 1
        counter.allocated += 1
        if counter.current > counter.peak:
            counter.peak = counter.current
        if self.timeline is not None:
            self._record(ts)
        return block

    def free(self, block: Block, ts: int = 0) -> None:
        """Return a block to the cache, coalescing with free neighbours."""
        if not block.allocated:
            raise InvalidFreeError(f"double free of {block!r}")
        pool = self._pool_for_segment(block.segment)
        # StatCounter.decrease, inlined, negative check kept
        stats = self.stats
        counter = stats.allocated_bytes
        counter.current -= block.size
        counter.freed += block.size
        if counter.current < 0:
            counter.raise_negative()
        counter = stats.requested_bytes
        counter.current -= block.requested_size
        counter.freed += block.requested_size
        if counter.current < 0:
            counter.raise_negative()
        counter = stats.active_blocks
        counter.current -= 1
        counter.freed += 1
        if counter.current < 0:
            counter.raise_negative()
        block.allocated = False
        block.requested_size = 0
        if block.owner is not None:
            self._owners.pop(block.owner, None)
            block.owner = None
        merged = self._coalesce(pool, block)
        pool.add(merged)
        if not self.config.cache_segments and merged.segment.is_fully_free():
            self._release_segment(pool, merged.segment)
        if self.timeline is not None:
            self._record(ts)

    def free_owner(self, owner: int, ts: int = 0) -> None:
        """Free the live block registered under ``owner``."""
        block = self._owners.get(owner)
        if block is None:
            raise InvalidFreeError(f"no live block for owner {owner}")
        self.free(block, ts=ts)

    @property
    def live_owners(self) -> dict[int, Block]:
        """Live blocks by ``owner`` id (read-only: use ``malloc``/``free``)."""
        return self._owners

    def empty_cache(self, ts: int = 0) -> int:
        """Release every fully-free cached segment; returns bytes released."""
        released = self._release_free_segments(self._small_pool)
        released += self._release_free_segments(self._large_pool)
        self._record(ts)
        return released

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        """Bytes currently backing live tensors (the "Tensor" curve)."""
        return self.stats.allocated_bytes.current

    @property
    def reserved_bytes(self) -> int:
        """Bytes of device segments held (the "Segment" curve; NVML view)."""
        return self.stats.reserved_bytes.current

    @property
    def peak_reserved_bytes(self) -> int:
        return self.stats.reserved_bytes.peak

    @property
    def peak_allocated_bytes(self) -> int:
        return self.stats.allocated_bytes.peak

    def segments(self) -> list[Segment]:
        return sorted(self._segments.values(), key=lambda s: s.addr)

    def live_blocks(self) -> list[Block]:
        return [
            block
            for segment in self._segments.values()
            for block in segment.blocks()
            if block.allocated
        ]

    def cached_bytes(self) -> int:
        """Reserved-but-unallocated bytes (the cache)."""
        return self.reserved_bytes - self.allocated_bytes

    def check_invariants(self) -> None:
        """Verify internal consistency; used by property-based tests."""
        reserved = sum(s.size for s in self._segments.values())
        if reserved != self.reserved_bytes:
            raise AssertionError(
                f"segment sizes {reserved} != reserved counter "
                f"{self.reserved_bytes}"
            )
        allocated = sum(
            b.size
            for s in self._segments.values()
            for b in s.blocks()
            if b.allocated
        )
        if allocated != self.allocated_bytes:
            raise AssertionError(
                f"block sizes {allocated} != allocated counter "
                f"{self.allocated_bytes}"
            )
        for segment in self._segments.values():
            total = sum(b.size for b in segment.blocks())
            if total != segment.size:
                raise AssertionError(
                    f"blocks of {segment!r} sum to {total}, not {segment.size}"
                )
            previous = None
            for block in segment.blocks():
                if previous is not None:
                    if previous.end != block.addr:
                        raise AssertionError("non-contiguous block chain")
                    if not previous.allocated and not block.allocated:
                        raise AssertionError("adjacent free blocks not merged")
                    if block.prev is not previous:
                        raise AssertionError("broken back link")
                previous = block

    # ------------------------------------------------------------------
    # allocation internals
    # ------------------------------------------------------------------
    def _pool_for(self, rounded: int) -> BlockPool:
        if is_small_request(rounded, self.config):
            return self._small_pool
        return self._large_pool

    def _pool_for_segment(self, segment: Segment) -> BlockPool:
        return self._small_pool if segment.is_small else self._large_pool

    def _find_cached_block(self, pool: BlockPool, rounded: int) -> Optional[Block]:
        block = pool.find_best_fit(rounded)
        if block is None:
            return None
        max_split = self.config.max_split_size
        if max_split is not None and not pool.is_small:
            # Oversized blocks may not be split: only serve requests that
            # consume (nearly) the whole block, mirroring max_split_size_mb.
            if block.size > max_split and rounded <= max_split:
                return None
            if block.size > max_split and block.size - rounded > self.config.large_buffer:
                return None
        return block

    def _alloc_segment_block(self, pool: BlockPool, rounded: int) -> Block:
        seg_size = segment_size(rounded, self.config)
        addr = self._device_alloc_with_reclaim(pool, seg_size, rounded)
        segment = Segment(addr=addr, size=seg_size, is_small=pool.is_small)
        block = Block(addr=addr, size=seg_size, segment=segment)
        segment.first_block = block
        self._segments[addr] = segment
        self.stats.reserved_bytes.increase(seg_size)
        self.stats.segments.increase(1)
        return block

    def _device_alloc_with_reclaim(
        self, pool: BlockPool, seg_size: int, rounded: int
    ) -> int:
        """cudaMalloc with the reclaim-then-retry chain of the real allocator."""
        try:
            return self.device.alloc(seg_size)
        except DeviceOutOfMemoryError:
            self.stats.num_alloc_retries += 1
            if not self.config.reclaim_on_oom:
                self.stats.num_ooms += 1
                raise SimOutOfMemoryError(
                    requested=rounded,
                    allocated=self.allocated_bytes,
                    reserved=self.reserved_bytes,
                    capacity=self.device.stats.capacity,
                ) from None
        # Stage 1: release fully-free cached segments of the same pool.
        self._release_free_segments(pool)
        try:
            return self.device.alloc(seg_size)
        except DeviceOutOfMemoryError:
            self.stats.num_alloc_retries += 1
        # Stage 2: release everything cached (both pools).
        self._release_free_segments(self._small_pool)
        self._release_free_segments(self._large_pool)
        try:
            return self.device.alloc(seg_size)
        except DeviceOutOfMemoryError:
            self.stats.num_ooms += 1
            raise SimOutOfMemoryError(
                requested=rounded,
                allocated=self.allocated_bytes,
                reserved=self.reserved_bytes,
                capacity=self.device.stats.capacity,
            ) from None

    def _split(self, pool: BlockPool, block: Block, rounded: int) -> None:
        """Cut ``block`` down to ``rounded``; the rest becomes a free block."""
        remainder = Block(
            addr=block.addr + rounded,
            size=block.size - rounded,
            segment=block.segment,
            prev=block,
            next=block.next,
        )
        if block.next is not None:
            block.next.prev = remainder
        block.next = remainder
        block.size = rounded
        pool.add(remainder)
        self.stats.num_splits += 1

    def _should_split(self, pool: BlockPool, block: Block, rounded: int) -> bool:
        if not self.config.allow_split:
            return False
        remaining = block.size - rounded
        if remaining <= 0:
            return False
        if self.config.max_split_size is not None and not pool.is_small:
            if block.size > self.config.max_split_size:
                return False
        if pool.is_small:
            return remaining >= self.config.min_block_size
        return remaining > self.config.small_size

    def _coalesce(self, pool: BlockPool, block: Block) -> Block:
        """Merge ``block`` with free neighbours; returns the merged block."""
        if block.prev is not None and not block.prev.allocated:
            previous = block.prev
            pool.remove(previous)
            previous.size += block.size
            previous.next = block.next
            if block.next is not None:
                block.next.prev = previous
            block = previous
            self.stats.num_coalesces += 1
        if block.next is not None and not block.next.allocated:
            following = block.next
            pool.remove(following)
            block.size += following.size
            block.next = following.next
            if following.next is not None:
                following.next.prev = block
            self.stats.num_coalesces += 1
        return block

    def _release_free_segments(self, pool: BlockPool) -> int:
        """Return all fully-free segments of ``pool`` to the device."""
        released = 0
        for block in list(pool):
            if block.segment.is_fully_free():
                pool.remove(block)
                released += block.segment.size
                self._release_segment_record(block.segment)
        return released

    def _release_segment(self, pool: BlockPool, segment: Segment) -> None:
        """Release one fully-free segment (non-caching ablation path)."""
        block = segment.first_block
        assert block is not None and not block.allocated
        pool.remove(block)
        self._release_segment_record(segment)

    def _release_segment_record(self, segment: Segment) -> None:
        self.device.free(segment.addr)
        del self._segments[segment.addr]
        self.stats.reserved_bytes.decrease(segment.size)
        self.stats.segments.decrease(1)

    def _record(self, ts: int) -> None:
        if self.timeline is not None:
            self.timeline.record(ts, self.allocated_bytes, self.reserved_bytes)
