"""Memory-lifecycle reconstruction (paper §3.2).

Raw ``cpu_instant_event`` records are a flat stream of signed byte deltas
keyed by address.  This module pairs allocations with their deallocations
— handling address reuse — to produce :class:`MemoryBlock` lifecycles:
size, CPU allocation time, CPU deallocation time (or "persistent" when no
free appears in the trace).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from ..errors import LifecycleError
from ..trace.events import MemoryColumns, MemoryEvent

_block_ids = itertools.count(1)


class _BlockFields(NamedTuple):
    addr: int
    size: int
    alloc_ts: int
    free_ts: Optional[int]  # None -> persistent for the trace
    block_id: int


class MemoryBlock(_BlockFields):
    """One reconstructed allocation lifecycle ("memory block" in the paper).

    An immutable tuple record: the lifecycle sweep builds thousands per
    trace, and a tuple costs a fraction of a frozen dataclass to create.
    ``block_id`` defaults to the next process-wide id.
    """

    __slots__ = ()

    def __new__(
        cls,
        addr: int,
        size: int,
        alloc_ts: int,
        free_ts: Optional[int] = None,
        block_id: Optional[int] = None,
    ) -> "MemoryBlock":
        if block_id is None:
            block_id = next(_block_ids)
        return tuple.__new__(cls, (addr, size, alloc_ts, free_ts, block_id))

    @property
    def persistent(self) -> bool:
        return self.free_ts is None

    def lifespan_within(self, start: int, end: int) -> bool:
        if self.free_ts is None:
            return False
        return start <= self.alloc_ts and self.free_ts <= end

    def overlaps(self, start: int, end: int) -> bool:
        free_ts = self.free_ts if self.free_ts is not None else end
        return self.alloc_ts <= end and free_ts >= start

    def with_free_ts(self, free_ts: Optional[int]) -> "MemoryBlock":
        """Copy with an adjusted deallocation time (keeps the block id)."""
        return self._replace(free_ts=free_ts)


@dataclass(frozen=True)
class LifecycleReport:
    """Result of lifecycle reconstruction plus diagnostics."""

    blocks: list[MemoryBlock]
    #: frees that matched no live allocation (e.g. buffers allocated before
    #: profiling started) — counted, not fatal
    unmatched_frees: int
    #: reused addresses observed (sanity signal for tests)
    reused_addresses: int


def reconstruct_lifecycles(
    memory: MemoryColumns | Iterable[MemoryEvent],
    strict: bool = False,
) -> LifecycleReport:
    """Pair allocation/deallocation events into lifecycles.

    One sweep over the ``ts`` / ``addr`` / ``nbytes`` columns (event
    objects are converted first).  Events must be in timestamp order.
    With ``strict=True``, an allocation at a live address, frees that
    match no live allocation and size-mismatched frees raise
    :class:`LifecycleError`; otherwise they are tolerated and counted,
    the way the paper's Analyzer must tolerate truncated traces.
    """
    if not isinstance(memory, MemoryColumns):
        memory = MemoryColumns.from_events(memory)
    open_blocks: dict[int, tuple[int, int]] = {}  # addr -> (alloc_ts, size)
    seen_addrs: set[int] = set()
    blocks: list[MemoryBlock] = []
    append = blocks.append
    new_block = tuple.__new__
    next_id = _block_ids.__next__
    unmatched = 0
    reused = 0
    last_ts = memory.ts[0] if memory.ts else 0
    for ts, addr, nbytes in zip(memory.ts, memory.addr, memory.nbytes):
        if ts < last_ts:
            raise LifecycleError(f"memory events out of order at ts={ts}")
        last_ts = ts
        if nbytes > 0:
            if addr in open_blocks:
                if strict:
                    raise LifecycleError(
                        f"allocation at live address {addr:#x} (ts={ts})"
                    )
                # tolerate: close the phantom block as freed here
                alloc_ts, size = open_blocks.pop(addr)
                append(
                    new_block(MemoryBlock, (addr, size, alloc_ts, ts, next_id()))
                )
            if addr in seen_addrs:
                reused += 1
            else:
                seen_addrs.add(addr)
            open_blocks[addr] = (ts, nbytes)
        else:
            record = open_blocks.pop(addr, None)
            if record is None:
                unmatched += 1
                if strict:
                    raise LifecycleError(
                        f"free of unknown address {addr:#x} (ts={ts})"
                    )
                continue
            alloc_ts, size = record
            if strict and size != -nbytes:
                raise LifecycleError(
                    f"free size {-nbytes} != alloc size {size} at {addr:#x}"
                )
            append(new_block(MemoryBlock, (addr, size, alloc_ts, ts, next_id())))
    for addr, (alloc_ts, size) in open_blocks.items():
        append(new_block(MemoryBlock, (addr, size, alloc_ts, None, next_id())))
    blocks.sort(key=_ALLOC_ORDER)
    return LifecycleReport(
        blocks=blocks, unmatched_frees=unmatched, reused_addresses=reused
    )


#: ``(alloc_ts, block_id)`` of a block
_ALLOC_ORDER = itemgetter(2, 4)


def peak_live_bytes(blocks: Iterable[MemoryBlock]) -> int:
    """Peak of the sum of live block sizes (tensor-level peak, no allocator)."""
    deltas: list[tuple[int, int, int]] = []
    horizon = 0
    materialized = list(blocks)
    for block in materialized:
        horizon = max(
            horizon,
            block.alloc_ts,
            block.free_ts if block.free_ts is not None else 0,
        )
    horizon += 1
    for block in materialized:
        # frees sort before allocs at equal timestamps (order=0 vs 1), the
        # conservative reading of simultaneous events
        deltas.append((block.alloc_ts, 1, block.size))
        free_ts = block.free_ts if block.free_ts is not None else horizon
        deltas.append((free_ts, 0, -block.size))
    deltas.sort()
    live = peak = 0
    for _, _, delta in deltas:
        live += delta
        peak = max(peak, live)
    return peak
