"""Memory-lifecycle reconstruction (paper §3.2).

Raw ``cpu_instant_event`` records are a flat stream of signed byte deltas
keyed by address.  This module pairs allocations with their deallocations
— handling address reuse — to produce block lifecycles: size, CPU
allocation time, CPU deallocation time (or "persistent" when no free
appears in the trace), held as :class:`BlockColumns` with
:class:`MemoryBlock` records as their on-demand view.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..errors import LifecycleError
from ..trace.events import ColumnTable, MemoryColumns, MemoryEvent, int_column

#: default ids of hand-built :class:`MemoryBlock` records
_block_ids = itertools.count(1)

#: the ``free_ts`` column entry of a block no free closes in the trace
NO_FREE = -(1 << 63)


class _BlockFields(NamedTuple):
    addr: int
    size: int
    alloc_ts: int
    free_ts: Optional[int]  # None -> persistent for the trace
    block_id: int


class MemoryBlock(_BlockFields):
    """One reconstructed allocation lifecycle ("memory block" in the paper).

    An immutable tuple record, the object view of one :class:`BlockColumns`
    row.  Built by hand, ``block_id`` defaults to the next process-wide id.
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


class BlockColumns(ColumnTable):
    """Block lifecycles as parallel ``array('q')`` columns.

    ``addr``, ``size``, ``alloc_ts``, ``free_ts`` (:data:`NO_FREE` for a
    persistent block) and ``block_id``, one row per block.  The rows are
    :class:`MemoryBlock` objects (:class:`ColumnTable`).
    """

    __slots__ = ("addr", "size", "alloc_ts", "free_ts", "block_id")
    _state = __slots__
    _length = "size"
    _noun = "blocks"

    def __init__(
        self,
        addr: Iterable[int],
        size: Iterable[int],
        alloc_ts: Iterable[int],
        free_ts: Iterable[int],
        block_id: Iterable[int],
    ):
        self.addr = int_column(addr)
        self.size = int_column(size)
        self.alloc_ts = int_column(alloc_ts)
        self.free_ts = int_column(free_ts)
        self.block_id = int_column(block_id)
        self._rows: Optional[list[MemoryBlock]] = None

    @classmethod
    def from_blocks(cls, blocks: Iterable[MemoryBlock]) -> "BlockColumns":
        """Columns of ``blocks``; the objects themselves become the view."""
        blocks = list(blocks)
        columns = cls(
            [block.addr for block in blocks],
            [block.size for block in blocks],
            [block.alloc_ts for block in blocks],
            [
                NO_FREE if block.free_ts is None else block.free_ts
                for block in blocks
            ],
            [block.block_id for block in blocks],
        )
        columns._rows = blocks
        return columns

    def take(self, rows: list[int]) -> "BlockColumns":
        """The blocks at ``rows``, in that order (a built view comes along)."""
        taken = BlockColumns(
            *(map(column.__getitem__, rows) for column in self.__getstate__())
        )
        if self._rows is not None:
            taken._rows = list(map(self._rows.__getitem__, rows))
        return taken

    def _build_view(self) -> list[MemoryBlock]:
        new_block = tuple.__new__
        return [
            new_block(
                MemoryBlock,
                (
                    addr,
                    size,
                    alloc_ts,
                    None if free_ts == NO_FREE else free_ts,
                    block_id,
                ),
            )
            for addr, size, alloc_ts, free_ts, block_id in zip(
                *self.__getstate__()
            )
        ]


@dataclass(frozen=True)
class LifecycleReport:
    """Result of lifecycle reconstruction plus diagnostics."""

    blocks: BlockColumns
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

    Block ids are canonical for the stream: a block's id is its creation
    rank in this call (0, 1, ...; a block is created when its free is
    seen, persistent blocks last), so two analyses of one trace agree on
    every id.  The rows are in ``(alloc_ts, block_id)`` order.
    """
    if not isinstance(memory, MemoryColumns):
        memory = MemoryColumns.from_events(memory)
    open_blocks: dict[int, tuple[int, int]] = {}  # addr -> (alloc_ts, size)
    seen_addrs: set[int] = set()
    # the blocks in creation order, one list per column
    addrs: list[int] = []
    sizes: list[int] = []
    alloc_times: list[int] = []
    free_times: list[int] = []
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
                addrs.append(addr)
                sizes.append(size)
                alloc_times.append(alloc_ts)
                free_times.append(ts)
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
            addrs.append(addr)
            sizes.append(size)
            alloc_times.append(alloc_ts)
            free_times.append(ts)
    for addr, (alloc_ts, size) in open_blocks.items():
        addrs.append(addr)
        sizes.append(size)
        alloc_times.append(alloc_ts)
        free_times.append(NO_FREE)
    # a stable sort by alloc_ts: equal times stay in creation (id) order,
    # and the order itself is the id column
    order = sorted(range(len(sizes)), key=alloc_times.__getitem__)
    blocks = BlockColumns(
        *(
            map(column.__getitem__, order)
            for column in (addrs, sizes, alloc_times, free_times)
        ),
        order,
    )
    return LifecycleReport(
        blocks=blocks, unmatched_frees=unmatched, reused_addresses=reused
    )


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
