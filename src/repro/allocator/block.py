"""Block and Segment data structures of the caching-allocator simulation.

A :class:`Segment` is one device allocation (cudaMalloc in real PyTorch).
It is carved into a doubly-linked chain of :class:`Block` instances; each
block is either allocated (backing one tensor) or free (cached for reuse).
Adjacent free blocks are coalesced on free, mirroring the BFC algorithm the
paper cites (§3.4 "Algorithm").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

_block_ids = itertools.count(1)
_segment_ids = itertools.count(1)


@dataclass(eq=False, slots=True)
class Block:
    """A contiguous byte range inside a segment.

    ``addr`` is a device-wide virtual address (segment base + offset), which
    keeps best-fit tie-breaking ("lowest address wins") meaningful across
    segments, exactly like pointer comparison does in the C++ allocator.

    Replays churn through millions of Block instances; ``slots=True`` keeps
    them dict-free (smaller, faster attribute access on the hot path).
    """

    addr: int
    size: int
    segment: "Segment"
    allocated: bool = False
    requested_size: int = 0
    prev: Optional["Block"] = None
    next: Optional["Block"] = None
    #: Identifier of the logical allocation occupying this block (simulation
    #: replay uses the memory-event block id); None while free.
    owner: Optional[int] = None
    block_id: int = field(default_factory=lambda: next(_block_ids))

    @property
    def end(self) -> int:
        return self.addr + self.size

    @property
    def is_split(self) -> bool:
        """True when this block does not span its whole segment."""
        return self.prev is not None or self.next is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alloc" if self.allocated else "free"
        return f"Block(addr={self.addr:#x}, size={self.size}, {state})"


@dataclass(eq=False)
class Segment:
    """One device allocation owned by the caching allocator."""

    addr: int
    size: int
    is_small: bool
    first_block: Optional[Block] = None
    segment_id: int = field(default_factory=lambda: next(_segment_ids))

    def blocks(self) -> Iterator[Block]:
        """Iterate blocks in address order."""
        block = self.first_block
        while block is not None:
            yield block
            block = block.next

    @property
    def allocated_bytes(self) -> int:
        return sum(b.size for b in self.blocks() if b.allocated)

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes

    def is_fully_free(self) -> bool:
        """True when the segment is one free block — releasable to the device."""
        block = self.first_block
        return (
            block is not None
            and not block.allocated
            and block.prev is None
            and block.next is None
            and block.size == self.size
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "small" if self.is_small else "large"
        return (
            f"Segment(addr={self.addr:#x}, size={self.size}, {kind}, "
            f"allocated={self.allocated_bytes})"
        )
