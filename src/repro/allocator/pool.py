"""Free-block pools with best-fit search.

The caching allocator keeps two pools (small / large).  Each pool stores its
free blocks ordered by ``(size, addr)`` so that a best-fit lookup is a single
bisection: the first block with ``size >= request`` is the smallest
sufficient block, with the lowest address breaking ties — the same ordering
``std::set<Block*, Comparator>`` gives the C++ implementation.
"""

from __future__ import annotations

import bisect
from typing import Optional

from .block import Block


class BlockPool:
    """A sorted collection of free blocks belonging to one size class."""

    def __init__(self, is_small: bool):
        self.is_small = is_small
        # Parallel sorted list of keys so we can bisect without comparing
        # Block objects. _keys[i] corresponds to _blocks[i].
        self._keys: list[tuple[int, int]] = []
        self._blocks: list[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: Block) -> bool:
        index = bisect.bisect_left(self._keys, (block.size, block.addr))
        return index < len(self._blocks) and self._blocks[index] is block

    def add(self, block: Block) -> None:
        """Insert a free block; raises if it is already present."""
        key = (block.size, block.addr)
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._blocks) and self._blocks[index] is block:
            raise ValueError(f"block {block!r} already in pool")
        self._keys.insert(index, key)
        self._blocks.insert(index, block)

    def remove(self, block: Block) -> None:
        """Remove a block from the pool; raises KeyError if absent."""
        key = (block.size, block.addr)
        index = bisect.bisect_left(self._keys, key)
        while index < len(self._blocks) and self._keys[index] == key:
            if self._blocks[index] is block:
                del self._keys[index]
                del self._blocks[index]
                return
            index += 1
        raise KeyError(f"block {block!r} not in pool")

    def find_best_fit(self, size: int) -> Optional[Block]:
        """Smallest free block with ``block.size >= size`` (lowest address on
        ties), or None when the pool cannot satisfy the request."""
        index = bisect.bisect_left(self._keys, (size, -1))
        if index < len(self._blocks):
            return self._blocks[index]
        return None

    def blocks_larger_than(self, size: int) -> list[Block]:
        """All free blocks strictly larger than ``size``, ascending.

        Used by the reclaim path that releases oversized cached blocks
        (``release_available_cached_blocks``) before declaring OOM.
        """
        index = bisect.bisect_right(self._keys, (size, 2**63))
        return list(self._blocks[index:])

    def total_free_bytes(self) -> int:
        return sum(key[0] for key in self._keys)

    def __iter__(self):
        return iter(self._blocks)
