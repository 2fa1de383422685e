"""Memory sinks: where the training engine's allocations land.

The engine is backend- and destination-agnostic; a sink receives each
allocation/free with its role and timestamp:

* :class:`CpuProfilingSink` — models host ``malloc`` (address reuse, no
  caching) and records ``cpu_instant_event`` records into a trace builder:
  this is what the PyTorch profiler sees during the CPU profiling run.
* :class:`AllocatorSink` — routes requests through the two-level
  :class:`~repro.allocator.caching.CachingAllocator`: this is the simulated
  GPU execution used for ground truth.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..allocator.caching import CachingAllocator
from ..errors import InvalidFreeError
from ..framework.tensor import TensorRole
from ..trace.builder import TraceBuilder


class AllocationHandle(NamedTuple):
    """Opaque ticket returned by a sink for every allocation (a tuple:
    the engine makes one per allocation)."""

    handle_id: int
    size: int
    role: TensorRole


class MemorySink:
    """Interface the engine drives."""

    def alloc(self, size: int, role: TensorRole, ts: int) -> AllocationHandle:
        raise NotImplementedError

    def free(self, handle: AllocationHandle, ts: int) -> None:
        raise NotImplementedError

    @property
    def live_bytes(self) -> int:
        raise NotImplementedError


class CpuProfilingSink(MemorySink):
    """Host-malloc model + profiler memory events.

    Freed addresses are reused LIFO (like a size-classed heap under a
    steady workload), so the trace exercises the address-reuse handling the
    paper's Analyzer must implement (§3.2).
    """

    def __init__(self, builder: TraceBuilder):
        self._builder = builder
        self._ids = itertools.count(1)
        self._next_addr = 0x7F00_0000_0000
        self._free_addrs: list[int] = []
        self._live: dict[int, int] = {}  # handle_id -> addr
        self._live_bytes = 0
        self.peak_bytes = 0

    def alloc(self, size: int, role: TensorRole, ts: int) -> AllocationHandle:
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self._free_addrs:
            addr = self._free_addrs.pop()
        else:
            addr = self._next_addr
            self._next_addr += (size + 63) // 64 * 64 + 64
        handle_id = next(self._ids)
        self._live[handle_id] = addr
        live = self._live_bytes = self._live_bytes + size
        if live > self.peak_bytes:
            self.peak_bytes = live
        self._builder.record_alloc(ts, addr, size)
        return AllocationHandle(handle_id, size, role)

    def free(self, handle: AllocationHandle, ts: int) -> None:
        addr = self._live.pop(handle.handle_id, None)
        if addr is None:
            raise InvalidFreeError(f"double free of handle {handle.handle_id}")
        self._live_bytes -= handle.size
        self._free_addrs.append(addr)
        self._builder.record_free(ts, addr, handle.size)

    @property
    def live_bytes(self) -> int:
        return self._live_bytes


class AllocatorSink(MemorySink):
    """Simulated GPU execution: requests flow through the caching allocator.

    :class:`~repro.errors.SimOutOfMemoryError` raised by the allocator
    propagates to the engine — a training OOM.
    """

    def __init__(self, allocator: CachingAllocator):
        self.allocator = allocator
        self._ids = itertools.count(1)
        self._live_bytes = 0
        #: per-role live bytes, useful for tests and reports
        self.role_bytes: dict[TensorRole, int] = {role: 0 for role in TensorRole}

    def alloc(self, size: int, role: TensorRole, ts: int) -> AllocationHandle:
        handle = AllocationHandle(next(self._ids), size, role)
        self.allocator.malloc(size, ts=ts, owner=handle.handle_id)
        self._live_bytes += size
        self.role_bytes[role] += size
        return handle

    def free(self, handle: AllocationHandle, ts: int) -> None:
        self.allocator.free_owner(handle.handle_id, ts=ts)
        self._live_bytes -= handle.size
        self.role_bytes[handle.role] -= handle.size

    @property
    def live_bytes(self) -> int:
        return self._live_bytes


class NullSink(MemorySink):
    """Counts bytes only — used by tests and quick size probes."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._live_bytes = 0
        self.peak_bytes = 0

    def alloc(self, size: int, role: TensorRole, ts: int) -> AllocationHandle:
        handle = AllocationHandle(next(self._ids), size, role)
        self._live_bytes += size
        self.peak_bytes = max(self.peak_bytes, self._live_bytes)
        return handle

    def free(self, handle: AllocationHandle, ts: int) -> None:
        self._live_bytes -= handle.size

    @property
    def live_bytes(self) -> int:
        return self._live_bytes
