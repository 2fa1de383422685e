"""The Memory Simulator: final stage of the xMem pipeline (§3.4).

Replays the orchestrated memory sequence through the two-level allocator
simulation (framework caching allocator + device allocator) and reports
the peak Segment (reserved) memory — the quantity NVML measures and an
estimate must predict — plus the full usage curve.

Ablation knobs reproduce the design-choice comparisons in DESIGN.md:
``account="tensor"`` sums live tensor bytes (Horus-style), ``two_level=
False`` drops cached-segment reclamation (DNNMem-style), and any
:class:`~repro.allocator.constants.AllocatorConfig` can be swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..allocator.caching import CachingAllocator
from ..allocator.constants import DEFAULT_CONFIG, AllocatorConfig
from ..allocator.device import DeviceAllocator
from ..allocator.stats import AllocatorStats, TimelineRecorder
from ..errors import SimOutOfMemoryError
from .orchestrator import OrchestratedSequence

#: Effectively-unbounded device used when measuring an unconstrained peak.
UNBOUNDED_CAPACITY = 1 << 50


@dataclass(frozen=True)
class SimulationResult:
    """Replay outcome."""

    peak_reserved_bytes: int  # Segment curve peak (the estimate)
    peak_allocated_bytes: int  # Tensor curve peak
    oom: bool
    oom_ts: Optional[int]
    timeline: TimelineRecorder
    stats: AllocatorStats
    num_events: int

    def peak(self, account: str = "segment") -> int:
        if account == "segment":
            return self.peak_reserved_bytes
        if account == "tensor":
            return self.peak_allocated_bytes
        raise ValueError(f"unknown accounting mode {account!r}")


class MemorySimulator:
    """Replays orchestrated sequences through the allocator simulation."""

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        allocator_config: AllocatorConfig = DEFAULT_CONFIG,
        two_level: bool = True,
    ):
        self.capacity_bytes = capacity_bytes or UNBOUNDED_CAPACITY
        if not two_level:
            allocator_config = replace(allocator_config, reclaim_on_oom=False)
        self.allocator_config = allocator_config
        self.two_level = two_level

    def replay(
        self,
        sequence: OrchestratedSequence,
        record_timeline: bool = True,
    ) -> SimulationResult:
        """Replay the sequence chronologically; stops at the first OOM.

        ``record_timeline=False`` is the fast path for callers that only
        need the peaks: the allocator's stat counters track both peaks in
        the same single pass, so no usage curve is materialized and the
        returned ``timeline`` is empty.
        """
        device = DeviceAllocator(capacity=self.capacity_bytes)
        allocator = CachingAllocator(
            device,
            config=self.allocator_config,
            record_timeline=record_timeline,
        )
        oom = False
        oom_ts: Optional[int] = None
        processed = 0
        malloc = allocator.malloc
        free = allocator.free
        live = allocator.live_owners.get
        for ts, is_alloc, block_id, size, _ in sequence.rows:
            try:
                if is_alloc:
                    malloc(size, ts, block_id)
                else:
                    block = live(block_id)
                    if block is None:
                        continue  # a block this replay never allocated
                    free(block, ts)
            except SimOutOfMemoryError:
                oom = True
                oom_ts = ts
                break
            processed += 1
        timeline = (
            allocator.timeline
            if allocator.timeline is not None
            else TimelineRecorder()
        )
        return SimulationResult(
            peak_reserved_bytes=allocator.peak_reserved_bytes,
            peak_allocated_bytes=allocator.peak_allocated_bytes,
            oom=oom,
            oom_ts=oom_ts,
            timeline=timeline,
            stats=allocator.stats,
            num_events=processed,
        )
