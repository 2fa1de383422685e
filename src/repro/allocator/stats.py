"""Allocator statistics, mirroring ``torch.cuda.memory_stats()``.

Two byte series matter to the paper (§2.2, Fig. 1/6):

* ``allocated_bytes`` — bytes currently backing live tensors ("Tensor"
  curves in the figures);
* ``reserved_bytes`` — bytes of device segments held by the allocator
  ("Segment" curves), which is what NVML sees and what an estimator must
  predict.

A :class:`TimelineRecorder` captures both series against a logical
timestamp so the simulator can output the paper's memory-usage curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class StatCounter:
    """current / peak / cumulative triple, like PyTorch's ``Stat``."""

    current: int = 0
    peak: int = 0
    allocated: int = 0  # cumulative increase
    freed: int = 0  # cumulative decrease

    def increase(self, amount: int) -> None:
        self.current += amount
        self.allocated += amount
        if self.current > self.peak:
            self.peak = self.current

    def decrease(self, amount: int) -> None:
        self.current -= amount
        self.freed += amount
        if self.current < 0:
            self.raise_negative()

    def raise_negative(self) -> None:
        raise ValueError(
            f"stat counter went negative ({self.current}) — "
            "allocation bookkeeping bug"
        )

    def reset_peak(self) -> None:
        self.peak = self.current


@dataclass
class AllocatorStats:
    """Aggregate statistics of one caching-allocator instance."""

    allocated_bytes: StatCounter = field(default_factory=StatCounter)
    reserved_bytes: StatCounter = field(default_factory=StatCounter)
    active_blocks: StatCounter = field(default_factory=StatCounter)
    segments: StatCounter = field(default_factory=StatCounter)
    #: requested (pre-rounding) bytes — allows measuring rounding waste.
    requested_bytes: StatCounter = field(default_factory=StatCounter)
    num_alloc_retries: int = 0
    num_ooms: int = 0
    num_splits: int = 0
    num_coalesces: int = 0
    num_cache_hits: int = 0
    num_cache_misses: int = 0

    def rounding_waste(self) -> int:
        """Bytes currently lost to 512 B round-up."""
        return self.allocated_bytes.current - self.requested_bytes.current

    def reset_peaks(self) -> None:
        for counter in (
            self.allocated_bytes,
            self.reserved_bytes,
            self.active_blocks,
            self.segments,
            self.requested_bytes,
        ):
            counter.reset_peak()

    def as_dict(self) -> dict[str, int]:
        """Flat dict for reporting, keyed like torch.cuda.memory_stats."""
        flat: dict[str, int] = {}
        for name in ("allocated_bytes", "reserved_bytes", "requested_bytes"):
            counter: StatCounter = getattr(self, name)
            flat[f"{name}.current"] = counter.current
            flat[f"{name}.peak"] = counter.peak
            flat[f"{name}.allocated"] = counter.allocated
            flat[f"{name}.freed"] = counter.freed
        flat["num_alloc_retries"] = self.num_alloc_retries
        flat["num_ooms"] = self.num_ooms
        flat["num_splits"] = self.num_splits
        flat["num_coalesces"] = self.num_coalesces
        flat["num_cache_hits"] = self.num_cache_hits
        flat["num_cache_misses"] = self.num_cache_misses
        return flat


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One sample of the memory state at a logical timestamp."""

    ts: int
    allocated_bytes: int
    reserved_bytes: int


class TimelineRecorder:
    """Append-only record of (ts, allocated, reserved) samples.

    Both peaks are tracked as running scalars as samples arrive;
    :meth:`downsample` thins a copy for plotting.
    """

    def __init__(self) -> None:
        self._points: list[TimelinePoint] = []
        self._peak_reserved = 0
        self._peak_allocated = 0

    def record(self, ts: int, allocated: int, reserved: int) -> None:
        if reserved > self._peak_reserved:
            self._peak_reserved = reserved
        if allocated > self._peak_allocated:
            self._peak_allocated = allocated
        self._points.append(TimelinePoint(ts, allocated, reserved))

    @property
    def points(self) -> list[TimelinePoint]:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def peak_reserved(self) -> int:
        return self._peak_reserved

    def peak_allocated(self) -> int:
        return self._peak_allocated

    def series(self) -> tuple[list[int], list[int], list[int]]:
        """Return (ts, allocated, reserved) parallel lists for plotting."""
        ts = [p.ts for p in self._points]
        allocated = [p.allocated_bytes for p in self._points]
        reserved = [p.reserved_bytes for p in self._points]
        return ts, allocated, reserved

    def downsample(self, max_points: int) -> "TimelineRecorder":
        """Uniformly thin the timeline, keeping both peaks intact.

        Keeps every point whose reserved value is a running maximum (the
        Segment curve steps up a few times per run) and the first point of
        the allocated peak (the Tensor curve rises with every allocation,
        so its running maxima would keep most of a warm-up), plus a uniform
        sample of the rest.  Neither curve loses its peak.
        """
        if max_points <= 0:
            raise ValueError("max_points must be positive")
        if len(self._points) <= max_points:
            return self
        keep: set[int] = set()
        best_reserved = best_allocated = -1
        allocated_peak = 0
        for index, point in enumerate(self._points):
            if point.reserved_bytes > best_reserved:
                best_reserved = point.reserved_bytes
                keep.add(index)
            if point.allocated_bytes > best_allocated:
                best_allocated = point.allocated_bytes
                allocated_peak = index
        keep.add(allocated_peak)
        stride = max(1, len(self._points) // max_points)
        keep.update(range(0, len(self._points), stride))
        keep.add(len(self._points) - 1)
        thinned = TimelineRecorder()
        for index in sorted(keep):
            point = self._points[index]
            thinned.record(point.ts, point.allocated_bytes, point.reserved_bytes)
        return thinned


def merge_timelines(timelines: Iterable[TimelineRecorder]) -> TimelineRecorder:
    """Merge several timelines into one, ordered by timestamp."""
    merged = TimelineRecorder()
    points = sorted(
        (p for t in timelines for p in t.points), key=lambda p: p.ts
    )
    for point in points:
        merged.record(point.ts, point.allocated_bytes, point.reserved_bytes)
    return merged
