"""Summary statistics over traces — quick sanity views for users and tests."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .events import EventCategory
from .reader import Trace


@dataclass(frozen=True)
class TraceSummary:
    """Headline numbers describing one profiling trace."""

    num_spans: int
    num_python_functions: int
    num_user_annotations: int
    num_cpu_ops: int
    num_memory_events: int
    num_allocs: int
    num_frees: int
    num_iterations: int
    peak_traced_bytes: int
    total_alloc_bytes: int
    duration_us: int

    def as_dict(self) -> dict[str, int]:
        return {
            "num_spans": self.num_spans,
            "num_python_functions": self.num_python_functions,
            "num_user_annotations": self.num_user_annotations,
            "num_cpu_ops": self.num_cpu_ops,
            "num_memory_events": self.num_memory_events,
            "num_allocs": self.num_allocs,
            "num_frees": self.num_frees,
            "num_iterations": self.num_iterations,
            "peak_traced_bytes": self.peak_traced_bytes,
            "total_alloc_bytes": self.total_alloc_bytes,
            "duration_us": self.duration_us,
        }


def summarize_trace(trace: Trace) -> TraceSummary:
    """Compute a :class:`TraceSummary` for ``trace``."""
    memory = trace.memory_events
    allocs = [nbytes for nbytes in memory.nbytes if nbytes > 0]
    num_frees = sum(1 for nbytes in memory.nbytes if nbytes < 0)
    peak = max(memory.total, default=0)
    if trace.spans or memory:
        start, end = trace.span_bounds()
        duration = end - start
    else:
        duration = 0
    categories = Counter(trace.spans.category)
    return TraceSummary(
        num_spans=len(trace.spans),
        num_python_functions=categories[EventCategory.PYTHON_FUNCTION],
        num_user_annotations=categories[EventCategory.USER_ANNOTATION],
        num_cpu_ops=categories[EventCategory.CPU_OP],
        num_memory_events=len(memory),
        num_allocs=len(allocs),
        num_frees=num_frees,
        num_iterations=trace.num_iterations(),
        peak_traced_bytes=peak,
        total_alloc_bytes=sum(allocs),
        duration_us=duration,
    )
