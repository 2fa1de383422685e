"""Immutable trace object with the queries the Analyzer needs.

A :class:`Trace` holds the four event categories (paper §3.2) plus run
metadata.  It offers structural queries — iteration windows from
``ProfilerStep#`` annotations, zero-grad / optimizer-step windows, the
cpu_op interval index — while leaving lifecycle reconstruction and
attribution to :mod:`repro.core`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import TraceError
from .events import (
    EventCategory,
    MemoryColumns,
    MemoryEvent,
    SpanColumns,
    SpanEvent,
    is_dataloader_next,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
)


@dataclass(frozen=True)
class Trace:
    """A completed profiling trace (spans + memory events + metadata).

    ``spans`` is held as :class:`SpanColumns` and ``memory_events`` as
    :class:`MemoryColumns`; lists of :class:`SpanEvent` /
    :class:`MemoryEvent` objects (file load, Kineto import, tests) are
    converted once.
    """

    spans: SpanColumns
    memory_events: MemoryColumns
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.spans, SpanColumns):
            object.__setattr__(
                self, "spans", SpanColumns.from_events(self.spans)
            )
        if not isinstance(self.memory_events, MemoryColumns):
            object.__setattr__(
                self,
                "memory_events",
                MemoryColumns.from_events(self.memory_events),
            )

    # ------------------------------------------------------------------
    # category views
    # ------------------------------------------------------------------
    def by_category(self, category: EventCategory) -> list[SpanEvent]:
        """Spans of ``category`` in trace order (builds only those)."""
        spans = self.spans
        return [
            spans[index]
            for index, kind in enumerate(spans.category)
            if kind is category
        ]

    @property
    def python_functions(self) -> list[SpanEvent]:
        return self.by_category(EventCategory.PYTHON_FUNCTION)

    @property
    def user_annotations(self) -> list[SpanEvent]:
        return self.by_category(EventCategory.USER_ANNOTATION)

    @property
    def cpu_ops(self) -> list[SpanEvent]:
        return self.by_category(EventCategory.CPU_OP)

    # ------------------------------------------------------------------
    # training-loop structure
    # ------------------------------------------------------------------
    def iterations(self) -> list[SpanEvent]:
        """ProfilerStep# spans, ordered — one per training iteration."""
        steps = [e for e in self.user_annotations if is_profiler_step(e)]
        return sorted(steps, key=lambda e: e.ts)

    def iteration_window(self, index: int) -> SpanEvent:
        steps = self.iterations()
        if not 0 <= index < len(steps):
            raise TraceError(
                f"iteration {index} out of range; trace has {len(steps)}"
            )
        return steps[index]

    def num_iterations(self) -> int:
        return len(self.iterations())

    def zero_grad_spans(self) -> list[SpanEvent]:
        return sorted(
            (e for e in self.user_annotations if is_zero_grad(e)),
            key=lambda e: e.ts,
        )

    def optimizer_step_spans(self) -> list[SpanEvent]:
        return sorted(
            (e for e in self.user_annotations if is_optimizer_step(e)),
            key=lambda e: e.ts,
        )

    def dataloader_spans(self) -> list[SpanEvent]:
        return sorted(
            (e for e in self.user_annotations if is_dataloader_next(e)),
            key=lambda e: e.ts,
        )

    # ------------------------------------------------------------------
    # time queries
    # ------------------------------------------------------------------
    def span_bounds(self) -> tuple[int, int]:
        """(first ts, last end) over all events in the trace."""
        spans = self.spans
        starts = list(spans.ts)
        ends = list(map(operator.add, spans.ts, spans.dur))
        memory_ts = self.memory_events.ts
        if memory_ts:
            starts.append(min(memory_ts))
            ends.append(max(memory_ts))
        if not starts:
            raise TraceError("empty trace has no bounds")
        return min(starts), max(ends)

    def enclosing_spans(self, ts: int, category: EventCategory) -> list[SpanEvent]:
        """Spans of ``category`` containing ``ts``, outermost first.

        Linear scan per query — for spot checks, and the oracle the tests
        hold the Analyzer's sweep-line attribution to
        (:func:`repro.core.attribution.attribute_blocks`).
        """
        enclosing = [
            e for e in self.by_category(category) if e.contains_time(ts)
        ]
        return sorted(enclosing, key=lambda e: (e.ts, -e.dur))

    def memory_events_in(self, start: int, end: int) -> Iterator[MemoryEvent]:
        for event in self.memory_events:
            if start <= event.ts <= end:
                yield event

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        from .schema import dump_trace_file

        dump_trace_file(path, self.spans, self.memory_events, self.metadata)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        from .schema import load_trace_file

        spans, memory_events, metadata = load_trace_file(path)
        return cls(
            spans=sorted(spans, key=lambda e: (e.ts, -e.dur)),
            memory_events=sorted(memory_events, key=lambda e: e.ts),
            metadata=metadata,
        )

    def __len__(self) -> int:
        return len(self.spans) + len(self.memory_events)
