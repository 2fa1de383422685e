"""Incremental trace construction used by the CPU profiler.

The runtime engine drives a :class:`TraceBuilder` through nested ``span``
context managers (python functions, cpu ops, annotations) and point calls
for memory events.  The builder validates nesting and hands back an
immutable :class:`~repro.trace.reader.Trace`.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import TraceError
from .events import EventCategory, MemoryColumns, SpanColumns
from .reader import Trace

_FINISHED = "builder already finished"


class TraceBuilder:
    """Builds a trace from nested spans and instant memory events.

    The builder does not own a clock — callers pass explicit timestamps —
    so the same builder works for the virtual-time runtime and for tests
    that construct pathological traces by hand.  Spans and memory events
    are written straight into columns (:class:`SpanColumns`,
    :class:`MemoryColumns`); no event object is built.
    """

    def __init__(self, metadata: dict[str, Any] | None = None):
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._spans = SpanColumns([], [], [], [], [], [], [])
        self._name_ids: dict[str, int] = {}
        self._memory = MemoryColumns([], [], [], [])
        #: open spans, outermost first: (name_id, category, ts, tid, args)
        self._open: list[tuple[int, EventCategory, int, int, Any]] = []
        self._total_allocated = 0
        self._finished = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        category: EventCategory,
        ts: int,
        args: dict[str, Any] | None = None,
        tid: int = 0,
    ) -> None:
        if self._finished:
            raise TraceError(_FINISHED)
        open_spans = self._open
        if open_spans and ts < open_spans[-1][2]:
            parent_id, _, parent_ts, _, _ = open_spans[-1]
            raise TraceError(
                f"span {name!r} starts at {ts} before its parent "
                f"{self._spans.names[parent_id]!r} at {parent_ts}"
            )
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._spans.names)
            self._spans.names.append(name)
        open_spans.append(
            (name_id, category, ts, tid, dict(args) if args else None)
        )

    def end_span(self, ts: int) -> None:
        if self._finished:
            raise TraceError(_FINISHED)
        if not self._open:
            raise TraceError("end_span with no open span")
        name_id, category, start, tid, args = self._open.pop()
        if ts < start:
            raise TraceError(
                f"span {self._spans.names[name_id]!r} ends at {ts} before "
                f"it starts at {start}"
            )
        spans = self._spans
        spans.name_id.append(name_id)
        spans.category.append(category)
        spans.ts.append(start)
        spans.dur.append(ts - start)
        spans.tid.append(tid)
        spans.args.append(args)

    def close_open_spans(self, ts: int) -> None:
        """End every open span at ``ts``, innermost first (an aborted run
        keeps the spans it was in, so :meth:`finish` still works)."""
        while self._open:
            self.end_span(ts)

    @contextmanager
    def span(
        self,
        name: str,
        category: EventCategory,
        start_ts: int,
        end_ts_fn,
        args: dict[str, Any] | None = None,
    ) -> Iterator[None]:
        """Span context manager; ``end_ts_fn`` is called at exit for the end
        timestamp (lets the runtime's clock advance inside the span)."""
        self.begin_span(name, category, start_ts, args)
        try:
            yield
        finally:
            self.end_span(end_ts_fn())

    # ------------------------------------------------------------------
    # instant events
    # ------------------------------------------------------------------
    def record_alloc(self, ts: int, addr: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise TraceError(f"allocation must have positive size, got {nbytes}")
        self._record(ts, addr, nbytes)

    def record_free(self, ts: int, addr: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise TraceError(f"free must have positive size, got {nbytes}")
        self._record(ts, addr, -nbytes)

    def _record(self, ts: int, addr: int, nbytes: int) -> None:
        if self._finished:
            raise TraceError(_FINISHED)
        self._total_allocated += nbytes
        memory = self._memory
        memory.ts.append(ts)
        memory.addr.append(addr)
        memory.nbytes.append(nbytes)
        memory.total.append(self._total_allocated)

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def finish(self) -> Trace:
        if self._finished:
            raise TraceError(_FINISHED)
        if self._open:
            names = [self._spans.names[name_id] for name_id, *_ in self._open]
            raise TraceError(f"finish() with open spans: {names}")
        self._finished = True
        return Trace(
            spans=_in_start_order(self._spans),
            memory_events=_in_time_order(self._memory),
            metadata=self.metadata,
        )


def _in_start_order(spans: SpanColumns) -> SpanColumns:
    """``spans`` stably sorted by ``(ts, -dur)``: a parent before the
    children it encloses (spans are recorded as they end, children first)."""
    order = [
        index
        for _, _, index in sorted(
            zip(spans.ts, map(operator.neg, spans.dur), range(len(spans)))
        )
    ]
    return SpanColumns(
        spans.names,
        *(
            [column[i] for i in order]
            for column in (
                spans.name_id,
                spans.category,
                spans.ts,
                spans.dur,
                spans.tid,
                spans.args,
            )
        ),
    )


def _in_time_order(memory: MemoryColumns) -> MemoryColumns:
    """``memory`` stably sorted by ts (as recorded when already in order)."""
    ts = memory.ts
    if all(map(operator.le, ts, ts[1:])):
        return memory
    order = sorted(range(len(ts)), key=ts.__getitem__)
    return MemoryColumns(
        *(
            [column[i] for i in order]
            for column in (ts, memory.addr, memory.nbytes, memory.total)
        )
    )
