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
from .events import EventCategory, MemoryColumns, SpanEvent
from .reader import Trace


class _OpenSpan:
    __slots__ = ("name", "category", "ts", "tid", "args")

    def __init__(
        self,
        name: str,
        category: EventCategory,
        ts: int,
        tid: int,
        args: dict[str, Any],
    ):
        self.name = name
        self.category = category
        self.ts = ts
        self.tid = tid
        self.args = args


class TraceBuilder:
    """Builds a trace from nested spans and instant memory events.

    The builder does not own a clock — callers pass explicit timestamps —
    so the same builder works for the virtual-time runtime and for tests
    that construct pathological traces by hand.
    """

    def __init__(self, metadata: dict[str, Any] | None = None):
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._spans: list[SpanEvent] = []
        self._memory = MemoryColumns([], [], [], [])
        self._stack: list[_OpenSpan] = []
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
        self._check_open()
        if self._stack and ts < self._stack[-1].ts:
            raise TraceError(
                f"span {name!r} starts at {ts} before its parent "
                f"{self._stack[-1].name!r} at {self._stack[-1].ts}"
            )
        self._stack.append(_OpenSpan(name, category, ts, tid, dict(args or {})))

    def end_span(self, ts: int) -> SpanEvent:
        self._check_open()
        if not self._stack:
            raise TraceError("end_span with no open span")
        open_span = self._stack.pop()
        if ts < open_span.ts:
            raise TraceError(
                f"span {open_span.name!r} ends at {ts} before it starts "
                f"at {open_span.ts}"
            )
        event = SpanEvent(
            name=open_span.name,
            category=open_span.category,
            ts=open_span.ts,
            dur=ts - open_span.ts,
            tid=open_span.tid,
            args=open_span.args,
        )
        self._spans.append(event)
        return event

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
        self._check_open()
        self._total_allocated += nbytes
        memory = self._memory
        memory.ts.append(ts)
        memory.addr.append(addr)
        memory.nbytes.append(nbytes)
        memory.total.append(self._total_allocated)

    def annotate(self, name: str, ts: int, dur: int = 0, args: dict | None = None) -> None:
        """Emit a complete user_annotation span in one call."""
        self._check_open()
        self._spans.append(
            SpanEvent(
                name=name,
                category=EventCategory.USER_ANNOTATION,
                ts=ts,
                dur=dur,
                args=dict(args or {}),
            )
        )

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def finish(self) -> Trace:
        self._check_open()
        if self._stack:
            names = [s.name for s in self._stack]
            raise TraceError(f"finish() with open spans: {names}")
        self._finished = True
        return Trace(
            spans=sorted(self._spans, key=lambda e: (e.ts, -e.dur)),
            memory_events=_in_time_order(self._memory),
            metadata=self.metadata,
        )

    def _check_open(self) -> None:
        if self._finished:
            raise TraceError("builder already finished")


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
