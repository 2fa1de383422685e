"""Profiler event model (paper §3.2).

The Analyzer consumes exactly four event categories from the PyTorch
Profiler; this module defines them:

* ``python_function`` — Python-level calls (``nn.Module`` invocations,
  training-script functions).  Nested spans form the call hierarchy.
* ``user_annotation`` — markers for training-loop phases
  (``ProfilerStep#k``, ``Optimizer.zero_grad#...``, ``Optimizer.step#...``,
  ``dataloader.__next__``).
* ``cpu_op`` — ATen kernels dispatched to the CPU backend
  (``aten::convolution`` …), with forward/backward linking sequence numbers.
* ``cpu_instant_event`` — ``[memory]`` records: signed byte deltas with the
  address, emitted by the allocator hooks.

Span events carry microsecond ``ts``/``dur``; instant events carry ``ts``
only.  All events are immutable.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class EventCategory(str, Enum):
    PYTHON_FUNCTION = "python_function"
    USER_ANNOTATION = "user_annotation"
    CPU_OP = "cpu_op"
    CPU_INSTANT_EVENT = "cpu_instant_event"


#: Annotation names the Orchestrator keys on (paper §3.3).
PROFILER_STEP_PREFIX = "ProfilerStep#"
ZERO_GRAD_PREFIX = "Optimizer.zero_grad#"
OPTIMIZER_STEP_PREFIX = "Optimizer.step#"
DATALOADER_NEXT = "dataloader.__next__"
MODEL_TO_DEVICE = "Module.to"


@dataclass(frozen=True)
class SpanEvent:
    """A duration event (``ph: "X"`` in Chrome-trace terms)."""

    name: str
    category: EventCategory
    ts: int  # microseconds
    dur: int  # microseconds
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.ts + self.dur

    def contains_time(self, ts: int) -> bool:
        """True when ``ts`` falls inside this span (inclusive bounds).

        Bounds are inclusive because allocator hooks fire *within* the
        surrounding op's window and may share its boundary timestamps.
        """
        return self.ts <= ts <= self.end

    def contains_span(self, other: "SpanEvent") -> bool:
        return self.ts <= other.ts and other.end <= self.end

    def contains_interval(self, start: int, end: int) -> bool:
        return self.ts <= start and end <= self.end

    @property
    def sequence_number(self) -> Optional[int]:
        """Links a forward op to its backward counterpart, when present."""
        return self.args.get("Sequence number")

    @property
    def is_backward(self) -> bool:
        return bool(self.args.get("Backward", False)) or "Backward" in self.name


@dataclass(frozen=True)
class MemoryEvent:
    """A ``[memory]`` instant event: one allocation or deallocation.

    ``nbytes`` is signed — positive for allocations, negative for frees —
    matching the profiler's convention.  ``addr`` identifies the buffer;
    addresses are reused over time, which lifecycle reconstruction must
    handle (§3.2).
    """

    ts: int
    addr: int
    nbytes: int
    total_allocated: int = 0
    device: str = "cpu"

    @property
    def is_alloc(self) -> bool:
        return self.nbytes > 0

    @property
    def is_free(self) -> bool:
        return self.nbytes < 0

    @property
    def size(self) -> int:
        return abs(self.nbytes)


def int_column(values: Iterable[int]) -> array:
    """``values`` as an ``array('q')``: eight bytes an entry, with no
    boxed int and no per-entry object for the garbage collector to visit.
    An ``array('q')`` is kept as is."""
    if type(values) is array and values.typecode == "q":
        return values
    return array("q", values)


class ColumnTable(Sequence):
    """A table stored as parallel columns, read as a sequence of objects.

    Stages read the columns.  Indexing or iterating yields the row
    objects, which :meth:`_build_view` builds from the columns on first
    use; the list is cached in ``_rows`` (a ``from_*`` constructor hands
    its own objects over as the view).  Equality compares
    :meth:`_content`, by default the pickled state; pickling stores the
    constructor's arguments named in ``_state``, in order, and never the
    view.  A subclass names those arguments, the per-row column its
    length is read from (``_length``) and what a row is called in its
    ``repr`` (``_noun``).
    """

    __slots__ = ("_rows",)
    _state: tuple[str, ...] = ()
    _length = ""
    _noun = "rows"

    def _build_view(self) -> list:
        raise NotImplementedError

    def _view(self) -> list:
        rows = self._rows
        if rows is None:
            rows = self._rows = self._build_view()
        return rows

    def __len__(self) -> int:
        return len(getattr(self, self._length))

    def __getitem__(self, index):
        return self._view()[index]

    def __iter__(self) -> Iterator:
        return iter(self._view())

    def _content(self) -> tuple:
        return self.__getstate__()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._content() == other._content()

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._state)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} {self._noun})"


class MemoryColumns(ColumnTable):
    """A trace's ``[memory]`` stream as parallel int columns.

    ``ts``, ``addr`` and signed ``nbytes`` are what the Analyzer sweeps;
    ``total`` is the running ``Total Allocated`` the profiler reported.
    Each column is an ``array('q')`` (:func:`int_column`; lists are
    converted).  The rows are :class:`MemoryEvent` objects
    (:class:`ColumnTable`).  The stream is the CPU profile, so no device
    is stored.
    """

    __slots__ = ("ts", "addr", "nbytes", "total")
    _state = __slots__
    _length = "ts"
    _noun = "events"

    def __init__(
        self,
        ts: Iterable[int],
        addr: Iterable[int],
        nbytes: Iterable[int],
        total: Iterable[int],
    ):
        self.ts = int_column(ts)
        self.addr = int_column(addr)
        self.nbytes = int_column(nbytes)
        self.total = int_column(total)
        self._rows: Optional[list[MemoryEvent]] = None

    @classmethod
    def from_events(cls, events: Iterable[MemoryEvent]) -> "MemoryColumns":
        """Columns of ``events``; the objects themselves become the view."""
        events = list(events)
        columns = cls(
            [e.ts for e in events],
            [e.addr for e in events],
            [e.nbytes for e in events],
            [e.total_allocated for e in events],
        )
        columns._rows = events
        return columns

    def _build_view(self) -> list[MemoryEvent]:
        return [
            MemoryEvent(ts=ts, addr=addr, nbytes=nbytes, total_allocated=total)
            for ts, addr, nbytes, total in zip(
                self.ts, self.addr, self.nbytes, self.total
            )
        ]


class SpanColumns(ColumnTable):
    """A trace's duration events as parallel columns.

    ``name_id``, ``ts``, ``dur`` and ``tid`` are ``array('q')`` int
    columns (:func:`int_column`); ``category`` holds
    :class:`EventCategory` members; ``name_id`` indexes the interned
    ``names`` table; ``args`` holds each span's argument dict, or ``None``
    when it has none (spans with equal arguments may share one dict:
    treat it as read-only).  The rows are :class:`SpanEvent` objects
    (:class:`ColumnTable`), but one index builds that span alone (kept in
    ``_picked``, which the full view adopts), so a row always yields the
    same object.  Two tables are equal when their spans are, whatever
    the order of their ``names`` tables.
    """

    _state = ("names", "name_id", "category", "ts", "dur", "tid", "args")
    __slots__ = (*_state, "_picked")
    _length = "ts"
    _noun = "spans"

    def __init__(
        self,
        names: list[str],
        name_id: Iterable[int],
        category: list[EventCategory],
        ts: Iterable[int],
        dur: Iterable[int],
        tid: Iterable[int],
        args: list[Optional[dict[str, Any]]],
    ):
        self.names = names
        self.name_id = int_column(name_id)
        self.category = category
        self.ts = int_column(ts)
        self.dur = int_column(dur)
        self.tid = int_column(tid)
        self.args = args
        self._rows: Optional[list[SpanEvent]] = None
        self._picked: dict[int, SpanEvent] = {}

    @classmethod
    def from_events(cls, events: Iterable[SpanEvent]) -> "SpanColumns":
        """Columns of ``events``; the objects themselves become the view."""
        events = list(events)
        ids: dict[str, int] = {}
        name_id = [ids.setdefault(e.name, len(ids)) for e in events]
        columns = cls(
            list(ids),
            name_id,
            [e.category for e in events],
            [e.ts for e in events],
            [e.dur for e in events],
            [e.tid for e in events],
            [e.args or None for e in events],
        )
        columns._rows = events
        return columns

    def _build_view(self) -> list[SpanEvent]:
        names = self.names
        events = [
            SpanEvent(names[name_id], category, ts, dur, tid, args or {})
            for name_id, category, ts, dur, tid, args in zip(
                self.name_id,
                self.category,
                self.ts,
                self.dur,
                self.tid,
                self.args,
            )
        ]
        # a copy: another thread may pick a span meanwhile
        for index, event in list(self._picked.items()):
            events[index] = event
        self._picked.clear()
        return events

    def __getitem__(self, index):
        if self._rows is not None or isinstance(index, slice):
            return self._view()[index]
        if index < 0:
            index += len(self.ts)
        if not 0 <= index < len(self.ts):
            raise IndexError("span index out of range")
        event = self._picked.get(index)
        if event is None:
            event = self._picked[index] = SpanEvent(
                self.names[self.name_id[index]],
                self.category[index],
                self.ts[index],
                self.dur[index],
                self.tid[index],
                self.args[index] or {},
            )
        return event

    def _content(self) -> tuple[list, ...]:
        names = self.names
        return (
            [names[name_id] for name_id in self.name_id],
            self.category,
            self.ts,
            self.dur,
            self.tid,
            self.args,
        )


def is_profiler_step(event: SpanEvent) -> bool:
    return (
        event.category is EventCategory.USER_ANNOTATION
        and event.name.startswith(PROFILER_STEP_PREFIX)
    )


def is_zero_grad(event: SpanEvent) -> bool:
    return (
        event.category is EventCategory.USER_ANNOTATION
        and event.name.startswith(ZERO_GRAD_PREFIX)
    )


def is_optimizer_step(event: SpanEvent) -> bool:
    return (
        event.category is EventCategory.USER_ANNOTATION
        and event.name.startswith(OPTIMIZER_STEP_PREFIX)
    )


def is_dataloader_next(event: SpanEvent) -> bool:
    return (
        event.category is EventCategory.USER_ANNOTATION
        and event.name == DATALOADER_NEXT
    )
