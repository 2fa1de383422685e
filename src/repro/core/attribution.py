"""Hierarchical time-based attribution (paper §3.2, Fig. 5).

Connects each reconstructed memory block to the operator / component that
produced it, using the execution windows of ``cpu_op`` and
``python_function`` events plus the training-loop ``user_annotation``
markers.  Everything is derived from timestamps — the trace carries no
explicit linkage, exactly the challenge the paper describes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

from ..framework.tensor import TensorRole
from ..trace.events import EventCategory, SpanEvent, is_profiler_step
from ..trace.reader import Trace
from .lifecycle import MemoryBlock


@dataclass
class AttributedBlock:
    """A memory block plus its attributed execution context."""

    block: MemoryBlock
    op: Optional[SpanEvent] = None  # innermost cpu_op at allocation
    module_path: Optional[str] = None  # python_function stack at allocation
    annotation: Optional[SpanEvent] = None  # innermost loop annotation
    iteration: Optional[int] = None  # ProfilerStep index, None = setup
    backward: bool = False  # allocated inside the backward engine
    #: role classified by the Analyzer (None until classification runs)
    role: Optional[TensorRole] = None

    @property
    def op_name(self) -> Optional[str]:
        return self.op.name if self.op is not None else None

    @property
    def annotation_name(self) -> Optional[str]:
        return self.annotation.name if self.annotation is not None else None


class _ActiveSpans:
    """The spans of one category that contain a forward-moving timestamp.

    Spans wait in ``(ts, -dur)`` order — a parent before the children it
    encloses — and are admitted to ``stack`` as the timestamp reaches
    their start, so ``stack`` keeps that order: outermost first, the
    innermost span at its tail.  Bounds are inclusive
    (:meth:`SpanEvent.contains_time`).  Partially overlapping spans are
    handled too: expiry filters the whole stack, it does not pop a tail.
    """

    def __init__(self, spans: list[SpanEvent]):
        self._waiting = sorted(spans, key=lambda e: (e.ts, -e.dur))
        self._admitted = 0
        self._first_end = math.inf  # earliest end on the stack
        self.stack: list[SpanEvent] = []

    def advance(self, ts: int) -> bool:
        """Move to ``ts`` (never backwards); True when the stack changed."""
        changed = False
        if ts > self._first_end:
            self.stack = [span for span in self.stack if span.end >= ts]
            changed = True
        waiting = self._waiting
        position = self._admitted
        while position < len(waiting) and waiting[position].ts <= ts:
            span = waiting[position]
            position += 1
            if span.end >= ts:  # else it opened and closed between blocks
                self.stack.append(span)
                changed = True
        self._admitted = position
        if changed:
            self._first_end = min(
                (span.end for span in self.stack), default=math.inf
            )
        return changed

    @property
    def innermost(self) -> Optional[SpanEvent]:
        return self.stack[-1] if self.stack else None


def attribute_blocks(
    trace: Trace, blocks: list[MemoryBlock]
) -> list[AttributedBlock]:
    """Attribute every block to its operator, module stack, and loop phase.

    One sweep over time: blocks are visited in ``alloc_ts`` order (the
    result keeps the input order) while one :class:`_ActiveSpans` per
    category follows along — O((spans + blocks) x nesting depth).
    """
    views: dict[EventCategory, list[SpanEvent]] = {
        category: [] for category in EventCategory
    }
    for span in trace.spans:  # one scan, not one per category
        views[span.category].append(span)
    ops = _ActiveSpans(views[EventCategory.CPU_OP])
    functions = _ActiveSpans(views[EventCategory.PYTHON_FUNCTION])
    annotations = _ActiveSpans(views[EventCategory.USER_ANNOTATION])
    iterations = sorted(
        filter(is_profiler_step, views[EventCategory.USER_ANNOTATION]),
        key=lambda e: e.ts,
    )
    iter_starts = [w.ts for w in iterations]

    module_path: Optional[str] = None
    in_autograd = False
    attributed: list[Optional[AttributedBlock]] = [None] * len(blocks)
    for index in sorted(
        range(len(blocks)), key=lambda i: blocks[i].alloc_ts
    ):
        block = blocks[index]
        ts = block.alloc_ts
        ops.advance(ts)
        annotations.advance(ts)
        if functions.advance(ts):
            module_path = (
                "/".join(
                    span.name.removeprefix("nn.Module: ")
                    for span in functions.stack
                )
                or None
            )
            in_autograd = any(
                span.name.startswith("autograd::")
                for span in functions.stack
            )
        op = ops.innermost
        iteration: Optional[int] = None
        position = bisect.bisect_right(iter_starts, ts) - 1
        if position >= 0 and iterations[position].contains_time(ts):
            iteration = position
        attributed[index] = AttributedBlock(
            block=block,
            op=op,
            module_path=module_path,
            annotation=annotations.innermost,
            iteration=iteration,
            backward=in_autograd or (op is not None and op.is_backward),
        )
    return attributed


def operator_filter(attributed: list[AttributedBlock]) -> list[AttributedBlock]:
    """The paper's operator-centric filter (§3.2).

    Keep a block when either: (i) its whole lifespan falls within its
    operator's window, or (ii) it was allocated in an operator window and
    persists beyond it (activations, gradients, states).  Blocks allocated
    inside loop annotations (parameters during ``Module.to``, batch data
    during ``dataloader.__next__``, optimizer state during
    ``Optimizer.step``) are kept via their annotation window.  Blocks
    attributable to nothing — temporaries of the surrounding script — are
    presumed CPU-only and dropped.
    """
    kept: list[AttributedBlock] = []
    for item in attributed:
        if item.op is not None:
            kept.append(item)
            continue
        if item.annotation is not None:
            kept.append(item)
            continue
        # python-function-only blocks: script temporaries — dropped
    return kept
