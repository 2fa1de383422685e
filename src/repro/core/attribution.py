"""Hierarchical time-based attribution (paper §3.2, Fig. 5).

Connects each reconstructed memory block to the operator / component that
produced it, using the execution windows of ``cpu_op`` and
``python_function`` events plus the training-loop ``user_annotation``
markers, and classifies its role from that context.  Everything is
derived from timestamps — the trace carries no explicit linkage, exactly
the challenge the paper describes.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Optional

from ..framework.tensor import TensorRole
from ..trace.events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    EventCategory,
    SpanColumns,
    SpanEvent,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
)
from ..trace.reader import Trace
from .lifecycle import MemoryBlock


class AttributedBlock:
    """A memory block plus its attributed execution context.

    A cheap record.  The attribution sweep stores the rows of the
    innermost op and annotation (``spans`` is the trace's
    :class:`SpanColumns`), and :attr:`op` / :attr:`annotation` resolve them
    through the trace's span view on demand.  Built by hand, without
    ``spans``, ``op`` and ``annotation`` are the spans themselves.
    """

    __slots__ = (
        "block",
        "module_path",
        "iteration",
        "backward",
        "role",
        "_op",
        "_annotation",
        "_spans",
    )

    def __init__(
        self,
        block: MemoryBlock,
        op=None,  # innermost cpu_op at allocation
        module_path: Optional[str] = None,  # python_function stack
        annotation=None,  # innermost loop annotation
        iteration: Optional[int] = None,  # ProfilerStep index, None = setup
        backward: bool = False,  # allocated inside the backward engine
        role: Optional[TensorRole] = None,  # None until classified
        spans: Optional[SpanColumns] = None,
    ):
        self.block = block
        self._op = op
        self.module_path = module_path
        self._annotation = annotation
        self.iteration = iteration
        self.backward = backward
        self.role = role
        self._spans = spans

    @property
    def op(self) -> Optional[SpanEvent]:
        return self._resolve(self._op)

    @property
    def annotation(self) -> Optional[SpanEvent]:
        return self._resolve(self._annotation)

    @property
    def op_name(self) -> Optional[str]:
        op = self.op
        return op.name if op is not None else None

    @property
    def annotation_name(self) -> Optional[str]:
        annotation = self.annotation
        return annotation.name if annotation is not None else None

    def _resolve(self, span) -> Optional[SpanEvent]:
        if span is None or self._spans is None:
            return span
        return self._spans[span]

    def __repr__(self) -> str:
        return (
            f"AttributedBlock({self.block!r}, op={self.op_name!r}, "
            f"module_path={self.module_path!r}, "
            f"annotation={self.annotation_name!r}, "
            f"iteration={self.iteration!r}, backward={self.backward!r}, "
            f"role={self.role!r})"
        )


class _OpenSpans:
    """The spans of one category that contain a forward-moving timestamp.

    Rows wait in ``(ts, -dur)`` order — a parent before the children it
    encloses, equal keys in trace order — and are admitted to ``stack`` as
    the timestamp reaches their start, so ``stack`` keeps that order:
    outermost first, the innermost row at its tail.  Bounds are inclusive
    (:meth:`SpanEvent.contains_time`).  ``first_end``, the earliest end on
    the stack, is a running minimum while rows are admitted and is
    recomputed only when a span expires.  Expiry filters the whole stack,
    it does not pop a tail, so partially overlapping spans work too.
    ``due`` is the first timestamp at which the stack can change, and
    ``examined`` counts the rows admitted plus the stack entries
    re-checked on expiry: the sweep's own work.
    """

    def __init__(self, starts: list[int], rows: list[int], ends: list[int]):
        self._starts = starts
        self._rows = rows
        self._ends = ends
        self._admitted = 0
        self.first_end = math.inf
        self.due = starts[0] if starts else math.inf
        self.stack: list[int] = []
        self.examined = 0

    def advance(self, ts: int) -> bool:
        """Move to ``ts`` (never backwards); True when the stack changed."""
        changed = False
        ends = self._ends
        stack = self.stack
        first_end = self.first_end
        if ts > first_end:
            self.examined += len(stack)
            stack = self.stack = [row for row in stack if ends[row] >= ts]
            first_end = min(map(ends.__getitem__, stack), default=math.inf)
            changed = True
        starts = self._starts
        rows = self._rows
        position = self._admitted
        while position < len(starts) and starts[position] <= ts:
            row = rows[position]
            position += 1
            end = ends[row]
            if end >= ts:  # else it opened and closed between blocks
                stack.append(row)
                if end < first_end:
                    first_end = end
                changed = True
        self.examined += position - self._admitted
        self._admitted = position
        self.first_end = first_end
        self.due = min(
            first_end + 1,
            starts[position] if position < len(starts) else math.inf,
        )
        return changed


#: an annotation whose blocks take their role from the block itself
_STEP = "step"


def _annotation_role(name: str):
    """The role an annotation gives every block allocated inside it;
    ``_STEP`` when the block's free decides, None when the annotation does
    not decide."""
    if name == MODEL_TO_DEVICE:
        return TensorRole.PARAMETER
    if name == DATALOADER_NEXT:
        return TensorRole.BATCH_DATA
    if name.startswith(ZERO_GRAD_PREFIX):
        return TensorRole.TEMPORARY
    if name.startswith(OPTIMIZER_STEP_PREFIX):
        return _STEP
    return None


def _freed_within(
    free_ts: Optional[int], windows: list[tuple[int, int]]
) -> bool:
    if free_ts is not None:
        for start, end in windows:
            if start <= free_ts <= end:
                return True
    return False


def attribute_blocks(
    trace: Trace, blocks: list[MemoryBlock]
) -> list[AttributedBlock]:
    """Attribute every block to its operator, module stack and loop phase,
    and classify its :class:`TensorRole` from that context.

    One sweep over time: blocks are visited in ``alloc_ts`` order (the
    result keeps the input order) while one :class:`_OpenSpans` per
    category follows along over the span columns — O((spans + blocks) x
    nesting depth).  Roles (matching the §3.3 orchestration categories):

    * allocated inside ``Module.to`` -> PARAMETER;
    * allocated inside ``dataloader.__next__`` -> BATCH_DATA;
    * allocated inside ``Optimizer.zero_grad`` -> TEMPORARY;
    * allocated inside ``Optimizer.step`` -> TEMPORARY when freed inside a
      step window, else OPTIMIZER_STATE;
    * allocated in the backward pass and either never freed or freed
      inside a ``zero_grad`` window or an iteration's cleanup tail ->
      GRADIENT (activation gradients die inside the backward pass);
    * freed within its own operator window -> TEMPORARY;
    * everything else -> ACTIVATION.
    """
    spans = trace.spans
    names = spans.names
    name_id = spans.name_id
    args = spans.args
    ends = list(map(operator.add, spans.ts, spans.dur))
    waiting: dict[EventCategory, tuple[list[int], list[int]]] = {
        category: ([], []) for category in EventCategory
    }
    category_of = spans.category
    for start, _, row in sorted(
        zip(spans.ts, map(operator.neg, spans.dur), range(len(spans)))
    ):
        starts, rows = waiting[category_of[row]]
        starts.append(start)
        rows.append(row)
    ops = _OpenSpans(*waiting[EventCategory.CPU_OP], ends)
    functions = _OpenSpans(*waiting[EventCategory.PYTHON_FUNCTION], ends)
    annotations = _OpenSpans(*waiting[EventCategory.USER_ANNOTATION], ends)

    markers = sorted(trace.user_annotations, key=lambda e: e.ts)
    iterations = [e for e in markers if is_profiler_step(e)]
    steps = [e for e in markers if is_optimizer_step(e)]
    iter_starts = [w.ts for w in iterations]
    iter_ends = [w.end for w in iterations]
    zero_grad_windows = [(w.ts, w.end) for w in markers if is_zero_grad(w)]
    step_windows = [(w.ts, w.end) for w in steps]
    # The tail of each iteration — after the optimizer step, before the
    # ProfilerStep span closes — is where the CPU run's deferred
    # collection releases gradient buffers.
    gradient_windows = zero_grad_windows + [
        (
            max(
                (s.end for s in steps if window.contains_span(s)),
                default=window.ts,
            ),
            window.end,
        )
        for window in iterations
    ]

    module_names = [name.removeprefix("nn.Module: ") for name in names]
    autograd_names = [name.startswith("autograd::") for name in names]
    backward_names = ["Backward" in name for name in names]
    annotation_roles = [_annotation_role(name) for name in names]

    # context of the current timestamp, recomputed when its stack changes
    op: Optional[int] = None
    op_end = -1
    op_backward = False
    annotation: Optional[int] = None
    annotation_role = None
    module_path: Optional[str] = None
    in_autograd = False
    alloc_times = [block[2] for block in blocks]
    attributed: list[Optional[AttributedBlock]] = [None] * len(blocks)
    for index in sorted(range(len(blocks)), key=alloc_times.__getitem__):
        block = blocks[index]
        _, _, ts, free_ts, _ = block
        if ts >= ops.due and ops.advance(ts):
            if ops.stack:
                op = ops.stack[-1]
                op_end = ends[op]
                op_args = args[op]
                op_backward = backward_names[name_id[op]] or (
                    op_args is not None and bool(op_args.get("Backward", False))
                )
            else:
                op, op_backward = None, False
        if ts >= annotations.due and annotations.advance(ts):
            if annotations.stack:
                annotation = annotations.stack[-1]
                annotation_role = annotation_roles[name_id[annotation]]
            else:
                annotation = annotation_role = None
        if ts >= functions.due and functions.advance(ts):
            stack = functions.stack
            module_path = (
                "/".join([module_names[name_id[row]] for row in stack]) or None
            )
            in_autograd = any(autograd_names[name_id[row]] for row in stack)
        iteration: Optional[int] = None
        position = bisect.bisect_right(iter_starts, ts) - 1
        if position >= 0 and ts <= iter_ends[position]:
            iteration = position
        backward = in_autograd or op_backward

        role = annotation_role
        if role is _STEP:
            role = (
                TensorRole.TEMPORARY
                if _freed_within(free_ts, step_windows)
                else TensorRole.OPTIMIZER_STATE
            )
        elif role is None:
            if backward and (
                free_ts is None or _freed_within(free_ts, gradient_windows)
            ):
                role = TensorRole.GRADIENT
            elif op is not None and free_ts is not None and free_ts <= op_end:
                # the op contains ts, so it contains [alloc_ts, free_ts]
                role = TensorRole.TEMPORARY
            else:
                role = TensorRole.ACTIVATION
        attributed[index] = AttributedBlock(
            block, op, module_path, annotation, iteration, backward, role, spans
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
    return [
        item
        for item in attributed
        if item._op is not None or item._annotation is not None
    ]
