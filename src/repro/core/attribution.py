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
from array import array
from collections.abc import Iterable
from typing import Optional

from ..framework.tensor import NO_ROLE, ROLE_CODES, ROLES, TensorRole
from ..trace.events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    ColumnTable,
    EventCategory,
    SpanColumns,
    SpanEvent,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
    int_column,
)
from ..trace.reader import Trace
from .lifecycle import NO_FREE, BlockColumns, MemoryBlock

#: the ``op`` / ``annotation`` / ``iteration`` column entry for "none"
NONE = -1
#: the ``op`` / ``annotation`` entry of a hand-built block whose span is
#: an object, not a row of the trace's span columns
SPAN_OBJECT = -2


class AttributedBlock:
    """A memory block plus its attributed execution context.

    The object view of one :class:`AttributedColumns` row, or a record
    built by hand.  A view holds the rows of the innermost op and
    annotation (``spans`` is the trace's :class:`SpanColumns`), and
    :attr:`op` / :attr:`annotation` resolve them through the trace's span
    view on demand.  Built by hand, without ``spans``, ``op`` and
    ``annotation`` are the spans themselves.
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


class AttributedColumns(ColumnTable):
    """Attributed blocks as parallel columns: the Analyzer's stored form.

    ``blocks`` holds the lifecycles (:class:`BlockColumns`).  Per row,
    ``role`` is the role code (``ROLES[code]``; -1 is none),
    ``iteration`` the ProfilerStep index (:data:`NONE`: setup), ``op`` and
    ``annotation`` the innermost span rows of ``spans`` (:data:`NONE`: no
    span), ``module`` an index into the ``module_paths`` table and
    ``backward`` 0 or 1.  The rows are :class:`AttributedBlock` views
    (:class:`ColumnTable`).
    """

    __slots__ = (
        "blocks",
        "spans",
        "role",
        "iteration",
        "op",
        "annotation",
        "module",
        "backward",
        "module_paths",
    )
    _state = __slots__
    _length = "role"
    _noun = "blocks"

    def __init__(
        self,
        blocks: BlockColumns,
        spans: Optional[SpanColumns],
        role: Iterable[int],
        iteration: Iterable[int],
        op: Iterable[int],
        annotation: Iterable[int],
        module: Iterable[int],
        backward: Iterable[int],
        module_paths: list[Optional[str]],
    ):
        self.blocks = blocks
        self.spans = spans
        self.role = array("b", role)
        self.iteration = int_column(iteration)
        self.op = int_column(op)
        self.annotation = int_column(annotation)
        self.module = int_column(module)
        self.backward = array("b", backward)
        self.module_paths = module_paths
        self._rows: Optional[list[AttributedBlock]] = None

    @classmethod
    def from_items(cls, items: Iterable[AttributedBlock]) -> "AttributedColumns":
        """Columns of ``items``; the objects themselves become the view."""
        items = list(items)
        module_ids: dict[Optional[str], int] = {}
        columns = cls(
            BlockColumns.from_blocks(item.block for item in items),
            next(
                (item._spans for item in items if item._spans is not None),
                None,
            ),
            [ROLE_CODES[item.role] for item in items],
            [NONE if item.iteration is None else item.iteration for item in items],
            [_span_row(item._op) for item in items],
            [_span_row(item._annotation) for item in items],
            [
                module_ids.setdefault(item.module_path, len(module_ids))
                for item in items
            ],
            [bool(item.backward) for item in items],
            list(module_ids),
        )
        columns._rows = items
        return columns

    def _columns(self) -> tuple:
        return (
            self.role,
            self.iteration,
            self.op,
            self.annotation,
            self.module,
            self.backward,
        )

    def take(self, rows: list[int]) -> "AttributedColumns":
        """The rows ``rows``, in that order (a built view comes along)."""
        taken = AttributedColumns(
            self.blocks.take(rows),
            self.spans,
            *(map(column.__getitem__, rows) for column in self._columns()),
            self.module_paths,
        )
        if self._rows is not None:
            taken._rows = list(map(self._rows.__getitem__, rows))
        return taken

    def _build_view(self) -> list[AttributedBlock]:
        spans = self.spans
        paths = self.module_paths
        return [
            AttributedBlock(
                block,
                None if op < 0 else op,
                paths[module],
                None if annotation < 0 else annotation,
                None if iteration < 0 else iteration,
                bool(backward),
                ROLES[role],
                spans,
            )
            for block, role, iteration, op, annotation, module, backward
            in zip(self.blocks, *self._columns())
        ]

    def rows_of(self, role: TensorRole) -> list[int]:
        """The rows classified as ``role``, in order."""
        code = ROLE_CODES[role]
        return [row for row, value in enumerate(self.role) if value == code]


def _span_row(span) -> int:
    """A span reference as its column entry."""
    if span is None:
        return NONE
    return span if isinstance(span, int) else SPAN_OBJECT


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

_PARAMETER = ROLE_CODES[TensorRole.PARAMETER]
_BATCH_DATA = ROLE_CODES[TensorRole.BATCH_DATA]
_TEMPORARY = ROLE_CODES[TensorRole.TEMPORARY]
_OPTIMIZER_STATE = ROLE_CODES[TensorRole.OPTIMIZER_STATE]
_GRADIENT = ROLE_CODES[TensorRole.GRADIENT]
_ACTIVATION = ROLE_CODES[TensorRole.ACTIVATION]


def _annotation_role(name: str):
    """The role code an annotation gives every block allocated inside it;
    ``_STEP`` when the block's free decides, None when the annotation does
    not decide."""
    if name == MODEL_TO_DEVICE:
        return _PARAMETER
    if name == DATALOADER_NEXT:
        return _BATCH_DATA
    if name.startswith(ZERO_GRAD_PREFIX):
        return _TEMPORARY
    if name.startswith(OPTIMIZER_STEP_PREFIX):
        return _STEP
    return None


def _freed_within(free_ts: int, windows: list[tuple[int, int]]) -> bool:
    if free_ts != NO_FREE:
        for start, end in windows:
            if start <= free_ts <= end:
                return True
    return False


def attribute_blocks(
    trace: Trace, blocks: BlockColumns | Iterable[MemoryBlock]
) -> AttributedColumns:
    """Attribute every block to its operator, module stack and loop phase,
    and classify its :class:`TensorRole` from that context.

    One sweep over time: blocks are visited in ``alloc_ts`` order (the
    result keeps the input order) while one :class:`_OpenSpans` per
    category follows along over the span columns — O((spans + blocks) x
    nesting depth).  The result is columns (:class:`AttributedColumns`;
    block objects are converted first).  Roles (matching the §3.3
    orchestration categories):

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
    if not isinstance(blocks, BlockColumns):
        blocks = BlockColumns.from_blocks(blocks)
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
    op = NONE
    op_end = -1
    op_backward = False
    annotation = NONE
    annotation_role = None
    module_ids: dict[Optional[str], int] = {None: 0}
    module = 0
    in_autograd = False
    count = len(blocks)
    role_column = array("b", [NO_ROLE]) * count
    iteration_column = array("q", [NONE]) * count
    op_column = array("q", [NONE]) * count
    annotation_column = array("q", [NONE]) * count
    module_column = array("q", [0]) * count
    backward_column = array("b", [0]) * count
    alloc_times = blocks.alloc_ts
    free_times = blocks.free_ts
    for index in sorted(range(count), key=alloc_times.__getitem__):
        ts = alloc_times[index]
        free_ts = free_times[index]
        if ts >= ops.due and ops.advance(ts):
            if ops.stack:
                op = ops.stack[-1]
                op_end = ends[op]
                op_args = args[op]
                op_backward = backward_names[name_id[op]] or (
                    op_args is not None and bool(op_args.get("Backward", False))
                )
            else:
                op, op_backward = NONE, False
        if ts >= annotations.due and annotations.advance(ts):
            if annotations.stack:
                annotation = annotations.stack[-1]
                annotation_role = annotation_roles[name_id[annotation]]
            else:
                annotation, annotation_role = NONE, None
        if ts >= functions.due and functions.advance(ts):
            stack = functions.stack
            module_path = (
                "/".join([module_names[name_id[row]] for row in stack]) or None
            )
            module = module_ids.setdefault(module_path, len(module_ids))
            in_autograd = any(autograd_names[name_id[row]] for row in stack)
        position = bisect.bisect_right(iter_starts, ts) - 1
        if position >= 0 and ts <= iter_ends[position]:
            iteration_column[index] = position
        backward = in_autograd or op_backward

        role = annotation_role
        if role is _STEP:
            role = (
                _TEMPORARY
                if _freed_within(free_ts, step_windows)
                else _OPTIMIZER_STATE
            )
        elif role is None:
            if backward and (
                free_ts == NO_FREE or _freed_within(free_ts, gradient_windows)
            ):
                role = _GRADIENT
            elif op != NONE and free_ts != NO_FREE and free_ts <= op_end:
                # the op contains ts, so it contains [alloc_ts, free_ts]
                role = _TEMPORARY
            else:
                role = _ACTIVATION
        role_column[index] = role
        op_column[index] = op
        annotation_column[index] = annotation
        module_column[index] = module
        backward_column[index] = backward
    return AttributedColumns(
        blocks,
        spans,
        role_column,
        iteration_column,
        op_column,
        annotation_column,
        module_column,
        backward_column,
        list(module_ids),
    )


def operator_filter(
    attributed: AttributedColumns | Iterable[AttributedBlock],
) -> AttributedColumns:
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
    if not isinstance(attributed, AttributedColumns):
        attributed = AttributedColumns.from_items(attributed)
    kept = [
        row
        for row, (op, annotation) in enumerate(
            zip(attributed.op, attributed.annotation)
        )
        if op != NONE or annotation != NONE
    ]
    if len(kept) == len(attributed):
        return attributed
    return attributed.take(kept)
