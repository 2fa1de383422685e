"""The Analyzer: first stage of the xMem pipeline (paper §3.2).

Consumes the raw CPU profiling trace and produces a structured, temporally
ordered sequence of memory blocks with CPU lifecycles, each attributed to
its originating operator/component and classified by role (parameter,
batch data, activation, gradient, optimizer state, temporary) from the
trace structure alone — no cooperation from the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import TraceError
from ..framework.tensor import ROLES, TensorRole
from ..trace.events import (
    SpanEvent,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
)
from ..trace.reader import Trace
from .attribution import (
    AttributedBlock,
    AttributedColumns,
    attribute_blocks,
    operator_filter,
)
from .lifecycle import reconstruct_lifecycles


@dataclass
class AnalyzedTrace:
    """Analyzer output: classified blocks plus the loop structure.

    ``blocks`` is held as :class:`AttributedColumns`; a list of
    :class:`AttributedBlock` records (tests, hand-built inputs) is
    converted once, the records becoming the view.
    """

    trace: Trace
    blocks: AttributedColumns
    iterations: list[SpanEvent]
    zero_grads: list[SpanEvent]
    optimizer_steps: list[SpanEvent]
    unmatched_frees: int = 0
    reused_addresses: int = 0
    dropped_blocks: int = 0
    #: distinct sizes of blocks allocated during Module.to — the model's
    #: parameter-tensor sizes, used by the optimizer-state filter (§3.3)
    parameter_sizes: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not isinstance(self.blocks, AttributedColumns):
            self.blocks = AttributedColumns.from_items(self.blocks)

    @cached_property
    def zero_grad_starts(self) -> list[int]:
        """Start of every ``zero_grad`` window, in order."""
        return [window.ts for window in self.zero_grads]

    def blocks_by_role(self, role: TensorRole) -> list[AttributedBlock]:
        blocks = self.blocks
        return [blocks[row] for row in blocks.rows_of(role)]

    def role_bytes(self) -> dict[TensorRole, int]:
        """Bytes per role, in the order each role first appears."""
        totals: dict[int, int] = {}
        for code, size in zip(self.blocks.role, self.blocks.blocks.size):
            if code >= 0:
                totals[code] = totals.get(code, 0) + size
        return {ROLES[code]: total for code, total in totals.items()}


class Analyzer:
    """Parses profiling data into an attributed, classified block sequence."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def analyze(self, trace: Trace) -> AnalyzedTrace:
        """Run lifecycle reconstruction, then the sweep that attributes and
        classifies every block (:func:`attribute_blocks`)."""
        if not trace.memory_events:
            raise TraceError("trace contains no memory events")
        # one scan for the loop markers, not one per kind
        annotations = sorted(trace.user_annotations, key=lambda e: e.ts)
        iterations = [e for e in annotations if is_profiler_step(e)]
        if not iterations:
            raise TraceError(
                "trace has no ProfilerStep annotations — cannot segment "
                "iterations"
            )
        report = reconstruct_lifecycles(trace.memory_events, strict=self.strict)
        attributed = attribute_blocks(trace, report.blocks)
        kept = operator_filter(attributed)
        dropped = len(attributed) - len(kept)
        return AnalyzedTrace(
            trace=trace,
            blocks=kept,
            iterations=iterations,
            zero_grads=[e for e in annotations if is_zero_grad(e)],
            optimizer_steps=[e for e in annotations if is_optimizer_step(e)],
            unmatched_frees=report.unmatched_frees,
            reused_addresses=report.reused_addresses,
            dropped_blocks=dropped,
            parameter_sizes={
                kept.blocks.size[row]
                for row in kept.rows_of(TensorRole.PARAMETER)
            },
        )
