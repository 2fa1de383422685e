"""The Analyzer: first stage of the xMem pipeline (paper §3.2).

Consumes the raw CPU profiling trace and produces a structured, temporally
ordered sequence of memory blocks with CPU lifecycles, each attributed to
its originating operator/component and classified by role (parameter,
batch data, activation, gradient, optimizer state, temporary) from the
trace structure alone — no cooperation from the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TraceError
from ..framework.tensor import TensorRole
from ..trace.events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    SpanEvent,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
)
from ..trace.reader import Trace
from .attribution import AttributedBlock, attribute_blocks, operator_filter
from .lifecycle import reconstruct_lifecycles


@dataclass
class AnalyzedTrace:
    """Analyzer output: classified blocks plus the loop structure."""

    trace: Trace
    blocks: list[AttributedBlock]
    iterations: list[SpanEvent]
    zero_grads: list[SpanEvent]
    optimizer_steps: list[SpanEvent]
    unmatched_frees: int = 0
    reused_addresses: int = 0
    dropped_blocks: int = 0
    #: distinct sizes of blocks allocated during Module.to — the model's
    #: parameter-tensor sizes, used by the optimizer-state filter (§3.3)
    parameter_sizes: set[int] = field(default_factory=set)

    def blocks_by_role(self, role: TensorRole) -> list[AttributedBlock]:
        return [b for b in self.blocks if b.role is role]

    def role_bytes(self) -> dict[TensorRole, int]:
        totals: dict[TensorRole, int] = {}
        for item in self.blocks:
            if item.role is not None:
                totals[item.role] = totals.get(item.role, 0) + item.block.size
        return totals


class Analyzer:
    """Parses profiling data into an attributed, classified block sequence."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def analyze(self, trace: Trace) -> AnalyzedTrace:
        """Run lifecycle reconstruction, attribution, and classification."""
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
        analyzed = AnalyzedTrace(
            trace=trace,
            blocks=kept,
            iterations=iterations,
            zero_grads=[e for e in annotations if is_zero_grad(e)],
            optimizer_steps=[e for e in annotations if is_optimizer_step(e)],
            unmatched_frees=report.unmatched_frees,
            reused_addresses=report.reused_addresses,
            dropped_blocks=dropped,
        )
        self._classify(analyzed)
        return analyzed

    # ------------------------------------------------------------------
    # role classification
    # ------------------------------------------------------------------
    def _classify(self, analyzed: AnalyzedTrace) -> None:
        """Assign a :class:`TensorRole` to every block from trace structure.

        Rules (matching the §3.3 orchestration categories):

        * allocated inside ``Module.to`` -> PARAMETER;
        * allocated inside ``dataloader.__next__`` -> BATCH_DATA;
        * allocated inside ``Optimizer.step`` and persisting beyond it ->
          OPTIMIZER_STATE (sizes cross-checked against parameter sizes);
        * allocated in the backward pass and either never freed or freed at
          an iteration boundary / inside a ``zero_grad`` window -> GRADIENT;
        * freed within its own operator window -> TEMPORARY;
        * everything else -> ACTIVATION.
        """
        zero_grad_windows = [
            (w.ts, w.end) for w in analyzed.zero_grads
        ]
        step_windows = [(w.ts, w.end) for w in analyzed.optimizer_steps]
        # The tail of each iteration — after the optimizer step, before the
        # ProfilerStep span closes — is where the CPU run's deferred
        # collection releases gradient buffers.
        cleanup_windows: list[tuple[int, int]] = []
        for window in analyzed.iterations:
            steps_inside = [
                s for s in analyzed.optimizer_steps
                if window.contains_span(s)
            ]
            start = max((s.end for s in steps_inside), default=window.ts)
            cleanup_windows.append((start, window.end))

        for item in analyzed.blocks:
            block = item.block
            name = item.annotation_name or ""
            if name == MODEL_TO_DEVICE:
                item.role = TensorRole.PARAMETER
                analyzed.parameter_sizes.add(block.size)
                continue
            if name == DATALOADER_NEXT:
                item.role = TensorRole.BATCH_DATA
                continue
            if name.startswith(ZERO_GRAD_PREFIX):
                item.role = TensorRole.TEMPORARY
                continue
            if name.startswith(OPTIMIZER_STEP_PREFIX):
                if self._freed_within(block, step_windows):
                    item.role = TensorRole.TEMPORARY
                else:
                    item.role = TensorRole.OPTIMIZER_STATE
                continue
            if item.backward and self._looks_like_gradient(
                block, zero_grad_windows, cleanup_windows
            ):
                item.role = TensorRole.GRADIENT
                continue
            if (
                item.op is not None
                and block.free_ts is not None
                and item.op.contains_interval(block.alloc_ts, block.free_ts)
            ):
                item.role = TensorRole.TEMPORARY
                continue
            item.role = TensorRole.ACTIVATION

    @staticmethod
    def _freed_within(block, windows: list[tuple[int, int]]) -> bool:
        if block.free_ts is None:
            return False
        return any(start <= block.free_ts <= end for start, end in windows)

    def _looks_like_gradient(
        self,
        block,
        zero_grad_windows: list[tuple[int, int]],
        cleanup_windows: list[tuple[int, int]],
    ) -> bool:
        """Backward-allocated block whose free aligns with gradient clearing.

        Parameter gradients are freed inside a ``zero_grad`` window (GPU
        semantics), in an iteration's cleanup tail (the CPU trace's
        deferred collection), or never (the final iteration).  Activation
        gradients die inside the backward pass itself and fall through.
        """
        if block.free_ts is None:
            return True
        if self._freed_within(block, zero_grad_windows):
            return True
        return self._freed_within(block, cleanup_windows)
