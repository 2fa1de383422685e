"""The training engine: interprets a model plan as a training run.

One engine run executes ``model.to(device)``, then N training iterations
(forward, backward, optimizer step, gradient zeroing at the configured
position), driving every allocation and free through a
:class:`~repro.runtime.sink.MemorySink` and optionally emitting the
profiler trace through a :class:`~repro.trace.builder.TraceBuilder`.

Lifetime semantics implemented here:

* forward activations are freed when their last forward consumer has run,
  unless pinned by a save-for-backward;
* saved tensors are released as their saver's backward executes;
* activation gradients are allocated at first contribution and freed when
  the producing op's backward consumes them;
* parameter gradients persist until ``optimizer.zero_grad``;
* optimizer state is allocated inside the first ``optimizer.step`` and
  persists — why the paper profiles ≥ 2 iterations (§3.1 footnote 2);
* view/in-place/fused ops alias their input buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SimOutOfMemoryError
from ..framework.loss import CrossEntropyLoss
from ..framework.module import Module
from ..framework.optim.base import Optimizer
from ..framework.plan import ModulePlan, OpSpec, PlanContext
from ..framework.tensor import TensorMeta, TensorRole
from ..trace.builder import TraceBuilder
from ..trace.events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    PROFILER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    EventCategory,
)
from .backend import Backend, ExecOp
from .clock import VirtualClock
from .loop import POS0, POS1, TrainLoopConfig
from .sink import AllocationHandle, MemorySink


@dataclass
class RunResult:
    """Outcome of one engine run."""

    completed_iterations: int
    oom: bool
    oom_error: Optional[SimOutOfMemoryError] = None
    param_bytes: int = 0
    optimizer_state_bytes: int = 0


@dataclass
class _TensorState:
    """Live state of one forward tensor during an iteration."""

    handle: Optional[AllocationHandle] = None
    fwd_pending: int = 0
    pinned_by: set[int] = field(default_factory=set)
    alive: bool = False
    is_batch: bool = False


@dataclass
class _GradState:
    """Live state of one activation-gradient buffer during backward."""

    handle: Optional[AllocationHandle] = None


class TrainingEngine:
    """Drives a training run over a planned model."""

    def __init__(
        self,
        model: Module,
        input_meta: TensorMeta,
        label_meta: TensorMeta,
        optimizer: Optimizer,
        backend: Backend,
        sink: MemorySink,
        loop: TrainLoopConfig = TrainLoopConfig(),
        tracer: Optional[TraceBuilder] = None,
        clock: Optional[VirtualClock] = None,
        loss: Optional[Module] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.backend = backend
        self.sink = sink
        self.loop = loop
        self.tracer = tracer
        self.clock = clock or VirtualClock()
        self.input_meta = input_meta
        self.label_meta = label_meta

        ctx = PlanContext(input_meta, root="model")
        model(ctx)
        loss_module = loss or CrossEntropyLoss()
        loss_module(ctx)
        self.plan: ModulePlan = ctx.finish()
        self.params = list(model.parameters())

        self._exec: dict[int, ExecOp] = {
            op.op_id: backend.resolve(op) for op in self.plan.ops
        }
        self._alias = self._build_alias_map()
        self._inputs = self._resolve_inputs()
        self._consumers = self._build_consumers()
        self._pins = self._build_pins()
        self._meta = self._build_meta()

        # On the profiled CPU run, buffers released by
        # ``zero_grad(set_to_none=True)`` do not return to the host
        # allocator at the call site: the profiler holds references to the
        # recorded tensors and CPython reference cycles delay collection to
        # the iteration boundary.  The GPU run frees them at the call.
        # This is the CPU/GPU lifecycle gap the Orchestrator's gradient
        # rule (§3.3 rule 4) exists to repair.
        self._defer_grad_frees = tracer is not None

        # run-long state
        self._done_iterations = 0
        self._extra_saved: dict[int, list[AllocationHandle]] = {}
        self._deferred_grad_frees: list[AllocationHandle] = []
        self._param_handles: list[AllocationHandle] = []
        self._grad_handles: dict[int, AllocationHandle] = {}  # op_id -> grads
        self._opt_state_handles: list[AllocationHandle] = []
        self._library_state: dict[str, AllocationHandle] = {}
        self._pending_frees: list[tuple[int, AllocationHandle]] = []
        self._open_module_path: list[str] = []

    # ------------------------------------------------------------------
    # plan preprocessing
    # ------------------------------------------------------------------
    def _build_alias_map(self) -> dict[int, int]:
        """Map each op to the op whose buffer it shares (views/fusion)."""
        alias: dict[int, int] = {}

        def resolve(op_id: int) -> int:
            return alias.get(op_id, op_id)

        for op in self.plan.ops:
            exec_op = self._exec[op.op_id]
            if op.output is None or not exec_op.materialize_output:
                if op.inputs:
                    alias[op.op_id] = resolve(op.inputs[0])
        return alias

    def _resolve(self, op_id: int) -> int:
        return self._alias.get(op_id, op_id)

    def _resolve_inputs(self) -> dict[int, tuple[int, ...]]:
        resolved: dict[int, tuple[int, ...]] = {}
        for op in self.plan.ops:
            seen: list[int] = []
            for producer in op.inputs:
                target = self._resolve(producer)
                if target not in seen:
                    seen.append(target)
            resolved[op.op_id] = tuple(seen)
        return resolved

    def _build_consumers(self) -> dict[int, list[int]]:
        consumers: dict[int, list[int]] = {PlanContext.INPUT_OP_ID: []}
        for op in self.plan.ops:
            consumers.setdefault(self._resolve(op.op_id), [])
            for producer in self._inputs[op.op_id]:
                consumers.setdefault(producer, []).append(op.op_id)
        return consumers

    def _build_pins(self) -> dict[int, list[int]]:
        """tensor_id -> op_ids whose backward releases a pin on it."""
        pins: dict[int, list[int]] = {}
        for op in self.plan.ops:
            if op.saves_input:
                for producer in self._inputs[op.op_id]:
                    pins.setdefault(producer, []).append(op.op_id)
            if op.saves_output:
                pins.setdefault(self._resolve(op.op_id), []).append(op.op_id)
        return pins

    def _build_meta(self) -> dict[int, TensorMeta]:
        meta: dict[int, TensorMeta] = {PlanContext.INPUT_OP_ID: self.input_meta}
        for op in self.plan.ops:
            if op.op_id not in self._alias and op.output is not None:
                meta[op.op_id] = op.output
        return meta

    # ------------------------------------------------------------------
    # tracing helpers
    # ------------------------------------------------------------------
    def _begin(self, name: str, category: EventCategory, args: dict | None = None) -> None:
        if self.tracer is not None:
            self.tracer.begin_span(name, category, self.clock.now, args)

    def _end(self) -> None:
        if self.tracer is not None:
            self.tracer.end_span(self.clock.now)

    def _enter_module_path(self, path: str) -> None:
        """Open/close python_function spans to match the op's module path."""
        if self.tracer is None:
            return
        segments = path.split(".")
        common = 0
        for ours, theirs in zip(self._open_module_path, segments):
            if ours != theirs:
                break
            common += 1
        while len(self._open_module_path) > common:
            self._open_module_path.pop()
            self._end()
        while len(self._open_module_path) < len(segments):
            segment = segments[len(self._open_module_path)]
            self._open_module_path.append(segment)
            self._begin(
                f"nn.Module: {segment}", EventCategory.PYTHON_FUNCTION
            )
            self.clock.tick()

    def _leave_all_modules(self) -> None:
        while self._open_module_path:
            self._open_module_path.pop()
            self._end()

    # ------------------------------------------------------------------
    # allocation helpers
    # ------------------------------------------------------------------
    def _alloc(self, size: int, role: TensorRole, tag: str) -> AllocationHandle:
        self._flush_due_frees()
        return self.sink.alloc(size, role, self.clock.tick(), tag=tag)

    def _free(self, handle: AllocationHandle, delay_us: int = 0) -> None:
        if delay_us > 0:
            self._pending_frees.append((self.clock.now + delay_us, handle))
            return
        self.sink.free(handle, self.clock.tick())

    def _flush_due_frees(self) -> None:
        if not self._pending_frees:
            return
        now = self.clock.now
        due = [(ts, h) for ts, h in self._pending_frees if ts <= now]
        if not due:
            return
        self._pending_frees = [
            (ts, h) for ts, h in self._pending_frees if ts > now
        ]
        for _, handle in sorted(due, key=lambda pair: pair[0]):
            self.sink.free(handle, self.clock.tick())

    def _flush_all_frees(self) -> None:
        for _, handle in sorted(self._pending_frees, key=lambda pair: pair[0]):
            self.sink.free(handle, self.clock.tick())
        self._pending_frees = []

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the configured number of iterations; returns the result.

        An OOM raised by the sink aborts the run and is reported in the
        result rather than propagated.
        """
        try:
            self._model_to_device()
            for iteration in range(self.loop.iterations):
                self._run_iteration(iteration)
        except SimOutOfMemoryError as oom:
            self._open_module_path.clear()
            if self.tracer is not None:
                self.tracer.close_open_spans(self.clock.now)
            return RunResult(
                completed_iterations=self._done_iterations,
                oom=True,
                oom_error=oom,
                param_bytes=sum(h.size for h in self._param_handles),
                optimizer_state_bytes=sum(
                    h.size for h in self._opt_state_handles
                ),
            )
        return RunResult(
            completed_iterations=self.loop.iterations,
            oom=False,
            param_bytes=sum(h.size for h in self._param_handles),
            optimizer_state_bytes=sum(h.size for h in self._opt_state_handles),
        )

    def _model_to_device(self) -> None:
        self._begin(MODEL_TO_DEVICE, EventCategory.USER_ANNOTATION)
        for param in self.params:
            handle = self._alloc(
                param.nbytes, TensorRole.PARAMETER, tag=param.name
            )
            self._param_handles.append(handle)
        self.clock.advance(10)
        self._end()
        self.clock.tick()

    # ------------------------------------------------------------------
    # one iteration
    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        self._begin(
            f"{PROFILER_STEP_PREFIX}{iteration}", EventCategory.USER_ANNOTATION
        )
        if self.loop.zero_grad_position == POS1:
            self._zero_grad(iteration)
        tensors, batch_handles = self._load_batch()
        self._forward(tensors)
        if self.loop.zero_grad_position == POS0:
            self._zero_grad(iteration)
        grads = self._backward(tensors, iteration)
        self._optimizer_step(iteration)
        self._end_iteration_cleanup(tensors, grads, batch_handles)
        self.clock.tick()
        self._end()
        self._done_iterations = iteration + 1

    def _zero_grad(self, iteration: int) -> None:
        self._begin(
            f"{ZERO_GRAD_PREFIX}{self.optimizer.name}",
            EventCategory.USER_ANNOTATION,
        )
        self.clock.tick()
        if self.loop.set_to_none:
            for op_id in sorted(self._grad_handles):
                handle = self._grad_handles.pop(op_id)
                if self._defer_grad_frees:
                    self._deferred_grad_frees.append(handle)
                else:
                    self._free(handle)
        else:
            # in-place zeroing touches memory but neither allocates nor frees
            self.clock.advance(2)
        self.clock.advance(2)
        self._end()
        self.clock.tick()

    def _load_batch(self) -> tuple[dict[int, _TensorState], list[AllocationHandle]]:
        self._begin(DATALOADER_NEXT, EventCategory.USER_ANNOTATION)
        tensors: dict[int, _TensorState] = {}
        input_state = _TensorState(is_batch=True)
        input_state.handle = self._alloc(
            self.input_meta.nbytes, TensorRole.BATCH_DATA, tag="batch.input"
        )
        input_state.alive = True
        input_state.fwd_pending = len(
            self._consumers.get(PlanContext.INPUT_OP_ID, [])
        )
        tensors[PlanContext.INPUT_OP_ID] = input_state
        label_handle = self._alloc(
            self.label_meta.nbytes, TensorRole.BATCH_DATA, tag="batch.labels"
        )
        self.clock.advance(5)
        self._end()
        self.clock.tick()
        return tensors, [label_handle]

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _forward(self, tensors: dict[int, _TensorState]) -> None:
        for op in self.plan.ops:
            exec_op = self._exec[op.op_id]
            self._enter_module_path(op.module_path)
            self._begin(
                op.name,
                EventCategory.CPU_OP,
                args={"Sequence number": op.op_id},
            )
            workspace = None
            if exec_op.library_state is not None:
                tag, size = exec_op.library_state
                if tag not in self._library_state:
                    self._library_state[tag] = self._alloc(
                        size, TensorRole.TEMPORARY, tag=tag
                    )
            if exec_op.workspace_bytes > 0:
                workspace = self._alloc(
                    exec_op.workspace_bytes,
                    TensorRole.TEMPORARY,
                    tag=f"{op.name}.workspace",
                )
            target = self._resolve(op.op_id)
            if target == op.op_id and op.output is not None:
                state = _TensorState()
                state.handle = self._alloc(
                    op.output.nbytes, TensorRole.ACTIVATION, tag=op.module_path
                )
                state.alive = True
                state.fwd_pending = len(self._consumers.get(op.op_id, []))
                state.pinned_by = set(self._pins.get(op.op_id, []))
                tensors[op.op_id] = state
            # extra saved tensors (masks, indices, stats) are freed when
            # this op's backward runs
            for extra_index, extra in enumerate(op.extra_saved):
                handle = self._alloc(
                    extra.nbytes,
                    TensorRole.SAVED,
                    tag=f"{op.module_path}.saved{extra_index}",
                )
                self._extra_saved.setdefault(op.op_id, []).append(handle)
            self.clock.advance(exec_op.duration_us)
            if workspace is not None:
                self._free(workspace, delay_us=exec_op.free_delay_us)
            # release inputs whose last forward consumer has now run
            for producer in self._inputs[op.op_id]:
                state = tensors.get(producer)
                if state is None:
                    continue
                state.fwd_pending -= 1
                self._maybe_free_tensor(tensors, producer)
            self._end()
            self.clock.tick()
        self._leave_all_modules()

    def _maybe_free_tensor(
        self, tensors: dict[int, _TensorState], tensor_id: int
    ) -> None:
        state = tensors.get(tensor_id)
        if state is None or not state.alive:
            return
        if state.fwd_pending > 0 or state.pinned_by:
            return
        if state.is_batch:
            # batch data lives until the iteration boundary (dataloader
            # replaces it), not until its last consumer
            return
        assert state.handle is not None
        self._free(state.handle)
        state.alive = False
        state.handle = None

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def _backward(
        self, tensors: dict[int, _TensorState], iteration: int
    ) -> dict[int, _GradState]:
        self._begin("autograd::engine", EventCategory.PYTHON_FUNCTION)
        grads: dict[int, _GradState] = {}
        # seed gradient for the loss output
        output_id = self._resolve(self.plan.output_op_id)
        seed = _GradState()
        seed.handle = self._alloc(
            self._meta[output_id].nbytes
            if output_id in self._meta
            else 4,
            TensorRole.TEMPORARY,
            tag="grad.seed",
        )
        grads[output_id] = seed
        for op in reversed(self.plan.ops):
            if op.kind == "view":
                continue
            exec_op = self._exec[op.op_id]
            self._begin(
                f"autograd::{op.name}_backward",
                EventCategory.CPU_OP,
                args={"Sequence number": op.op_id, "Backward": True},
            )
            workspace = None
            if exec_op.backward_workspace_bytes > 0:
                workspace = self._alloc(
                    exec_op.backward_workspace_bytes,
                    TensorRole.TEMPORARY,
                    tag=f"{op.name}.bw_workspace",
                )
            # gradient buffers for the op's inputs (first contribution wins)
            for producer in self._inputs[op.op_id]:
                if producer == PlanContext.INPUT_OP_ID:
                    continue  # batch data requires no gradient
                if producer not in self._meta:
                    continue
                grad_state = grads.get(producer)
                if grad_state is None:
                    grad_state = _GradState()
                    grad_state.handle = self._alloc(
                        self._meta[producer].nbytes,
                        TensorRole.TEMPORARY,
                        tag=f"grad.activation.{producer}",
                    )
                    grads[producer] = grad_state
            # parameter gradients persist until zero_grad
            if op.param_bytes > 0 and op.op_id not in self._grad_handles:
                if self.loop.set_to_none or iteration == 0:
                    self._grad_handles[op.op_id] = self._alloc(
                        op.param_bytes,
                        TensorRole.GRADIENT,
                        tag=f"grad.param.{op.module_path}",
                    )
            self.clock.advance(exec_op.backward_duration_us)
            if workspace is not None:
                self._free(workspace, delay_us=exec_op.free_delay_us)
            # the gradient of this op's output is fully consumed once the
            # buffer's *producer* (the non-aliased op) has run its backward
            target = self._resolve(op.op_id)
            if target == op.op_id:
                grad_state = grads.get(target)
                if grad_state is not None and grad_state.handle is not None:
                    self._free(
                        grad_state.handle, delay_us=exec_op.free_delay_us
                    )
                    grad_state.handle = None
            # release save-for-backward pins held by this op
            self._release_pins(tensors, op)
            self._end()
            self.clock.tick()
        self._end()  # autograd::engine
        self.clock.tick()
        return grads

    def _release_pins(self, tensors: dict[int, _TensorState], op: OpSpec) -> None:
        for handle in self._extra_saved.pop(op.op_id, []):
            self._free(handle)
        pinned: list[int] = []
        if op.saves_input:
            pinned.extend(self._inputs[op.op_id])
        if op.saves_output:
            pinned.append(self._resolve(op.op_id))
        for tensor_id in pinned:
            state = tensors.get(tensor_id)
            if state is None:
                continue
            state.pinned_by.discard(op.op_id)
            self._maybe_free_tensor(tensors, tensor_id)

    # ------------------------------------------------------------------
    # optimizer
    # ------------------------------------------------------------------
    def _optimizer_step(self, iteration: int) -> None:
        self._begin(
            f"{OPTIMIZER_STEP_PREFIX}{self.optimizer.name}",
            EventCategory.USER_ANNOTATION,
        )
        self.clock.tick()
        if iteration == 0:
            for param in self.params:
                for state_name, state_meta in self.optimizer.state_tensors(
                    param.meta
                ):
                    handle = self._alloc(
                        state_meta.nbytes,
                        TensorRole.OPTIMIZER_STATE,
                        tag=f"opt.{param.name}.{state_name}",
                    )
                    self._opt_state_handles.append(handle)
        for param in self.params:
            workspace_bytes = self.optimizer.step_workspace_bytes(param.meta)
            if workspace_bytes > 0:
                workspace = self._alloc(
                    workspace_bytes,
                    TensorRole.TEMPORARY,
                    tag=f"opt.step.{param.name}",
                )
                self.clock.advance(1)
                self._free(workspace)
        self.clock.advance(5)
        self._end()
        self.clock.tick()

    # ------------------------------------------------------------------
    # iteration cleanup
    # ------------------------------------------------------------------
    def _end_iteration_cleanup(
        self,
        tensors: dict[int, _TensorState],
        grads: dict[int, _GradState],
        batch_handles: list[AllocationHandle],
    ) -> None:
        self._flush_all_frees()
        for handle in self._deferred_grad_frees:
            self._free(handle)
        self._deferred_grad_frees.clear()
        for state in tensors.values():
            if state.alive and state.handle is not None:
                self._free(state.handle)
                state.alive = False
        for grad_state in grads.values():
            if grad_state.handle is not None:
                self._free(grad_state.handle)
                grad_state.handle = None
        for handle in batch_handles:
            self._free(handle)
        self._extra_saved.clear()
