"""DNNMem baseline (Gao et al., ESEC/FSE 2020) — static analysis.

Reimplemented from the paper's description (as the xMem authors also had
to do): DNNMem walks the model's static computation graph, derives tensor
lifetimes from graph liveness, and replays them through a basic BFC
allocator simulation.

Faithful limitations (xMem paper §5.1):

* the static graph carries no optimizer-phase information, so stateful
  optimizers' persistent buffers are missing — accurate for SGD, badly
  under for Adam-family;
* no knowledge of code-level loop structure: gradients are assumed to die
  at the iteration boundary, so the ``zero_grad`` placement effect
  (Fig. 1) is invisible;
* runtime workspaces (im2col, cuDNN algorithms, cuBLAS handles) do not
  exist in the graph;
* the allocator simulation is single-level: no device allocator, no
  cached-segment reclamation before OOM.
"""

from __future__ import annotations

import time

from ..core.orchestrator import EventKind, MemoryOp, OrchestratedSequence
from ..core.result import EstimationResult
from ..core.simulator import MemorySimulator
from ..framework.loss import CrossEntropyLoss
from ..framework.plan import ModulePlan, PlanContext
from ..models.registry import get_model_spec
from ..workload import DeviceSpec, WorkloadConfig
from .base import Estimator


class DNNMemEstimator(Estimator):
    """Static computation-graph analysis with a basic BFC simulation."""

    name = "DNNMem"

    def __init__(
        self,
        iterations: int = 3,
        fragmentation_margin: float = 0.05,
        cuda_context_bytes: int = 0,
    ):
        """``cuda_context_bytes`` models DNNMem's explicit CUDA-context
        budget; it defaults to 0 here because this repository accounts all
        peaks in job-only terms (the framework/context overhead M_fm lives
        in :class:`~repro.workload.DeviceSpec`, outside every estimate)."""
        self.iterations = iterations
        self.fragmentation_margin = fragmentation_margin
        self.cuda_context_bytes = cuda_context_bytes

    def supports(self, workload: WorkloadConfig) -> bool:
        return True

    def estimate(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> EstimationResult:
        start = time.perf_counter()
        spec = get_model_spec(workload.model)
        model = spec.build()
        ctx = PlanContext(spec.input_meta(workload.batch_size), root="model")
        model(ctx)
        CrossEntropyLoss()(ctx)
        plan = ctx.finish()
        # The workload's optimizer is deliberately unused: the static graph
        # does not extend into the optimizer step, so its state memory is
        # not modelled (the paper's key criticism of this approach).
        sequence = self._graph_sequence(
            plan,
            param_bytes=model.parameter_bytes(),
            batch_bytes=spec.input_meta(workload.batch_size).nbytes
            + spec.label_meta(workload.batch_size).nbytes,
        )
        simulation = MemorySimulator(two_level=False).replay(sequence)
        # DNNMem explicitly budgets the CUDA context and adds a
        # fragmentation allowance on top of its BFC simulation (Gao et
        # al. §4); these are its only hedges against runtime effects.
        peak = int(
            simulation.peak_reserved_bytes * (1 + self.fragmentation_margin)
            + self.cuda_context_bytes
        )
        runtime = time.perf_counter() - start
        return EstimationResult(
            estimator=self.name,
            workload=workload,
            device=device,
            peak_bytes=peak,
            runtime_seconds=runtime,
            curve=simulation.timeline,
            detail={
                "num_events": simulation.num_events,
                "modeled_iterations": self.iterations,
            },
        )

    # ------------------------------------------------------------------
    # static graph walk
    # ------------------------------------------------------------------
    def _graph_sequence(
        self, plan: ModulePlan, param_bytes: int, batch_bytes: int
    ) -> OrchestratedSequence:
        """Synthesize a memory-event sequence from graph liveness alone."""
        events: list[MemoryOp] = []
        next_id = 1
        ts = 0

        def emit(kind: EventKind, block_id: int, size: int) -> int:
            nonlocal ts
            ts += 1
            events.append(
                MemoryOp(ts=ts, kind=kind, block_id=block_id, size=size)
            )
            return block_id

        # weights: persistent
        weights_id = next_id
        next_id += 1
        emit(EventKind.ALLOC, weights_id, max(1, param_bytes))

        # alias map for view/in-place ops (graph-visible)
        alias: dict[int, int] = {}

        def resolve(op_id: int) -> int:
            return alias.get(op_id, op_id)

        for op in plan.ops:
            if op.output is None or op.inplace:
                if op.inputs:
                    alias[op.op_id] = resolve(op.inputs[0])
        consumers: dict[int, int] = {}
        pins: dict[int, int] = {}
        for op in plan.ops:
            for producer in {resolve(i) for i in op.inputs}:
                consumers[producer] = consumers.get(producer, 0) + 1
            if op.saves_input:
                for producer in {resolve(i) for i in op.inputs}:
                    pins[producer] = pins.get(producer, 0) + 1
            if op.saves_output:
                target = resolve(op.op_id)
                pins[target] = pins.get(target, 0) + 1

        grads_total = sum(op.param_bytes for op in plan.ops)
        for _ in range(self.iterations):
            iter_block_base = next_id
            next_id += 100_000
            batch_block = iter_block_base
            emit(EventKind.ALLOC, batch_block, max(1, batch_bytes))
            live: dict[int, tuple[int, int]] = {}  # tensor -> (block, size)
            remaining = dict(consumers)
            pinned = dict(pins)
            extra_blocks: dict[int, list[tuple[int, int]]] = {}

            def block_for(tensor_id: int) -> int:
                return iter_block_base + 1 + tensor_id

            # forward
            for op in plan.ops:
                target = resolve(op.op_id)
                if target == op.op_id and op.output is not None:
                    emit(EventKind.ALLOC, block_for(op.op_id), op.output.nbytes)
                    live[op.op_id] = (block_for(op.op_id), op.output.nbytes)
                for index, extra in enumerate(op.extra_saved):
                    block_id = iter_block_base + 50_000 + op.op_id * 8 + index
                    emit(EventKind.ALLOC, block_id, extra.nbytes)
                    extra_blocks.setdefault(op.op_id, []).append(
                        (block_id, extra.nbytes)
                    )
                for producer in {resolve(i) for i in op.inputs}:
                    if producer not in live:
                        continue
                    remaining[producer] = remaining.get(producer, 0) - 1
                    if remaining[producer] <= 0 and pinned.get(producer, 0) == 0:
                        block_id, _ = live.pop(producer)
                        emit(EventKind.FREE, block_id, 0)

            # gradients accumulate over the backward pass; the graph shows
            # them dying with the iteration
            grads_block = iter_block_base + 90_000
            if grads_total > 0:
                emit(EventKind.ALLOC, grads_block, grads_total)
            for op in reversed(plan.ops):
                if op.kind == "view":
                    continue
                for block_id, _ in extra_blocks.pop(op.op_id, []):
                    emit(EventKind.FREE, block_id, 0)
                released: list[int] = []
                if op.saves_input:
                    released.extend({resolve(i) for i in op.inputs})
                if op.saves_output:
                    released.append(resolve(op.op_id))
                for tensor_id in released:
                    if tensor_id not in live:
                        continue
                    pinned[tensor_id] = pinned.get(tensor_id, 1) - 1
                    if (
                        pinned[tensor_id] <= 0
                        and remaining.get(tensor_id, 0) <= 0
                    ):
                        block_id, _ = live.pop(tensor_id)
                        emit(EventKind.FREE, block_id, 0)

            # iteration boundary: batch, leftovers, gradients die
            emit(EventKind.FREE, batch_block, 0)
            for tensor_id in list(live):
                block_id, _ = live.pop(tensor_id)
                emit(EventKind.FREE, block_id, 0)
            if grads_total > 0:
                emit(EventKind.FREE, grads_block, 0)

        # rebuild sizes for FREE events (MemoryOp carries size for reports)
        sizes: dict[int, int] = {}
        fixed: list[MemoryOp] = []
        for event in events:
            if event.kind is EventKind.ALLOC:
                sizes[event.block_id] = event.size
                fixed.append(event)
            else:
                fixed.append(
                    MemoryOp(
                        ts=event.ts,
                        kind=EventKind.FREE,
                        block_id=event.block_id,
                        size=sizes.get(event.block_id, 0),
                    )
                )
        return OrchestratedSequence.from_ops(
            fixed,
            horizon=ts + 1,
            num_blocks=len(sizes),
            persistent_bytes=param_bytes,
        )
