"""Mixed-precision re-estimation from an FP32 trace (paper §6.3).

The paper observes that across FP32/FP16 training only the *data type* of
tensors changes — shapes and the execution sequence are constant — so an
analyzed FP32 trace can be rescaled to estimate a lower-precision run
without re-profiling:

* activations, gradients, and batch float data scale by the itemsize
  ratio (4 -> 2 bytes for FP16);
* parameters and optimizer state scale only for a *pure* low-precision
  run; AMP-style mixed precision keeps FP32 master weights and optimizer
  state, and adds a half-precision copy of the parameters;
* integer tensors (embedding indices, masks, argmax indices) never scale
  — the conservative choice here keeps every TEMPORARY/SAVED block at
  full size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..framework.dtypes import DType
from ..framework.tensor import TensorRole
from .analyzer import AnalyzedTrace
from .orchestrator import MemoryOrchestrator, OrchestratedSequence

#: roles that hold floating-point compute data and scale with precision
_SCALED_ROLES = frozenset(
    {TensorRole.ACTIVATION, TensorRole.GRADIENT, TensorRole.BATCH_DATA}
)
_WEIGHT_ROLES = frozenset(
    {TensorRole.PARAMETER, TensorRole.OPTIMIZER_STATE}
)


@dataclass(frozen=True)
class PrecisionPlan:
    """How to rescale an FP32-analyzed trace to another precision."""

    target: DType = DType.float16
    #: "pure": everything in the target dtype;
    #: "amp": FP32 master weights + optimizer state, half-precision
    #:        activations/gradients plus a half parameter copy.
    mode: str = "amp"

    def __post_init__(self) -> None:
        if self.mode not in ("pure", "amp"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.target.itemsize >= DType.float32.itemsize:
            raise ValueError("target dtype must be narrower than float32")

    @property
    def ratio(self) -> float:
        return self.target.itemsize / DType.float32.itemsize


def rescale_sequence(
    analyzed: AnalyzedTrace,
    plan: PrecisionPlan,
    orchestrator: MemoryOrchestrator | None = None,
) -> OrchestratedSequence:
    """Orchestrate ``analyzed`` with block sizes rescaled per ``plan``.

    Returns a replayable sequence estimating the lower-precision run.
    """
    orchestrator = orchestrator or MemoryOrchestrator()
    sequence = orchestrator.orchestrate(analyzed)
    scale_by_block: dict[int, float] = {}
    extra_param_copy = 0
    for item in analyzed.blocks:
        role = item.role
        if role in _SCALED_ROLES:
            scale_by_block[item.block.block_id] = plan.ratio
        elif role in _WEIGHT_ROLES:
            if plan.mode == "pure":
                scale_by_block[item.block.block_id] = plan.ratio
            elif role is TensorRole.PARAMETER:
                # AMP keeps FP32 masters and adds a half-precision copy
                extra_param_copy += int(item.block.size * plan.ratio)
    events = []
    for event in sequence.events:
        scale = scale_by_block.get(event.block_id)
        if scale is None:
            events.append(event)
        else:
            new_size = max(1, int(event.size * scale))
            events.append(replace(event, size=new_size))
    persistent = sequence.persistent_bytes + (
        extra_param_copy if plan.mode == "amp" else 0
    )
    return OrchestratedSequence.from_ops(
        events,
        horizon=sequence.horizon,
        num_blocks=sequence.num_blocks,
        persistent_bytes=persistent,
        adjustments=dict(sequence.adjustments),
    )


def estimate_precision_peak(
    analyzed: AnalyzedTrace,
    plan: PrecisionPlan,
    amp_param_copy_at: str = "start",
) -> int:
    """Replay the rescaled sequence; returns the estimated peak in bytes.

    For AMP the half-precision parameter copy is injected as a persistent
    allocation at the start of the sequence.
    """
    from .simulator import MemorySimulator

    sequence = rescale_sequence(analyzed, plan)
    if plan.mode == "amp":
        from .orchestrator import EventKind, MemoryOp

        param_bytes = sum(
            int(item.block.size * plan.ratio)
            for item in analyzed.blocks
            if item.role is TensorRole.PARAMETER
        )
        if param_bytes > 0:
            first_ts = sequence.events[0].ts if sequence.events else 0
            copy_event = MemoryOp(
                ts=first_ts,
                kind=EventKind.ALLOC,
                block_id=-1,
                size=param_bytes,
                role=TensorRole.PARAMETER,
            )
            sequence = OrchestratedSequence.from_ops(
                [copy_event] + sequence.events,
                horizon=sequence.horizon,
                num_blocks=sequence.num_blocks + 1,
                persistent_bytes=sequence.persistent_bytes,
                adjustments=dict(sequence.adjustments),
            )
    return MemorySimulator().replay(sequence).peak_reserved_bytes
