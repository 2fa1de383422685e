"""The Memory Orchestrator: second stage of the xMem pipeline (§3.3).

Refines the CPU-derived lifecycle of every block so that it reflects the
block's expected lifecycle on the target GPU:

1. **Model parameters** — persistent for the analysed window.
2. **Batch data** — lifecycle limited to its training iteration.
3. **Activations** — CPU timings retained (they approximate GPU timings).
4. **Gradients** — deallocation snapped to the ``optimizer.zero_grad()``
   call that clears them (the CPU trace releases them late, at the
   iteration boundary, because the profiler pins them).
5. **Optimizer state** — persistent from its first allocation.

Rules are pluggable (:class:`OrchestrationRule`) so new frameworks or
training-loop styles can add their own adjustments (paper §6.4).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..framework.tensor import TensorRole
from .analyzer import AnalyzedTrace
from .attribution import AttributedBlock


class EventKind(str, Enum):
    ALLOC = "alloc"
    FREE = "free"


@dataclass(frozen=True, slots=True)
class MemoryOp:
    """One replayable allocator operation."""

    ts: int
    kind: EventKind
    block_id: int
    size: int
    role: Optional[TensorRole] = None

    def sort_key(self) -> tuple[int, int, int]:
        # frees before allocs at equal timestamps: a GPU stream completes
        # pending releases before the next kernel's allocations
        kind_order = 0 if self.kind is EventKind.FREE else 1
        return (self.ts, kind_order, self.block_id)


@dataclass
class OrchestratedSequence:
    """Orchestrator output: the refined, replayable memory sequence."""

    events: list[MemoryOp]
    horizon: int  # timestamp at/after every event
    num_blocks: int
    persistent_bytes: int
    adjustments: dict[str, int] = field(default_factory=dict)
    #: the analyzer's per-role byte totals (keyed by role value) and its
    #: operator-filter drop count, carried so a cached simulation can
    #: report them without loading the analyzed trace
    role_bytes: dict[str, int] = field(default_factory=dict)
    dropped_blocks: int = 0

    def __post_init__(self) -> None:
        self._stream: Optional[tuple[tuple[int, bool, int, int], ...]] = None
        #: stable content identity, stamped by the pipeline's orchestrate
        #: stage (see :func:`sequence_fingerprint`)
        self.fingerprint: Optional[str] = None

    def __getstate__(self) -> dict:
        # the flat stream is derived state: rebuild it lazily after
        # unpickling instead of doubling every artifact-store blob
        state = self.__dict__.copy()
        state["_stream"] = None
        return state

    def total_alloc_bytes(self) -> int:
        return sum(e.size for e in self.events if e.kind is EventKind.ALLOC)

    def event_stream(self) -> tuple[tuple[int, bool, int, int], ...]:
        """Flat ``(ts, is_alloc, block_id, size)`` tuples in replay order.

        Computed once per sequence and cached, so a stage-cached sequence
        replayed under many allocator configurations pays the per-event
        attribute walk a single time.  Callers must not mutate ``events``
        after the stream has been materialized.
        """
        stream = self._stream
        if stream is None:
            alloc = EventKind.ALLOC
            stream = tuple(
                (e.ts, e.kind is alloc, e.block_id, e.size)
                for e in self.events
            )
            self._stream = stream
        return stream


def sequence_fingerprint(sequence: OrchestratedSequence) -> str:
    """Stable content address of a sequence (memoized on the instance).

    Sequences produced by the pipeline's orchestrate stage carry a
    fingerprint derived from the orchestrate cache key (deterministic
    across processes), so they are never re-hashed; caller-built
    sequences are hashed over their flat event stream once.  Never uses
    ``id()`` — object identity is reused after garbage collection, which
    would alias distinct sequences in a long-lived simulate cache.
    """
    cached = getattr(sequence, "fingerprint", None)
    if cached is not None:
        return cached
    lines = [f"{e}\n" for e in sequence.event_stream()]
    lines.append(
        f"h|{sequence.horizon}|{sequence.num_blocks}"
        f"|{sequence.persistent_bytes}\n"
    )
    digest = hashlib.sha256("".join(lines).encode("utf-8"))
    fingerprint = "content:" + digest.hexdigest()[:32]
    sequence.fingerprint = fingerprint
    return fingerprint


class OrchestrationRule:
    """One lifecycle-adjustment rule; returns a new free_ts (or None to
    keep the block persistent) when the rule applies, else NO_CHANGE."""

    NO_CHANGE = object()
    name = "rule"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        raise NotImplementedError


class ParameterRule(OrchestrationRule):
    """Rule 1: parameters are persistent across the analysed iterations."""

    name = "parameters_persistent"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        if item.role is TensorRole.PARAMETER:
            return None
        return self.NO_CHANGE


class BatchDataRule(OrchestrationRule):
    """Rule 2: batch data lives at most until its iteration boundary."""

    name = "batch_iteration_bound"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        if item.role is not TensorRole.BATCH_DATA:
            return self.NO_CHANGE
        boundary = self._iteration_end(item, analyzed)
        if boundary is None:
            return self.NO_CHANGE
        free_ts = item.block.free_ts
        if free_ts is None or free_ts > boundary:
            return boundary
        return self.NO_CHANGE

    @staticmethod
    def _iteration_end(
        item: AttributedBlock, analyzed: AnalyzedTrace
    ) -> Optional[int]:
        for window in analyzed.iterations:
            if window.contains_time(item.block.alloc_ts):
                return window.end
        return None


class GradientRule(OrchestrationRule):
    """Rule 4: snap gradient deallocation to the clearing zero_grad call.

    The matching call is the first ``zero_grad`` window that *starts after*
    the gradient was allocated and at/before the traced (late) free.  Tail
    gradients — allocated after the last zero_grad — stay persistent.
    """

    name = "gradient_zero_grad_alignment"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        if item.role is not TensorRole.GRADIENT:
            return self.NO_CHANGE
        starts = [w.ts for w in analyzed.zero_grads]
        index = bisect.bisect_right(starts, item.block.alloc_ts)
        if index >= len(analyzed.zero_grads):
            return None  # no later zero_grad: persists past the trace
        window = analyzed.zero_grads[index]
        traced_free = item.block.free_ts
        if traced_free is not None and traced_free < window.ts:
            # freed before the next zero_grad (an activation gradient
            # misclassified, or custom clearing) — trust the trace
            return self.NO_CHANGE
        return window.ts + max(1, window.dur // 2)


class OptimizerStateRule(OrchestrationRule):
    """Rule 5: optimizer state persists once allocated (why xMem profiles
    at least two iterations)."""

    name = "optimizer_state_persistent"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        if item.role is TensorRole.OPTIMIZER_STATE:
            return None
        return self.NO_CHANGE


DEFAULT_RULES: tuple[OrchestrationRule, ...] = (
    ParameterRule(),
    BatchDataRule(),
    GradientRule(),
    OptimizerStateRule(),
)


class MemoryOrchestrator:
    """Applies orchestration rules and emits the replayable sequence."""

    def __init__(self, rules: tuple[OrchestrationRule, ...] = DEFAULT_RULES):
        self.rules = rules

    def orchestrate(self, analyzed: AnalyzedTrace) -> OrchestratedSequence:
        """Refine lifecycles and produce the ordered event sequence."""
        events: list[MemoryOp] = []
        adjustments: dict[str, int] = {rule.name: 0 for rule in self.rules}
        horizon = 0
        persistent_bytes = 0
        for item in analyzed.blocks:
            free_ts = item.block.free_ts
            for rule in self.rules:
                outcome = rule.adjust(item, analyzed)
                if outcome is OrchestrationRule.NO_CHANGE:
                    continue
                if outcome != free_ts:
                    adjustments[rule.name] += 1
                free_ts = outcome
                break  # first applicable rule wins
            events.append(
                MemoryOp(
                    ts=item.block.alloc_ts,
                    kind=EventKind.ALLOC,
                    block_id=item.block.block_id,
                    size=item.block.size,
                    role=item.role,
                )
            )
            horizon = max(horizon, item.block.alloc_ts)
            if free_ts is None:
                persistent_bytes += item.block.size
            else:
                if free_ts < item.block.alloc_ts:
                    free_ts = item.block.alloc_ts + 1
                events.append(
                    MemoryOp(
                        ts=free_ts,
                        kind=EventKind.FREE,
                        block_id=item.block.block_id,
                        size=item.block.size,
                        role=item.role,
                    )
                )
                horizon = max(horizon, free_ts)
        events.sort(key=MemoryOp.sort_key)
        return OrchestratedSequence(
            events=events,
            horizon=horizon + 1,
            num_blocks=len(analyzed.blocks),
            persistent_bytes=persistent_bytes,
            adjustments=adjustments,
            role_bytes={
                role.value: size
                for role, size in analyzed.role_bytes().items()
            },
            dropped_blocks=analyzed.dropped_blocks,
        )


def raw_sequence(analyzed: AnalyzedTrace) -> OrchestratedSequence:
    """The un-orchestrated sequence (ablation: CPU lifecycles verbatim)."""
    return MemoryOrchestrator(rules=()).orchestrate(analyzed)
