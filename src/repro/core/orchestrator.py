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
from typing import Iterable, Optional

from ..framework.tensor import TensorRole
from .analyzer import AnalyzedTrace
from .attribution import AttributedBlock


class EventKind(str, Enum):
    ALLOC = "alloc"
    FREE = "free"


#: ``kind`` of a sequence row: frees (0) sort before allocs (1) at equal
#: timestamps — a GPU stream completes pending releases before the next
#: kernel's allocations
KIND_FREE = 0
KIND_ALLOC = 1

#: One replayable operation: ``(ts, kind, block_id, size, role)``.
Row = tuple[int, int, int, int, Optional[TensorRole]]


@dataclass(frozen=True, slots=True)
class MemoryOp:
    """One replayable allocator operation (the object view of a row)."""

    ts: int
    kind: EventKind
    block_id: int
    size: int
    role: Optional[TensorRole] = None

    def sort_key(self) -> tuple[int, int, int]:
        return self.row[:3]

    @property
    def row(self) -> Row:
        kind = KIND_FREE if self.kind is EventKind.FREE else KIND_ALLOC
        return (self.ts, kind, self.block_id, self.size, self.role)


@dataclass
class OrchestratedSequence:
    """Orchestrator output: the refined, replayable memory sequence.

    ``rows`` are :data:`Row` tuples in replay order, the one stored form;
    ``events`` is a :class:`MemoryOp` view of them, built on first use.
    """

    rows: list[Row]
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
        self._events: Optional[list[MemoryOp]] = None
        #: stable content identity, stamped by the pipeline's orchestrate
        #: stage (see :func:`sequence_fingerprint`)
        self.fingerprint: Optional[str] = None

    @classmethod
    def from_ops(cls, ops: Iterable[MemoryOp], **fields) -> "OrchestratedSequence":
        """A sequence replaying ``ops`` in the given order; ``fields`` are
        the remaining constructor arguments."""
        return cls(rows=[op.row for op in ops], **fields)

    def __getstate__(self) -> dict:
        # the object view is derived state: never part of a stored blob
        state = self.__dict__.copy()
        state["_events"] = None
        return state

    @property
    def events(self) -> list[MemoryOp]:
        """The rows as :class:`MemoryOp` objects (cached; do not mutate)."""
        events = self._events
        if events is None:
            alloc, free = EventKind.ALLOC, EventKind.FREE
            events = [
                MemoryOp(ts, alloc if kind else free, block_id, size, role)
                for ts, kind, block_id, size, role in self.rows
            ]
            self._events = events
        return events

    def total_alloc_bytes(self) -> int:
        return sum(row[3] for row in self.rows if row[1] == KIND_ALLOC)


def sequence_fingerprint(sequence: OrchestratedSequence) -> str:
    """Stable content address of a sequence (memoized on the instance).

    Sequences produced by the pipeline's orchestrate stage carry a
    fingerprint derived from the orchestrate cache key (deterministic
    across processes), so they are never re-hashed; caller-built
    sequences are hashed over their rows once.  Never uses ``id()`` —
    object identity is reused after garbage collection, which would
    alias distinct sequences in a long-lived simulate cache.
    """
    cached = getattr(sequence, "fingerprint", None)
    if cached is not None:
        return cached
    lines = [
        f"{(ts, kind == KIND_ALLOC, block_id, size)}\n"
        for ts, kind, block_id, size, _ in sequence.rows
    ]
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
    """Rule 2: batch data lives at most until the end of the iteration it
    was allocated in (the block's ``iteration``)."""

    name = "batch_iteration_bound"

    def adjust(self, item: AttributedBlock, analyzed: AnalyzedTrace):
        if item.role is not TensorRole.BATCH_DATA:
            return self.NO_CHANGE
        if item.iteration is None:
            return self.NO_CHANGE  # allocated outside every iteration
        boundary = analyzed.iterations[item.iteration].end
        free_ts = item.block.free_ts
        if free_ts is None or free_ts > boundary:
            return boundary
        return self.NO_CHANGE


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
        index = bisect.bisect_right(
            analyzed.zero_grad_starts, item.block.alloc_ts
        )
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
        rows: list[Row] = []
        append = rows.append
        rules = self.rules
        no_change = OrchestrationRule.NO_CHANGE
        adjustments: dict[str, int] = {rule.name: 0 for rule in rules}
        horizon = 0
        persistent_bytes = 0
        for item in analyzed.blocks:
            _, size, alloc_ts, free_ts, block_id = item.block
            role = item.role
            for rule in rules:
                outcome = rule.adjust(item, analyzed)
                if outcome is no_change:
                    continue
                if outcome != free_ts:
                    adjustments[rule.name] += 1
                free_ts = outcome
                break  # first applicable rule wins
            append((alloc_ts, KIND_ALLOC, block_id, size, role))
            if alloc_ts > horizon:
                horizon = alloc_ts
            if free_ts is None:
                persistent_bytes += size
            else:
                if free_ts < alloc_ts:
                    free_ts = alloc_ts + 1
                append((free_ts, KIND_FREE, block_id, size, role))
                if free_ts > horizon:
                    horizon = free_ts
        # block ids are unique, so the sort never compares past them
        rows.sort()
        return OrchestratedSequence(
            rows=rows,
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
