"""Analyzer, Orchestrator, and Simulator over real CPU traces."""

import pytest

from repro.core.analyzer import AnalyzedTrace, Analyzer
from repro.core.attribution import attribute_blocks, operator_filter
from repro.core.lifecycle import reconstruct_lifecycles
from repro.core.orchestrator import (
    EventKind,
    MemoryOrchestrator,
    OrchestratedSequence,
    MemoryOp,
    raw_sequence,
)
from repro.core.simulator import MemorySimulator
from repro.errors import TraceError
from repro.framework.tensor import TensorRole
from repro.trace.builder import TraceBuilder
from repro.trace.events import EventCategory, SpanEvent
from repro.units import MiB


@pytest.fixture(scope="module")
def analyzed(tiny_trace) -> AnalyzedTrace:
    return Analyzer().analyze(tiny_trace)


class TestAttribution:
    def test_blocks_get_operators(self, tiny_trace):
        report = reconstruct_lifecycles(tiny_trace.memory_events)
        attributed = attribute_blocks(tiny_trace, report.blocks)
        with_ops = [b for b in attributed if b.op is not None]
        assert len(with_ops) > len(attributed) * 0.5

    def test_module_paths_recovered(self, tiny_trace):
        report = reconstruct_lifecycles(tiny_trace.memory_events)
        attributed = attribute_blocks(tiny_trace, report.blocks)
        paths = {b.module_path for b in attributed if b.module_path}
        assert any("conv1" in p for p in paths)

    def test_backward_flag(self, tiny_trace):
        report = reconstruct_lifecycles(tiny_trace.memory_events)
        attributed = attribute_blocks(tiny_trace, report.blocks)
        assert any(b.backward for b in attributed)
        assert any(not b.backward for b in attributed)

    def test_iterations_assigned(self, tiny_trace):
        report = reconstruct_lifecycles(tiny_trace.memory_events)
        attributed = attribute_blocks(tiny_trace, report.blocks)
        iterations = {b.iteration for b in attributed}
        assert {0, 1, 2} <= iterations
        assert None in iterations  # Module.to happens before iteration 0

    def test_operator_filter_keeps_annotated(self, tiny_trace):
        report = reconstruct_lifecycles(tiny_trace.memory_events)
        attributed = attribute_blocks(tiny_trace, report.blocks)
        kept = operator_filter(attributed)
        assert kept
        for item in kept:
            assert item.op is not None or item.annotation is not None


class TestAnalyzer:
    def test_role_classification_covers_all_roles(self, analyzed):
        roles = {b.role for b in analyzed.blocks}
        assert TensorRole.PARAMETER in roles
        assert TensorRole.BATCH_DATA in roles
        assert TensorRole.GRADIENT in roles
        assert TensorRole.OPTIMIZER_STATE in roles
        assert TensorRole.ACTIVATION in roles
        assert TensorRole.TEMPORARY in roles

    def test_parameter_bytes_match_model(self, analyzed):
        from tests.conftest import TinyConvNet

        params = sum(
            b.block.size
            for b in analyzed.blocks_by_role(TensorRole.PARAMETER)
        )
        assert params == TinyConvNet().parameter_bytes()

    def test_optimizer_state_is_persistent_and_param_sized(self, analyzed):
        states = analyzed.blocks_by_role(TensorRole.OPTIMIZER_STATE)
        assert states
        params = sum(
            b.block.size
            for b in analyzed.blocks_by_role(TensorRole.PARAMETER)
        )
        assert sum(b.block.size for b in states) == 2 * params  # Adam

    def test_gradients_identified_every_iteration(self, analyzed):
        grads = analyzed.blocks_by_role(TensorRole.GRADIENT)
        iterations = {g.iteration for g in grads}
        assert {0, 1, 2} <= iterations

    def test_empty_trace_rejected(self):
        builder = TraceBuilder()
        builder.begin_span("ProfilerStep#0", EventCategory.USER_ANNOTATION, ts=0)
        builder.end_span(10)
        trace = builder.finish()
        with pytest.raises(TraceError):
            Analyzer().analyze(trace)

    def test_trace_without_steps_rejected(self):
        builder = TraceBuilder()
        builder.begin_span("x", EventCategory.CPU_OP, ts=0)
        builder.record_alloc(1, addr=1, nbytes=100)
        builder.end_span(2)
        trace = builder.finish()
        with pytest.raises(TraceError):
            Analyzer().analyze(trace)

    def test_role_bytes_accounting(self, analyzed):
        totals = analyzed.role_bytes()
        assert sum(totals.values()) == sum(
            b.block.size for b in analyzed.blocks if b.role is not None
        )


class TestOrchestrator:
    def test_parameters_become_persistent(self, analyzed):
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        param_ids = {
            b.block.block_id
            for b in analyzed.blocks_by_role(TensorRole.PARAMETER)
        }
        frees = {
            e.block_id for e in sequence.events if e.kind is EventKind.FREE
        }
        assert not (param_ids & frees)

    def test_optimizer_state_persistent(self, analyzed):
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        state_ids = {
            b.block.block_id
            for b in analyzed.blocks_by_role(TensorRole.OPTIMIZER_STATE)
        }
        frees = {
            e.block_id for e in sequence.events if e.kind is EventKind.FREE
        }
        assert not (state_ids & frees)

    def test_gradient_frees_snapped_into_zero_grad_windows(self, analyzed):
        """Rule 4: the CPU trace frees gradients late (iteration tail);
        the orchestrator realigns them with the zero_grad call."""
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        grad_ids = {
            b.block.block_id
            for b in analyzed.blocks_by_role(TensorRole.GRADIENT)
            if b.block.free_ts is not None
        }
        windows = [(w.ts, w.end) for w in analyzed.zero_grads]
        snapped = [
            e
            for e in sequence.events
            if e.kind is EventKind.FREE and e.block_id in grad_ids
        ]
        assert snapped
        for event in snapped:
            assert any(start <= event.ts <= end for start, end in windows)

    def test_adjustment_counters(self, analyzed):
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        # parameters were already persistent in the CPU trace (no change),
        # but gradient deallocations must have been realigned
        assert sequence.adjustments["parameters_persistent"] == 0
        assert sequence.adjustments["gradient_zero_grad_alignment"] > 0

    def test_raw_sequence_applies_no_rules(self, analyzed):
        sequence = raw_sequence(analyzed)
        assert sequence.adjustments == {}

    def test_events_sorted(self, analyzed):
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        keys = [e.sort_key() for e in sequence.events]
        assert keys == sorted(keys)

    def test_orchestrated_peak_below_raw_peak(self, analyzed):
        """Deferred-free repair lowers the replayed peak (POS1 traces)."""
        orchestrated = MemorySimulator().replay(
            MemoryOrchestrator().orchestrate(analyzed)
        )
        raw = MemorySimulator().replay(raw_sequence(analyzed))
        assert orchestrated.peak_reserved_bytes <= raw.peak_reserved_bytes


class TestOrchestratorEdges:
    """Synthetic AnalyzedTraces pin down the rule edge cases."""

    @staticmethod
    def make_analyzed(blocks, zero_grads=(), iterations=()):
        """An AnalyzedTrace from (role, alloc_ts, free_ts, size) tuples."""
        from repro.core.attribution import AttributedBlock
        from repro.core.lifecycle import MemoryBlock

        attributed = []
        for index, (role, alloc_ts, free_ts, size) in enumerate(blocks):
            item = AttributedBlock(
                block=MemoryBlock(
                    addr=index + 1,
                    size=size,
                    alloc_ts=alloc_ts,
                    free_ts=free_ts,
                )
            )
            item.role = role
            attributed.append(item)
        return AnalyzedTrace(
            trace=None,
            blocks=attributed,
            iterations=[
                SpanEvent("ProfilerStep", EventCategory.USER_ANNOTATION,
                          ts=start, dur=end - start)
                for start, end in iterations
            ],
            zero_grads=[
                SpanEvent("zero_grad", EventCategory.USER_ANNOTATION,
                          ts=start, dur=end - start)
                for start, end in zero_grads
            ],
            optimizer_steps=[],
        )

    def test_tail_gradient_after_last_zero_grad_stays_persistent(self):
        """Rule 4's tail case: a gradient allocated after the final
        zero_grad has no clearing call left — it must persist, and the
        realignment must be counted as an adjustment."""
        analyzed = self.make_analyzed(
            [(TensorRole.GRADIENT, 50, 60, MiB)],
            zero_grads=[(10, 20)],  # the only zero_grad ends before 50
        )
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        assert [e.kind for e in sequence.events] == [EventKind.ALLOC]
        assert sequence.persistent_bytes == MiB
        assert sequence.adjustments["gradient_zero_grad_alignment"] == 1

    def test_gradient_snapped_to_next_zero_grad(self):
        analyzed = self.make_analyzed(
            [(TensorRole.GRADIENT, 5, 95, MiB)],
            zero_grads=[(30, 40)],
        )
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        free = next(e for e in sequence.events if e.kind is EventKind.FREE)
        assert 30 <= free.ts <= 40  # snapped into the window, not ts=95
        assert sequence.adjustments["gradient_zero_grad_alignment"] == 1

    def test_gradient_freed_before_zero_grad_trusts_trace(self):
        """An activation gradient dying inside backward keeps its traced
        free — the rule must not stretch its lifetime to the zero_grad."""
        analyzed = self.make_analyzed(
            [(TensorRole.GRADIENT, 5, 10, MiB)],
            zero_grads=[(30, 40)],
        )
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        free = next(e for e in sequence.events if e.kind is EventKind.FREE)
        assert free.ts == 10
        assert sequence.adjustments["gradient_zero_grad_alignment"] == 0

    def test_adjustment_counters_count_only_changes(self):
        """A parameter the trace already left persistent is no adjustment;
        one with a traced free becomes persistent and counts."""
        analyzed = self.make_analyzed([
            (TensorRole.PARAMETER, 1, None, MiB),  # already persistent
            (TensorRole.PARAMETER, 2, 80, MiB),  # trace freed it late
        ])
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        assert sequence.adjustments["parameters_persistent"] == 1
        assert sequence.persistent_bytes == 2 * MiB
        assert not any(e.kind is EventKind.FREE for e in sequence.events)

    def test_raw_sequence_keeps_tail_gradient_lifecycle_verbatim(self):
        """The ablation path must not inherit rule 4: the CPU trace's own
        (late or absent) frees replay unchanged."""
        analyzed = self.make_analyzed(
            [
                (TensorRole.GRADIENT, 50, 60, MiB),  # traced free kept
                (TensorRole.GRADIENT, 70, None, MiB),  # traced persistent
            ],
            zero_grads=[(10, 20)],
        )
        sequence = raw_sequence(analyzed)
        assert sequence.adjustments == {}
        frees = [e for e in sequence.events if e.kind is EventKind.FREE]
        assert [e.ts for e in frees] == [60]
        assert sequence.persistent_bytes == MiB

    def test_raw_vs_orchestrated_peak_on_tail_gradients(self):
        """Persistent tail gradients are why POS0 raises the peak: the
        orchestrated replay must carry them, the raw replay must not."""
        blocks = [
            (TensorRole.GRADIENT, 50, 60, 8 * MiB),
            (TensorRole.ACTIVATION, 55, 58, 8 * MiB),
        ]
        analyzed = self.make_analyzed(blocks, zero_grads=[(10, 20)])
        orchestrated = MemorySimulator().replay(
            MemoryOrchestrator().orchestrate(analyzed)
        )
        raw = MemorySimulator().replay(raw_sequence(analyzed))
        # raw frees the gradient at ts=60; orchestration keeps it alive
        assert orchestrated.timeline.points[-1].allocated_bytes > (
            raw.timeline.points[-1].allocated_bytes
        )


class TestSimulator:
    def make_sequence(self, ops) -> OrchestratedSequence:
        events = [
            MemoryOp(ts=ts, kind=kind, block_id=bid, size=size)
            for ts, kind, bid, size in ops
        ]
        return OrchestratedSequence.from_ops(
            events, horizon=max(e.ts for e in events) + 1,
            num_blocks=len({e.block_id for e in events}),
            persistent_bytes=0,
        )

    def test_replay_tracks_peak(self):
        sequence = self.make_sequence([
            (1, EventKind.ALLOC, 1, 5 * MiB),
            (2, EventKind.ALLOC, 2, 5 * MiB),
            (3, EventKind.FREE, 1, 5 * MiB),
            (4, EventKind.FREE, 2, 5 * MiB),
        ])
        result = MemorySimulator().replay(sequence)
        assert not result.oom
        assert result.peak_allocated_bytes >= 10 * MiB
        assert result.peak_reserved_bytes >= result.peak_allocated_bytes

    def test_capacity_triggers_oom(self):
        sequence = self.make_sequence([
            (1, EventKind.ALLOC, 1, 30 * MiB),
            (2, EventKind.ALLOC, 2, 30 * MiB),
        ])
        result = MemorySimulator(capacity_bytes=40 * MiB).replay(sequence)
        assert result.oom
        assert result.oom_ts == 2

    def test_tensor_vs_segment_accounting(self):
        sequence = self.make_sequence([(1, EventKind.ALLOC, 1, 512)])
        result = MemorySimulator().replay(sequence)
        assert result.peak("tensor") == 512
        assert result.peak("segment") == 2 * MiB

    def test_unknown_accounting_mode(self):
        sequence = self.make_sequence([(1, EventKind.ALLOC, 1, 512)])
        result = MemorySimulator().replay(sequence)
        with pytest.raises(ValueError):
            result.peak("vibes")

    def test_free_of_dropped_block_skipped_after_oom(self):
        sequence = self.make_sequence([
            (1, EventKind.ALLOC, 1, 30 * MiB),
            (2, EventKind.ALLOC, 2, 30 * MiB),
            (3, EventKind.FREE, 2, 30 * MiB),
        ])
        result = MemorySimulator(capacity_bytes=40 * MiB).replay(sequence)
        assert result.oom  # and no InvalidFreeError from block 2's free

    def test_two_level_vs_single_level(self):
        """The reclaim chain lets a capped replay survive where the
        single-level (DNNMem-style) simulation declares OOM."""
        ops = [
            (1, EventKind.ALLOC, 1, 30 * MiB),
            (2, EventKind.FREE, 1, 30 * MiB),
            (3, EventKind.ALLOC, 2, 40 * MiB),
        ]
        sequence = self.make_sequence(ops)
        two_level = MemorySimulator(capacity_bytes=50 * MiB).replay(sequence)
        single = MemorySimulator(
            capacity_bytes=50 * MiB, two_level=False
        ).replay(sequence)
        assert not two_level.oom
        assert single.oom
