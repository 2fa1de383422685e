"""Allocator stats/timelines and orchestration-rule unit behaviour."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocator.stats import (
    StatCounter,
    TimelineRecorder,
    merge_timelines,
)
from repro.core.analyzer import AnalyzedTrace
from repro.core.attribution import AttributedBlock
from repro.core.lifecycle import MemoryBlock
from repro.core.orchestrator import (
    BatchDataRule,
    GradientRule,
    MemoryOrchestrator,
    OrchestrationRule,
    ParameterRule,
)
from repro.framework.tensor import TensorRole
from repro.trace.events import EventCategory, SpanEvent
from repro.trace.reader import Trace


class TestStatCounter:
    def test_increase_tracks_peak(self):
        counter = StatCounter()
        counter.increase(100)
        counter.increase(50)
        counter.decrease(120)
        assert counter.current == 30
        assert counter.peak == 150
        assert counter.allocated == 150
        assert counter.freed == 120

    def test_negative_current_rejected(self):
        counter = StatCounter()
        counter.increase(10)
        with pytest.raises(ValueError):
            counter.decrease(20)

    def test_reset_peak(self):
        counter = StatCounter()
        counter.increase(100)
        counter.decrease(100)
        counter.reset_peak()
        assert counter.peak == 0


class TestTimeline:
    def test_series_and_peaks(self):
        timeline = TimelineRecorder()
        timeline.record(1, 10, 100)
        timeline.record(2, 50, 200)
        timeline.record(3, 20, 200)
        assert timeline.peak_reserved() == 200
        assert timeline.peak_allocated() == 50
        ts, allocated, reserved = timeline.series()
        assert ts == [1, 2, 3]

    def test_downsample_keeps_peak(self):
        timeline = TimelineRecorder()
        for index in range(1000):
            reserved = 999 if index == 500 else index % 100
            timeline.record(index, 0, reserved)
        thinned = timeline.downsample(50)
        assert len(thinned) <= 1000
        assert thinned.peak_reserved() == 999

    def test_downsample_validation(self):
        with pytest.raises(ValueError):
            TimelineRecorder().downsample(0)

    def test_merge_orders_by_ts(self):
        a = TimelineRecorder()
        a.record(5, 0, 50)
        b = TimelineRecorder()
        b.record(1, 0, 10)
        merged = merge_timelines([a, b])
        assert [p.ts for p in merged.points] == [1, 5]

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(0, 10**9),
                st.integers(0, 10**9),
            ),
            min_size=1,
            max_size=200,
        )
    )
    # the Tensor peak sits between the samples a budget of 1 keeps, and
    # the Segment curve never rises after the first point
    @example(values=[(0, 100, 100), (1, 90, 80), (2, 90, 10), (3, 90, 90)])
    def test_downsample_never_raises_peak(self, values):
        timeline = TimelineRecorder()
        for ts, reserved, slack in sorted(values):
            # allocated <= reserved, as in any allocator state
            timeline.record(ts, max(0, reserved - slack), reserved)
        for budget in (1, 5, 50):
            thinned = timeline.downsample(budget)
            assert thinned.peak_reserved() == timeline.peak_reserved()
            assert thinned.peak_allocated() == timeline.peak_allocated()


def make_analyzed(blocks, iterations=(), zero_grads=()):
    """Minimal AnalyzedTrace for rule unit tests."""
    trace = Trace(spans=list(iterations) + list(zero_grads), memory_events=[])
    return AnalyzedTrace(
        trace=trace,
        blocks=blocks,
        iterations=list(iterations),
        zero_grads=list(zero_grads),
        optimizer_steps=[],
    )


def span(name, ts, dur, category=EventCategory.USER_ANNOTATION):
    return SpanEvent(name=name, category=category, ts=ts, dur=dur)


def attributed(role, alloc_ts, free_ts, iteration=None):
    block = MemoryBlock(addr=1, size=1024, alloc_ts=alloc_ts, free_ts=free_ts)
    item = AttributedBlock(block=block, iteration=iteration)
    item.role = role
    return item


class TestParameterRule:
    def test_applies_to_parameters_only(self):
        rule = ParameterRule()
        analyzed = make_analyzed([])
        param = attributed(TensorRole.PARAMETER, 1, 50)
        activation = attributed(TensorRole.ACTIVATION, 1, 50)
        assert rule.adjust(param, analyzed) is None
        assert rule.adjust(activation, analyzed) is OrchestrationRule.NO_CHANGE


class TestBatchDataRule:
    def test_clamps_to_iteration_end(self):
        iteration = span("ProfilerStep#0", 0, 100)
        analyzed = make_analyzed([], iterations=[iteration])
        late = attributed(TensorRole.BATCH_DATA, 10, 150, iteration=0)
        assert BatchDataRule().adjust(late, analyzed) == 100

    def test_keeps_earlier_free(self):
        iteration = span("ProfilerStep#0", 0, 100)
        analyzed = make_analyzed([], iterations=[iteration])
        early = attributed(TensorRole.BATCH_DATA, 10, 50, iteration=0)
        assert (
            BatchDataRule().adjust(early, analyzed)
            is OrchestrationRule.NO_CHANGE
        )

    def test_persistent_batch_clamped(self):
        iteration = span("ProfilerStep#0", 0, 100)
        analyzed = make_analyzed([], iterations=[iteration])
        leak = attributed(TensorRole.BATCH_DATA, 10, None, iteration=0)
        assert BatchDataRule().adjust(leak, analyzed) == 100


    def test_block_outside_every_iteration_untouched(self):
        iteration = span("ProfilerStep#0", 0, 100)
        analyzed = make_analyzed([], iterations=[iteration])
        setup = attributed(TensorRole.BATCH_DATA, 120, None)
        assert (
            BatchDataRule().adjust(setup, analyzed)
            is OrchestrationRule.NO_CHANGE
        )


class TestGradientRule:
    def test_snaps_to_next_zero_grad(self):
        zero_grad = span("Optimizer.zero_grad#Adam", 200, 10)
        analyzed = make_analyzed([], zero_grads=[zero_grad])
        gradient = attributed(TensorRole.GRADIENT, 50, 400)
        adjusted = GradientRule().adjust(gradient, analyzed)
        assert 200 <= adjusted <= 210

    def test_tail_gradient_persists(self):
        zero_grad = span("Optimizer.zero_grad#Adam", 10, 5)
        analyzed = make_analyzed([], zero_grads=[zero_grad])
        tail = attributed(TensorRole.GRADIENT, 50, None)
        assert GradientRule().adjust(tail, analyzed) is None

    def test_early_free_trusted(self):
        zero_grad = span("Optimizer.zero_grad#Adam", 200, 10)
        analyzed = make_analyzed([], zero_grads=[zero_grad])
        # freed before the next zero_grad — not a parameter gradient
        transient = attributed(TensorRole.GRADIENT, 50, 100)
        assert (
            GradientRule().adjust(transient, analyzed)
            is OrchestrationRule.NO_CHANGE
        )


class TestOrchestratorComposition:
    def test_rule_order_first_match_wins(self):
        iteration = span("ProfilerStep#0", 0, 100)
        analyzed = make_analyzed(
            [attributed(TensorRole.PARAMETER, 1, None)],
            iterations=[iteration],
        )
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        # persistent parameter: alloc event only
        assert len(sequence.events) == 1
        assert sequence.persistent_bytes == 1024

    def test_free_never_precedes_alloc(self):
        zero_grad = span("Optimizer.zero_grad#Adam", 5, 2)
        analyzed = make_analyzed(
            # gradient allocated *after* the only zero_grad: tail -> persists
            [attributed(TensorRole.GRADIENT, 10, 90)],
            zero_grads=[zero_grad],
        )
        sequence = MemoryOrchestrator().orchestrate(analyzed)
        seen_alloc = set()
        for event in sequence.events:
            from repro.core.orchestrator import EventKind

            if event.kind is EventKind.ALLOC:
                seen_alloc.add(event.block_id)
            else:
                assert event.block_id in seen_alloc


class TestBoundedTimeline:
    """The recorder keeps every sample; thinning is ``downsample()``'s."""

    @staticmethod
    def _fill(recorder, n=5000, seed=7):
        import random

        rng = random.Random(seed)
        allocated = 0
        for ts in range(n):
            allocated = max(0, allocated + rng.randint(-100, 120))
            recorder.record(ts, allocated, allocated + 50)

    def test_unbounded_by_default(self):
        recorder = TimelineRecorder()
        self._fill(recorder, n=300)
        assert len(recorder) == 300
