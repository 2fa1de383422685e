"""Trace model: events, builder nesting, JSON round-trip, reader queries."""

import pytest

from repro.errors import TraceError, TraceSchemaError
from repro.trace.builder import TraceBuilder
from repro.trace.events import (
    EventCategory,
    MemoryEvent,
    SpanEvent,
    is_profiler_step,
    is_zero_grad,
)
from repro.trace.reader import Trace
from repro.trace.schema import trace_from_json, trace_to_json
from repro.trace.stats import summarize_trace


def build_simple_trace() -> Trace:
    builder = TraceBuilder(metadata={"model": "test"})
    builder.begin_span("ProfilerStep#0", EventCategory.USER_ANNOTATION, ts=0)
    builder.begin_span("nn.Module: fc", EventCategory.PYTHON_FUNCTION, ts=1)
    builder.begin_span("aten::addmm", EventCategory.CPU_OP, ts=2)
    builder.record_alloc(3, addr=0x1000, nbytes=1024)
    builder.end_span(10)
    builder.end_span(11)
    builder.record_free(12, addr=0x1000, nbytes=1024)
    builder.end_span(20)
    return builder.finish()


class TestSpanEvent:
    def test_contains_time(self):
        span = SpanEvent("op", EventCategory.CPU_OP, ts=10, dur=5)
        assert span.contains_time(10)
        assert span.contains_time(15)
        assert not span.contains_time(16)

    def test_contains_span(self):
        outer = SpanEvent("outer", EventCategory.PYTHON_FUNCTION, ts=0, dur=100)
        inner = SpanEvent("inner", EventCategory.CPU_OP, ts=10, dur=5)
        assert outer.contains_span(inner)
        assert not inner.contains_span(outer)

    def test_annotation_predicates(self):
        step = SpanEvent("ProfilerStep#2", EventCategory.USER_ANNOTATION, 0, 1)
        zg = SpanEvent("Optimizer.zero_grad#Adam", EventCategory.USER_ANNOTATION, 0, 1)
        assert is_profiler_step(step) and not is_profiler_step(zg)
        assert is_zero_grad(zg) and not is_zero_grad(step)

    def test_memory_event_sign_convention(self):
        alloc = MemoryEvent(ts=0, addr=1, nbytes=512)
        free = MemoryEvent(ts=1, addr=1, nbytes=-512)
        assert alloc.is_alloc and not alloc.is_free
        assert free.is_free and free.size == 512


class TestSpanColumns:
    def test_identical_events_compare_equal(self):
        assert SpanEvent("x", EventCategory.CPU_OP, 1, 2) == SpanEvent(
            "x", EventCategory.CPU_OP, 1, 2
        )
        assert MemoryEvent(ts=1, addr=2, nbytes=3) == MemoryEvent(
            ts=1, addr=2, nbytes=3
        )

    def test_builder_columns_equal_the_objects_they_view(self):
        trace = build_simple_trace()
        objects = Trace(spans=list(trace.spans), memory_events=[])
        assert objects.spans == trace.spans
        assert [e.name for e in trace.spans] == [
            "ProfilerStep#0",
            "nn.Module: fc",
            "aten::addmm",
        ]

    def test_one_index_builds_one_span_and_keeps_it(self):
        spans = build_simple_trace().spans
        op = spans[2]
        assert spans._rows is None and list(spans._picked) == [2]
        assert spans[-1] is op
        assert list(spans)[2] is op  # the full view reuses it

    def test_pickling_drops_the_view(self):
        import pickle

        spans = build_simple_trace().spans
        list(spans)
        copy = pickle.loads(pickle.dumps(spans))
        assert copy._rows is None and copy == spans


class TestBuilder:
    def test_nested_spans(self):
        trace = build_simple_trace()
        assert len(trace.spans) == 3
        assert len(trace.memory_events) == 2

    def test_unbalanced_end_raises(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.end_span(5)

    def test_finish_with_open_span_raises(self):
        builder = TraceBuilder()
        builder.begin_span("x", EventCategory.CPU_OP, ts=0)
        with pytest.raises(TraceError):
            builder.finish()

    def test_end_before_start_raises(self):
        builder = TraceBuilder()
        builder.begin_span("x", EventCategory.CPU_OP, ts=10)
        with pytest.raises(TraceError):
            builder.end_span(5)

    def test_close_open_spans_ends_them_innermost_first(self):
        builder = TraceBuilder()
        builder.begin_span("outer", EventCategory.USER_ANNOTATION, ts=0)
        builder.begin_span("inner", EventCategory.CPU_OP, ts=2)
        builder.close_open_spans(7)
        trace = builder.finish()
        assert [(e.name, e.ts, e.end) for e in trace.spans] == [
            ("outer", 0, 7),
            ("inner", 2, 7),
        ]

    def test_total_allocated_running_sum(self):
        builder = TraceBuilder()
        builder.begin_span("s", EventCategory.USER_ANNOTATION, ts=0)
        builder.record_alloc(1, addr=1, nbytes=100)
        builder.record_alloc(2, addr=2, nbytes=50)
        builder.record_free(3, addr=1, nbytes=100)
        builder.end_span(4)
        trace = builder.finish()
        totals = [e.total_allocated for e in trace.memory_events]
        assert totals == [100, 150, 50]

    def test_builder_rejects_use_after_finish(self):
        builder = TraceBuilder()
        builder.begin_span("x", EventCategory.USER_ANNOTATION, ts=0)
        builder.end_span(0)
        builder.finish()
        with pytest.raises(TraceError):
            builder.begin_span("y", EventCategory.USER_ANNOTATION, ts=1)

    def test_nonpositive_alloc_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.record_alloc(0, addr=1, nbytes=0)


class TestSchemaRoundTrip:
    def test_round_trip_preserves_events(self):
        trace = build_simple_trace()
        document = trace_to_json(trace.spans, trace.memory_events, trace.metadata)
        spans, memory_events, metadata = trace_from_json(document)
        assert spans == list(trace.spans)
        assert memory_events == list(trace.memory_events)
        assert metadata == {"model": "test"}

    def test_events_sorted_by_ts(self):
        trace = build_simple_trace()
        document = trace_to_json(trace.spans, trace.memory_events, {})
        timestamps = [e["ts"] for e in document["traceEvents"]]
        assert timestamps == sorted(timestamps)

    def test_file_round_trip(self, tmp_path):
        trace = build_simple_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = Trace.load(path)
        assert list(loaded.spans) == list(trace.spans)
        assert list(loaded.memory_events) == list(trace.memory_events)
        assert loaded == trace

    def test_malformed_document_raises(self):
        with pytest.raises(TraceSchemaError):
            trace_from_json({"nope": []})

    def test_unknown_phase_raises(self):
        with pytest.raises(TraceSchemaError):
            trace_from_json({"traceEvents": [{"ph": "Z", "ts": 0}]})

    def test_bad_span_payload_raises(self):
        with pytest.raises(TraceSchemaError):
            trace_from_json(
                {"traceEvents": [{"ph": "X", "cat": "not-a-category", "ts": 0, "name": "x"}]}
            )

    def test_wrong_version_raises(self):
        with pytest.raises(TraceSchemaError):
            trace_from_json({"schemaVersion": 99, "traceEvents": []})


class TestReaderQueries:
    def test_category_views(self, tiny_trace):
        assert tiny_trace.cpu_ops
        assert tiny_trace.python_functions
        assert tiny_trace.user_annotations

    def test_iterations_detected(self, tiny_trace):
        assert tiny_trace.num_iterations() == 3
        windows = tiny_trace.iterations()
        assert all(w.name.startswith("ProfilerStep#") for w in windows)
        assert [w.ts for w in windows] == sorted(w.ts for w in windows)

    def test_iteration_window_bounds(self, tiny_trace):
        with pytest.raises(TraceError):
            tiny_trace.iteration_window(99)

    def test_zero_grad_spans_per_iteration(self, tiny_trace):
        assert len(tiny_trace.zero_grad_spans()) == 3

    def test_optimizer_step_spans(self, tiny_trace):
        assert len(tiny_trace.optimizer_step_spans()) == 3

    def test_memory_events_in_window(self, tiny_trace):
        window = tiny_trace.iteration_window(0)
        events = list(tiny_trace.memory_events_in(window.ts, window.end))
        assert events
        assert all(window.ts <= e.ts <= window.end for e in events)

    def test_enclosing_spans(self, tiny_trace):
        event = tiny_trace.memory_events[len(tiny_trace.memory_events) // 2]
        stack = tiny_trace.enclosing_spans(
            event.ts, EventCategory.PYTHON_FUNCTION
        )
        # outermost first
        assert [s.ts for s in stack] == sorted(s.ts for s in stack)


class TestSummary:
    def test_summary_counts(self, tiny_trace):
        summary = summarize_trace(tiny_trace)
        assert summary.num_iterations == 3
        assert summary.num_memory_events == summary.num_allocs + summary.num_frees
        assert summary.peak_traced_bytes > 0
        assert summary.duration_us > 0

    def test_summary_as_dict(self, tiny_trace):
        data = summarize_trace(tiny_trace).as_dict()
        assert set(data) >= {"num_cpu_ops", "num_memory_events", "peak_traced_bytes"}
