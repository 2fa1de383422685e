"""Telemetry: spans, exporters, ledger, renderers, and driver identity.

The observability layer makes three promises worth pinning: wire
formats round-trip exactly (spans and ledger events survive
``as_dict``/JSON/``from_dict``), the span *tree shape* is a property of
the request path rather than the execution substrate (threads and
asyncio produce identical names and nesting for the same deterministic
trace), and the ledger records the same decision sequence regardless of
driver.  The deterministic trace keeps every fingerprint unique within
a wave — intra-wave duplicates race between dedup and cache-hit by
timing, which is real behavior but not a cross-driver invariant.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import XMemEstimator
from repro.service import (
    AsyncServiceGateway,
    EstimationService,
    ServiceGateway,
    ServiceMetrics,
    SyntheticEstimator,
    Telemetry,
    canonical_trace_trees,
    make_policy,
    render_loadtest_report,
    replay,
    replay_async,
)
from repro.service.metrics import latency_histogram
from repro.service.telemetry.exporters import (
    InMemorySpanExporter,
    JsonLinesSpanExporter,
    NullSpanExporter,
)
from repro.service.telemetry.ledger import AuditLedger, LedgerEvent
from repro.service.telemetry import ledger as ledger_events
from repro.service.telemetry.report import (
    render_histogram,
    render_shard_heat,
    render_trend_summary,
)
from repro.service.telemetry.spans import Span, Tracer
from repro.service.traffic import TrafficRequest, TrafficTrace
from repro.workload import RTX_3060, WorkloadConfig

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)

# JSON-safe building blocks for wire-format properties
_names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=24,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_attr_values = st.one_of(
    st.integers(-(2**31), 2**31), _floats, st.booleans(), _names
)
_attributes = st.dictionaries(_names, _attr_values, max_size=4)

spans = st.builds(
    Span,
    name=_names,
    trace_id=_names,
    span_id=_names,
    parent_id=st.one_of(st.none(), _names),
    start=_floats,
    end=st.one_of(st.none(), _floats),
    status=st.sampled_from(("ok", "error", "shed", "deadline")),
    attributes=_attributes,
)

events = st.builds(
    LedgerEvent,
    seq=st.integers(0, 2**31),
    ts=_floats,
    event=st.sampled_from(
        (
            ledger_events.ADMIT,
            ledger_events.SHED,
            ledger_events.DEDUP,
            ledger_events.CACHE_HIT,
            ledger_events.COMPUTED,
            ledger_events.DEADLINE,
        )
    ),
    cause=_names,
    fingerprint=_names,
    request_id=st.integers(0, 2**31),
    shard=st.one_of(st.none(), st.integers(0, 64)),
    worker=st.one_of(st.none(), _names),
    attributes=_attributes,
)


class TestSpanRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(span=spans)
    def test_as_dict_from_dict_is_identity(self, span):
        assert Span.from_dict(span.as_dict()) == span

    @settings(max_examples=80, deadline=None)
    @given(span=spans)
    def test_survives_json_cycle(self, span):
        payload = json.loads(json.dumps(span.as_dict(), sort_keys=True))
        restored = Span.from_dict(payload)
        assert restored.as_dict() == span.as_dict()


class TestLedgerEventRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(event=events)
    def test_as_dict_from_dict_is_identity(self, event):
        # attributes are compare-excluded; compare the full wire payload
        assert LedgerEvent.from_dict(event.as_dict()).as_dict() == event.as_dict()

    @settings(max_examples=80, deadline=None)
    @given(event=events)
    def test_survives_json_cycle(self, event):
        payload = json.loads(json.dumps(event.as_dict(), sort_keys=True))
        assert LedgerEvent.from_dict(payload).as_dict() == event.as_dict()


class TestTracer:
    def test_spans_nest_and_export_on_end(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter=exporter)
        root = tracer.start_trace("t1", name="request")
        child = tracer.start_span("estimate", parent=root)
        assert child.trace_id == "t1"
        assert child.parent_id == root.span_id
        assert exporter.spans == []  # nothing exported until close
        tracer.end(child)
        tracer.end(root, status="ok")
        assert [span.name for span in exporter.spans] == ["request", "estimate"][::-1]
        assert all(span.end is not None for span in exporter.spans)

    def test_end_is_idempotent(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter=exporter)
        span = tracer.start_trace("t1", name="request")
        tracer.end(span)
        first_end = span.end
        tracer.end(span, status="error")
        assert span.end == first_end
        assert span.status == "ok"
        assert len(exporter.spans) == 1

    def test_span_ids_are_unique(self):
        tracer = Tracer(exporter=NullSpanExporter())
        ids = {tracer.start_trace(f"t{i}", name="x").span_id for i in range(100)}
        assert len(ids) == 100

    def test_canonical_trees_sort_children_by_start(self):
        late = Span(name="b", trace_id="t", span_id="s2", parent_id="s0", start=2.0)
        early = Span(name="a", trace_id="t", span_id="s1", parent_id="s0", start=1.0)
        root = Span(name="root", trace_id="t", span_id="s0", parent_id=None, start=0.0)
        trees = canonical_trace_trees([late, root, early])
        assert trees == [("root", (("a", ()), ("b", ())))]

    def test_canonical_trees_treat_orphans_as_roots(self):
        orphan = Span(name="lost", trace_id="t", span_id="s9", parent_id="gone", start=0.0)
        assert canonical_trace_trees([orphan]) == [("lost", ())]


class TestAuditLedger:
    def _populate(self, ledger):
        ledger.record(ledger_events.ADMIT, cause="compute", fingerprint="f1", request_id=1)
        ledger.record(ledger_events.CACHE_HIT, cause="cache", fingerprint="f1", request_id=2)
        ledger.record(ledger_events.SHED, cause="queue_full", fingerprint="f2", request_id=3, shard=1)

    def test_query_by_fingerprint_event_and_shard(self):
        ledger = AuditLedger()
        self._populate(ledger)
        assert [e.event for e in ledger.events(fingerprint="f1")] == [
            ledger_events.ADMIT,
            ledger_events.CACHE_HIT,
        ]
        assert [e.fingerprint for e in ledger.events(event=ledger_events.SHED)] == ["f2"]
        assert [e.request_id for e in ledger.events(shard=1)] == [3]

    def test_summary_and_len(self):
        ledger = AuditLedger()
        self._populate(ledger)
        assert len(ledger) == 3
        assert ledger.summary() == {"admit": 1, "cache_hit": 1, "shed": 1}

    def test_max_events_keeps_most_recent(self):
        ledger = AuditLedger(max_events=2)
        self._populate(ledger)
        assert len(ledger) == 2
        assert [e.event for e in ledger.events()] == [
            ledger_events.CACHE_HIT,
            ledger_events.SHED,
        ]

    def test_jsonl_durability_and_load(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AuditLedger(path=str(path))
        self._populate(ledger)
        ledger.close()
        loaded = AuditLedger.load(str(path))
        assert [e.as_dict() for e in loaded.events()] == [
            e.as_dict() for e in ledger.events()
        ]

    def test_decision_sequence_orders_by_shard_layer_request(self):
        ledger = AuditLedger()
        ledger.record(
            ledger_events.ADMIT, cause="route", fingerprint="f1", request_id=0,
            shard=1, attributes={"layer": "gateway"},
        )
        ledger.record(ledger_events.ADMIT, cause="compute", fingerprint="f1", request_id=1, shard=0)
        ledger.record(ledger_events.COMPUTED, cause="estimator", fingerprint="f1", request_id=1, shard=0)
        assert ledger.decision_sequence() == [
            ("admit", "compute", "f1", 0),
            ("computed", "estimator", "f1", 0),
            ("admit", "route", "f1", 1),
        ]


def _deterministic_trace(waves: int = 3) -> TrafficTrace:
    """Unique fingerprints within each wave; repeats only across waves.

    Intra-wave duplicates resolve to dedup or cache-hit depending on
    scheduling; keeping each wave duplicate-free makes the ledger
    decision sequence a cross-driver invariant.
    """
    workloads = [WorkloadConfig("MobileNetV2", "sgd", size) for size in (1, 2, 4, 8)]
    requests = [
        TrafficRequest(workload=workload, device=RTX_3060, wave=wave)
        for wave in range(waves)
        for workload in workloads
    ]
    return TrafficTrace(scenario="handbuilt", seed=0, requests=tuple(requests))


def _run_threads(trace):
    telemetry = Telemetry(detail="full")
    with ServiceGateway(
        num_shards=2,
        estimator_factory=SyntheticEstimator,
        policy=make_policy("hash", 2, seed=0),
        telemetry=telemetry,
    ) as gateway:
        report = replay(trace, gateway)
    return report, telemetry


def _run_asyncio(trace):
    telemetry = Telemetry(detail="full")

    async def _go():
        gateway = AsyncServiceGateway(
            num_shards=2,
            estimator_factory=SyntheticEstimator,
            policy=make_policy("hash", 2, seed=0),
            telemetry=telemetry,
        )
        try:
            return await replay_async(trace, gateway)
        finally:
            await gateway.aclose()

    return asyncio.run(_go()), telemetry


class TestDriverIdentity:
    """Threads and asyncio drivers: same spans, same decisions.

    The procpool third of this invariant lives in
    ``test_service_procpool.py`` (its tests run in a dedicated CI lane).
    """

    def test_span_trees_identical_across_drivers(self):
        trace = _deterministic_trace()
        _, threads_t = _run_threads(trace)
        _, asyncio_t = _run_asyncio(trace)
        threads_trees = canonical_trace_trees(threads_t.spans())
        asyncio_trees = canonical_trace_trees(asyncio_t.spans())
        assert threads_trees == asyncio_trees
        assert len(threads_trees) == len(trace)
        # wave 0 computes, later waves short-circuit at the cache
        computed = [
            tree for tree in threads_trees
            if any(name == "estimate" for name, _ in tree[1][0][1])
        ]
        assert len(computed) == 4

    def test_ledger_decision_sequences_identical_across_drivers(self):
        trace = _deterministic_trace()
        report_a, threads_t = _run_threads(trace)
        report_b, asyncio_t = _run_asyncio(trace)
        assert report_a.answered == report_b.answered == len(trace)
        assert (
            threads_t.ledger.decision_sequence()
            == asyncio_t.ledger.decision_sequence()
        )
        assert threads_t.ledger.summary() == asyncio_t.ledger.summary()
        # wave 0: 4 computes; waves 1-2: 8 cache hits — no dedup races
        summary = threads_t.ledger.summary()
        assert summary["computed"] == 4
        assert summary["cache_hit"] == 8
        assert "dedup" not in summary


class TestStageSpans:
    @pytest.mark.slow
    def test_pipeline_stage_spans_attach_under_estimate(self):
        telemetry = Telemetry()
        with EstimationService(
            estimator=XMemEstimator(iterations=1), max_workers=1,
            telemetry=telemetry,
        ) as service:
            service.estimate(WORKLOAD, RTX_3060)
        spans = telemetry.spans()
        estimate = next(span for span in spans if span.name == "estimate")
        stage_names = [
            span.name for span in spans
            if span.name.startswith("stage:")
        ]
        assert stage_names  # the pipeline reported per-stage timings
        assert all(
            span.parent_id == estimate.span_id
            for span in spans if span.name.startswith("stage:")
        )
        tree = canonical_trace_trees(spans)[0]
        assert tree[0] == "request"


class TestHistogram:
    def test_latency_histogram_counts(self):
        histogram = latency_histogram(
            [0.00005, 0.0002, 0.0002, 5.0, 100.0],
            bounds=(0.0001, 0.001, 10.0),
        )
        assert histogram["bounds"] == [0.0001, 0.001, 10.0]
        assert histogram["counts"] == [1, 2, 1, 1]

    def test_empty_samples(self):
        histogram = latency_histogram([], bounds=(0.1,))
        assert histogram["counts"] == [0, 0]

    def test_service_metrics_as_dict_exposes_buckets(self):
        metrics = ServiceMetrics()
        metrics.record_computed(0.0002)
        metrics.record_cache_hit(0.3)
        payload = metrics.as_dict()
        histogram = payload["latency_seconds"]["histogram"]
        assert sum(histogram["counts"]) == 2
        assert len(histogram["counts"]) == len(histogram["bounds"]) + 1


class TestRenderers:
    def test_render_histogram_elides_empty_edges(self):
        text = render_histogram(
            {"bounds": [0.001, 0.01, 0.1, 1.0], "counts": [0, 3, 1, 0, 0]},
            title="latency",
        )
        lines = text.splitlines()
        assert lines[0] == "latency (4 samples):"
        assert len(lines) == 3  # only the two occupied buckets
        assert "#" in lines[1]

    def test_render_histogram_no_samples(self):
        assert "no samples" in render_histogram({"bounds": [0.1], "counts": [0, 0]})

    def test_render_shard_heat_accepts_list_and_dict_routed(self):
        shards = [
            {"service": {"requests": 4, "cache_hits": 2, "cache_hit_rate": 0.5,
                         "latency_seconds": {"p95": 0.002}}},
            {"requests": 1, "cache_hits": 0, "cache_hit_rate": 0.0,
             "latency_seconds": {"p95": None}},
        ]
        as_list = render_shard_heat(shards, [4, 1])
        as_dict = render_shard_heat(shards, {"0": 4, "1": 1})
        assert as_list == as_dict
        assert "2.00" in as_list  # p95 in ms

    def test_render_loadtest_report_full_panel(self):
        trace = _deterministic_trace()
        report, telemetry = _run_threads(trace)
        text = render_loadtest_report(
            {"scenario": "handbuilt", "policy": "hash", "driver": "threads",
             "report": report},
            ledger=telemetry.ledger,
            spans=telemetry.spans(),
        )
        assert "=== handbuilt / hash policy / threads driver ===" in text
        assert "shard heat:" in text
        assert "ledger decisions:" in text
        assert "cache_hit" in text
        assert "spans (" in text

    def test_render_trend_summary_ok_and_regression(self):
        trend = {
            "metrics": {
                "warm_speedup": {
                    "baseline": 10.0, "current": 9.0,
                    "delta": -0.1, "verdict": "ok",
                },
            },
            "regressions": [],
        }
        ok_text = render_trend_summary(trend)
        assert "ok: all metrics within tolerance" in ok_text
        assert "-10.0%" in ok_text
        trend["regressions"] = ["warm_speedup"]
        assert "REGRESSIONS: warm_speedup" in render_trend_summary(trend)

    def test_render_trend_summary_skipped(self):
        text = render_trend_summary({"skipped": "no baseline for grid"})
        assert "SKIPPED: no baseline for grid" in text


class TestTelemetryBundle:
    def test_jsonl_paths_capture_durably(self, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        telemetry = Telemetry(
            spans_path=str(spans_path), ledger_path=str(ledger_path)
        )
        with EstimationService(
            estimator=SyntheticEstimator(), telemetry=telemetry
        ) as service:
            service.estimate(WORKLOAD, RTX_3060)
            service.estimate(WORKLOAD, RTX_3060)  # cache hit
        telemetry.close()
        spans = JsonLinesSpanExporter.read(str(spans_path))
        assert canonical_trace_trees(spans)  # parses back into trees
        loaded = AuditLedger.load(str(ledger_path))
        assert loaded.summary() == telemetry.ledger.summary()
        assert loaded.summary()["cache_hit"] == 1

    def test_disabled_telemetry_costs_nothing(self):
        with EstimationService(estimator=SyntheticEstimator()) as service:
            result = service.estimate(WORKLOAD, RTX_3060)
        assert result is not None
