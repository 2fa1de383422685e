"""Stage-cache correctness: golden equivalence, invalidation, fast paths.

The staged pipeline (:mod:`repro.core.pipeline`) must be invisible in the
numbers: a stage-cached estimate is byte-identical to a cold run, and any
knob that feeds a stage — profiling iterations, the rule set, the
allocator configuration — must invalidate exactly the artifacts derived
from it, nothing less.
"""

import ast
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.allocator.constants import DEFAULT_CONFIG
from repro.core.estimator import XMemEstimator
from repro.core.pipeline import (
    ANALYZE,
    ORCHESTRATE,
    PROFILE,
    SIMULATE,
    STAGES,
    EstimationPipeline,
    PipelineCache,
    trace_fingerprint,
)
from repro.core.orchestrator import sequence_fingerprint
from repro.core.simulator import MemorySimulator
from repro.runtime.profiler import profile_on_cpu
from repro.trace.builder import TraceBuilder
from repro.trace.events import EventCategory, MemoryEvent, SpanEvent
from repro.trace.reader import Trace
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

from tests.conftest import tiny_spec

WORKLOAD = WorkloadConfig("MobileNetV3Small", "sgd", 4)
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_estimator(stage_cache=True, **knobs) -> XMemEstimator:
    return XMemEstimator(iterations=2, stage_cache=stage_cache, **knobs)


class TestGoldenEquivalence:
    """Stage-cached estimates == cold estimates, across every knob."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"orchestrate": False},
            {"two_level": False},
            {"account": "tensor"},
            {"allocator_config": replace(DEFAULT_CONFIG, allow_split=False)},
        ],
        ids=["default", "no_orchestrator", "single_level", "tensor",
             "no_split"],
    )
    def test_warm_estimate_is_byte_identical(self, knobs):
        cold = make_estimator(stage_cache=False, **knobs).estimate(
            WORKLOAD, RTX_3060
        )
        warm_estimator = make_estimator(**knobs)
        first = warm_estimator.estimate(WORKLOAD, RTX_3060)
        second = warm_estimator.estimate(WORKLOAD, RTX_3060)  # fully warm
        assert first.peak_bytes == cold.peak_bytes == second.peak_bytes
        assert first.detail == cold.detail == second.detail
        assert second.stage_cached == {
            PROFILE: True,
            ANALYZE: True,
            ORCHESTRATE: True,
            SIMULATE: False,
        }

    @pytest.mark.parametrize(
        "model,optimizer", [("MobileNetV3Small", "adam"), ("MnasNet", "sgd")]
    )
    def test_across_models(self, model, optimizer):
        workload = WorkloadConfig(model, optimizer, 4)
        cold = make_estimator(stage_cache=False).estimate(workload, RTX_3060)
        estimator = make_estimator()
        estimator.estimate(workload, RTX_3060)
        warm = estimator.estimate(workload, RTX_3060)
        assert warm.peak_bytes == cold.peak_bytes
        assert warm.detail == cold.detail

    def test_curve_fast_path_same_peaks(self):
        with_curve = make_estimator().estimate(WORKLOAD, RTX_3060)
        without = make_estimator(curve=False).estimate(WORKLOAD, RTX_3060)
        assert without.curve is None
        assert with_curve.curve is not None
        assert without.peak_bytes == with_curve.peak_bytes
        assert without.detail == with_curve.detail


class TestUpstreamReuse:
    """Requests differing only in simulation knobs re-run only simulate."""

    def test_allocator_ablation_reuses_trace_and_sequence(self):
        cache = PipelineCache()
        default = make_estimator(stage_cache=cache)
        no_split = make_estimator(
            stage_cache=cache,
            allocator_config=replace(DEFAULT_CONFIG, allow_split=False),
        )
        default.estimate(WORKLOAD, RTX_3060)
        ablated = no_split.estimate(WORKLOAD, RTX_3060)
        assert ablated.stage_cached[PROFILE]
        assert ablated.stage_cached[ANALYZE]
        assert ablated.stage_cached[ORCHESTRATE]
        assert not ablated.stage_cached[SIMULATE]
        assert cache.traces.stats()["misses"] == 1
        assert cache.sequences.stats()["misses"] == 1

    def test_two_level_ablation_reuses_upstream(self):
        cache = PipelineCache()
        make_estimator(stage_cache=cache).estimate(WORKLOAD, RTX_3060)
        single = make_estimator(
            stage_cache=cache, two_level=False
        ).estimate(WORKLOAD, RTX_3060)
        assert single.stage_cached[ORCHESTRATE]
        assert cache.traces.stats()["misses"] == 1
        # the knob still took effect downstream of the shared artifacts
        cold = make_estimator(
            stage_cache=False, two_level=False
        ).estimate(WORKLOAD, RTX_3060)
        assert single.peak_bytes == cold.peak_bytes

    def test_device_change_reuses_everything_upstream(self):
        estimator = make_estimator()
        first = estimator.estimate(WORKLOAD, RTX_3060)
        other = estimator.estimate(WORKLOAD, RTX_4060)
        assert other.stage_cached[PROFILE]
        assert other.stage_cached[ANALYZE]
        assert other.stage_cached[ORCHESTRATE]
        # the simulation is device-independent; only the OOM verdict moves
        assert other.peak_bytes == first.peak_bytes


class TestInvalidation:
    """Changed upstream knobs must never serve stale downstream artifacts."""

    def test_rule_set_invalidates_sequences_not_traces(self):
        cache = PipelineCache()
        full = make_estimator(stage_cache=cache)
        raw = make_estimator(stage_cache=cache, orchestrate=False)
        orchestrated = full.estimate(WORKLOAD, RTX_3060)
        unorchestrated = raw.estimate(WORKLOAD, RTX_3060)
        # trace + analysis shared, sequence recomputed per rule set
        assert cache.traces.stats()["misses"] == 1
        assert cache.analyses.stats()["misses"] == 1
        assert cache.sequences.stats()["misses"] == 2
        assert unorchestrated.detail["rule_adjustments"] == {}
        assert orchestrated.detail["rule_adjustments"] != {}
        cold = make_estimator(
            stage_cache=False, orchestrate=False
        ).estimate(WORKLOAD, RTX_3060)
        assert unorchestrated.peak_bytes == cold.peak_bytes
        assert unorchestrated.detail == cold.detail

    def test_iterations_invalidate_the_profile(self):
        cache = PipelineCache()
        make_estimator(stage_cache=cache).estimate(WORKLOAD, RTX_3060)
        three = XMemEstimator(iterations=3, stage_cache=cache).estimate(
            WORKLOAD, RTX_3060
        )
        assert cache.traces.stats()["misses"] == 2
        cold = XMemEstimator(iterations=3, stage_cache=False).estimate(
            WORKLOAD, RTX_3060
        )
        assert three.peak_bytes == cold.peak_bytes
        assert three.detail == cold.detail

    def test_batch_size_invalidates_the_profile(self):
        cache = PipelineCache()
        estimator = make_estimator(stage_cache=cache)
        small = estimator.estimate(WORKLOAD, RTX_3060)
        large = estimator.estimate(
            WORKLOAD.with_batch_size(16), RTX_3060
        )
        assert cache.traces.stats()["misses"] == 2
        assert large.peak_bytes != small.peak_bytes


class TestTraceFingerprint:
    """Supplied traces are content-addressed, not identity-addressed."""

    def test_identical_profiles_share_a_fingerprint(self):
        first = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        second = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        assert first is not second
        assert trace_fingerprint(first) == trace_fingerprint(second)

    def test_different_workloads_differ(self):
        first = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        second = profile_on_cpu(tiny_spec(), batch_size=8, optimizer="sgd")
        assert trace_fingerprint(first) != trace_fingerprint(second)

    def test_fingerprint_is_memoized(self):
        trace = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        assert trace_fingerprint(trace) is trace_fingerprint(trace)

    #: the content key of the hand-built trace below; a change to it
    #: re-keys every caller-supplied trace's stages
    PINNED = "content:234b5e3bc56dc62357a5b9a5dcd2dd0c"

    def test_hand_built_trace_has_a_pinned_digest(self):
        metadata = {"model": "hand", "batch_size": 4}
        step = EventCategory.USER_ANNOTATION
        from_objects = Trace(
            spans=[
                SpanEvent("ProfilerStep#0", step, ts=0, dur=100),
                SpanEvent("aten::mm", EventCategory.CPU_OP, 10, 20, tid=1),
            ],
            memory_events=[
                MemoryEvent(ts=12, addr=0x1000, nbytes=4096),
                MemoryEvent(ts=25, addr=0x1000, nbytes=-4096),
                MemoryEvent(ts=40, addr=0x2000, nbytes=512),
            ],
            metadata=metadata,
        )
        builder = TraceBuilder(metadata)
        builder.begin_span("ProfilerStep#0", step, ts=0)
        builder.begin_span("aten::mm", EventCategory.CPU_OP, ts=10, tid=1)
        builder.record_alloc(12, 0x1000, 4096)
        builder.record_free(25, 0x1000, 4096)
        builder.end_span(30)
        builder.record_alloc(40, 0x2000, 512)
        builder.end_span(100)
        for trace in (from_objects, builder.finish()):
            assert trace_fingerprint(trace) == self.PINNED
            assert trace_fingerprint(replace(trace)) == self.PINNED

    def test_supplied_twin_trace_hits_the_analysis_cache(self):
        workload = WorkloadConfig("TinyConvNet", "sgd", 4)
        first = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        second = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        cache = PipelineCache()
        make_estimator(stage_cache=cache).estimate(
            workload, RTX_3060, trace=first
        )
        # another rule set misses the orchestrate store, so the analysis
        # is consulted — by the twin's content key
        warm = make_estimator(stage_cache=cache, orchestrate=False).estimate(
            workload, RTX_3060, trace=second
        )
        assert warm.stage_cached[ANALYZE]
        assert not warm.stage_cached[ORCHESTRATE]
        assert cache.analyses.stats()["hits"] == 1


class TestReplayCore:
    def test_rows_match_events(self, tiny_trace):
        pipeline = EstimationPipeline(iterations=3)
        sequence = pipeline.orchestrate(pipeline.analyze(tiny_trace))
        assert len(sequence.rows) == len(sequence.events)
        for row, event in zip(sequence.rows, sequence.events):
            assert row == (
                event.ts,
                int(event.kind.value == "alloc"),
                event.block_id,
                event.size,
                event.role,
            )
        assert sequence.events is sequence.events  # cached view
        restored = pickle.loads(pickle.dumps(sequence))
        assert restored.__dict__["_events"] is None  # view not stored
        assert restored.rows == sequence.rows

    def test_replay_without_timeline_matches_peaks(self, tiny_trace):
        pipeline = EstimationPipeline(iterations=3)
        sequence = pipeline.orchestrate(pipeline.analyze(tiny_trace))
        recorded = MemorySimulator().replay(sequence)
        fast = MemorySimulator().replay(sequence, record_timeline=False)
        assert fast.peak_reserved_bytes == recorded.peak_reserved_bytes
        assert fast.peak_allocated_bytes == recorded.peak_allocated_bytes
        assert fast.num_events == recorded.num_events
        assert fast.oom is False and fast.oom_ts is None
        assert len(fast.timeline) == 0
        assert len(recorded.timeline) > 0


class TestOneSimulatePath:
    """One replay loop, one cached value, no capacity knob on the stage."""

    RETIRED = (
        "PeakProfile",
        "replay_peak_profile",
        "first_oom_event",
        "timeline_max_points",
        "event_stream",
    )

    def test_one_function_iterates_the_rows(self):
        """A loop over the rows reads the ``rows`` view or the sequence's
        ``kind`` column (the one column only a replay needs)."""
        tree = ast.parse((SRC / "core" / "simulator.py").read_text())
        loops = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(
                isinstance(node, (ast.For, ast.comprehension))
                and any(
                    isinstance(part, ast.Attribute)
                    and part.attr in ("rows", "kind")
                    for part in ast.walk(node.iter)
                )
                for node in ast.walk(function)
            )
        ]
        assert loops == ["replay"]

    def test_retired_names_stay_gone(self):
        found = [
            (str(path.relative_to(SRC)), name)
            for path in sorted(SRC.rglob("*.py"))
            for name in self.RETIRED
            if name in path.read_text()
        ]
        assert found == []

    def test_the_pipeline_takes_no_capacity(self):
        tree = ast.parse((SRC / "core" / "pipeline.py").read_text())
        (pipeline,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and node.name == "EstimationPipeline"
        ]
        params = {
            method.name: [arg.arg for arg in method.args.args]
            for method in pipeline.body
            if isinstance(method, ast.FunctionDef)
            and method.name in ("run", "simulate")
        }
        assert sorted(params) == ["run", "simulate"]
        assert all("capacity_bytes" not in args for args in params.values())


class TestBottomUpLookup:
    """Every stage key derives from the workload; a hit loads nothing
    upstream of the stage that answered."""

    @staticmethod
    def derived_simulate_key(pipeline, workload, trace=None) -> tuple:
        keys = pipeline._stage_keys(workload, trace, DEFAULT_CONFIG, True, False)
        return keys[SIMULATE]

    def test_derived_key_matches_the_built_sequence(self):
        pipeline = EstimationPipeline(iterations=2, cache=PipelineCache())
        run = pipeline.run(WORKLOAD, curve=False)
        key = self.derived_simulate_key(pipeline, WORKLOAD)
        assert key[0] == sequence_fingerprint(run.sequence)
        assert list(pipeline.cache.simulations._entries) == [key]
        # the artifact-first stage methods stamp the same fingerprint
        other = EstimationPipeline(iterations=2, cache=PipelineCache())
        sequence = other.orchestrate(other.analyze(other.profile(WORKLOAD)))
        assert sequence_fingerprint(sequence) == key[0]

    def test_derived_key_matches_a_supplied_trace(self):
        workload = WorkloadConfig("TinyConvNet", "sgd", 4)
        trace = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        twin = profile_on_cpu(tiny_spec(), batch_size=4, optimizer="sgd")
        pipeline = EstimationPipeline(iterations=2, cache=PipelineCache())
        run = pipeline.run(workload, trace=trace, curve=False)
        key = self.derived_simulate_key(pipeline, workload, trace=twin)
        assert key[0] == sequence_fingerprint(run.sequence)
        again = pipeline.run(workload, trace=twin, curve=False)
        assert again.stage_sources[SIMULATE] == "memory"

    def test_simulate_hit_loads_nothing_upstream(self):
        cache = PipelineCache()
        pipeline = EstimationPipeline(iterations=2, cache=cache)
        cold = pipeline.run(WORKLOAD, curve=False)
        assert set(cold.stage_sources.values()) == {"compute"}
        assert cold.trace is not None and cold.sequence is not None
        before = {name: s["hits"] for name, s in cache.stats().items()}
        warm = pipeline.run(WORKLOAD, curve=False)
        after = {name: s["hits"] for name, s in cache.stats().items()}
        assert warm.stage_sources == dict.fromkeys(STAGES, "memory")
        assert (warm.trace, warm.analyzed, warm.sequence) == (None,) * 3
        assert warm.simulation is cold.simulation
        assert after["simulations"] == before["simulations"] + 1
        for name in ("traces", "analyses", "sequences"):
            assert after[name] == before[name]

    def test_curve_request_starts_at_the_sequence(self):
        cache = PipelineCache()
        pipeline = EstimationPipeline(iterations=2, cache=cache)
        pipeline.run(WORKLOAD, curve=False)
        curved = pipeline.run(WORKLOAD, curve=True)
        assert curved.stage_sources[SIMULATE] == "compute"
        assert curved.stage_sources[ORCHESTRATE] == "memory"
        assert curved.sequence is not None and curved.trace is None
        assert len(curved.simulation.timeline) > 0
        assert cache.sequences.stats()["hits"] == 1
        assert cache.traces.stats()["hits"] == 0


class TestPipelineCacheStore:
    def test_capacity_zero_disables_storage(self):
        cache = PipelineCache(max_traces=0)
        calls = []
        value, hit = cache.traces.get_or_compute(
            "k", lambda: calls.append(1) or "v"
        )
        assert (value, hit) == ("v", False)
        value, hit = cache.traces.get_or_compute(
            "k", lambda: calls.append(1) or "v"
        )
        assert (value, hit) == ("v", False)
        assert len(calls) == 2

    def test_lru_eviction_order(self):
        cache = PipelineCache(max_traces=2)
        store = cache.traces
        store.get_or_compute("a", lambda: 1)
        store.get_or_compute("b", lambda: 2)
        store.get_or_compute("a", lambda: 1)  # refresh a
        store.get_or_compute("c", lambda: 3)  # evicts b
        assert store.get_or_compute("a", lambda: 99) == (1, True)
        assert store.get_or_compute("b", lambda: 42) == (42, False)
        assert store.stats()["evictions"] >= 1

    def test_build_failure_propagates_and_releases_the_key(self):
        cache = PipelineCache()

        def boom():
            raise RuntimeError("profile failed")

        with pytest.raises(RuntimeError):
            cache.traces.get_or_compute("k", boom)
        value, hit = cache.traces.get_or_compute("k", lambda: "ok")
        assert (value, hit) == ("ok", False)

    def test_clear(self):
        cache = PipelineCache()
        cache.traces.get_or_compute("k", lambda: 1)
        cache.clear()
        assert cache.traces.stats()["size"] == 0

    @staticmethod
    def two_callers_one_key(monkeypatch, store, finish):
        """Two threads ask ``store`` for one key.  The first one's build
        returns ``finish()`` (or raises from it) only once the second is
        parked on the in-flight build; a later build returns a fresh
        object.  Returns the builders' names and each caller's outcome."""
        import threading

        started = threading.Event()
        parked = threading.Event()
        real_wait = threading.Event.wait

        def wait(event, timeout=None):
            if threading.current_thread().name == "second":
                parked.set()
            return real_wait(event, timeout)

        monkeypatch.setattr(threading.Event, "wait", wait)
        builds, outcomes = [], {}

        def build():
            builds.append(threading.current_thread().name)
            if len(builds) > 1:
                return object()
            started.set()
            assert parked.wait(timeout=10)
            return finish()

        def call():
            name = threading.current_thread().name
            try:
                outcomes[name] = store.get_or_compute_traced("k", build)
            except RuntimeError as error:
                outcomes[name] = error

        first = threading.Thread(target=call, name="first")
        first.start()
        assert started.wait(timeout=10)
        second = threading.Thread(target=call, name="second")
        second.start()
        for thread in (first, second):
            thread.join(timeout=10)
            assert not thread.is_alive()
        return builds, outcomes

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_a_waiter_takes_the_owners_build(self, monkeypatch, capacity):
        """Single-flight holds at every capacity: a zero-capacity store
        keeps nothing, so the waiter must take the value from the build
        it waited on instead of re-checking an empty L1."""
        store = PipelineCache(max_traces=capacity).traces
        builds, outcomes = self.two_callers_one_key(
            monkeypatch, store, object
        )
        assert builds == ["first"]
        assert outcomes["first"][1] == "compute"
        assert outcomes["second"][1] == "memory"
        assert outcomes["second"][0] is outcomes["first"][0]
        assert store.stats()["hits"] == 1

    def test_a_failed_build_makes_a_waiter_the_next_owner(
        self, monkeypatch
    ):
        def fail():
            raise RuntimeError("profile failed")

        store = PipelineCache(max_traces=0).traces
        builds, outcomes = self.two_callers_one_key(monkeypatch, store, fail)
        assert builds == ["first", "second"]
        assert isinstance(outcomes["first"], RuntimeError)
        assert outcomes["second"][1] == "compute"

    def test_concurrent_misses_build_once(self):
        import threading

        cache = PipelineCache()
        calls = []
        gate = threading.Barrier(4)

        def build():
            calls.append(1)
            return "artifact"

        def worker(results, index):
            gate.wait()
            results[index] = cache.traces.get_or_compute("k", build)

        results: dict[int, tuple] = {}
        threads = [
            threading.Thread(target=worker, args=(results, i))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(value == "artifact" for value, _ in results.values())
        assert sum(1 for _, hit in results.values() if not hit) == 1


class TestServiceIntegration:
    def test_service_metrics_report_stage_timings(self):
        from repro.service import EstimationService

        with EstimationService(estimator=make_estimator()) as service:
            service.estimate(WORKLOAD, RTX_3060)
            service.estimate(WORKLOAD, RTX_3060)  # cache hit: no stages
            stats = service.stats()
        stages = stats["service"]["stages"]
        assert set(stages) == {"profile", "analyze", "orchestrate", "simulate"}
        for data in stages.values():
            assert data["count"] == 1  # only the computed request reported
            assert data["total_seconds"] >= 0.0

    def test_gateway_aggregates_stage_timings(self):
        from repro.service import ServiceGateway

        with ServiceGateway(
            num_shards=2, estimator_factory=make_estimator
        ) as gateway:
            gateway.estimate(WORKLOAD, RTX_3060)
            gateway.estimate(WORKLOAD.with_batch_size(8), RTX_3060)
            stats = gateway.stats()
        stages = stats["aggregate"]["stages"]
        assert set(stages) == {"profile", "analyze", "orchestrate", "simulate"}
        assert sum(data["count"] for data in stages.values()) == 8

    def test_estimate_many_shares_the_stage_cache_profile(self):
        from repro.service import EstimationService, estimate_many

        estimator = make_estimator()
        with EstimationService(estimator=estimator) as service:
            requests = [
                (WORKLOAD, RTX_3060),
                (WORKLOAD, RTX_4060),
                (WORKLOAD, replace(RTX_4060, init_bytes=1 << 30)),
            ]
            results = estimate_many(service, requests)
        assert len({r.peak_bytes for r in results}) == 1
        # one workload, many devices: exactly one CPU profile happened
        assert estimator.stage_cache.traces.stats()["misses"] == 1


class TestSharedAnswers:
    """The answers of one cached cell share its report and provenance:
    only ``device``, ``runtime_seconds`` and ``stage_seconds`` are their
    own."""

    def test_two_devices_of_a_warm_cell_share_the_report(self):
        estimator = make_estimator(curve=False)
        cold = estimator.pipeline.run(WORKLOAD, curve=False)
        sequence, simulation = cold.sequence, cold.row.simulation
        first = estimator.estimate(WORKLOAD, RTX_3060)
        second = estimator.estimate(WORKLOAD, RTX_4060)
        assert first.detail is second.detail is cold.row.detail
        assert first.stage_cached is second.stage_cached
        assert first.stage_sources is second.stage_sources
        assert first.stage_seconds is not second.stage_seconds
        # the report an answer built for itself, key for key, in order
        literal = {
            "num_blocks": sequence.num_blocks,
            "num_events": simulation.num_events,
            "persistent_bytes": sequence.persistent_bytes,
            "rule_adjustments": dict(sequence.adjustments),
            "peak_allocated_bytes": simulation.peak_allocated_bytes,
            "role_bytes": dict(sequence.role_bytes),
            "dropped_blocks": sequence.dropped_blocks,
        }
        assert list(first.detail.items()) == list(literal.items())
        # the row copied the sequence's maps once: it aliases none of them
        assert first.detail["rule_adjustments"] is not sequence.adjustments
        assert first.detail["role_bytes"] is not sequence.role_bytes

    def test_equal_provenance_is_one_pair_of_maps(self):
        cold_a = make_estimator(curve=False).estimate(WORKLOAD, RTX_3060)
        cold_b = make_estimator(curve=False).estimate(WORKLOAD, RTX_3060)
        assert cold_a.stage_sources is cold_b.stage_sources
        assert cold_a.stage_cached is cold_b.stage_cached
        assert cold_a.stage_sources == dict.fromkeys(STAGES, "compute")
        assert cold_a.stage_cached == dict.fromkeys(STAGES, False)

    @pytest.mark.parametrize(
        "knobs",
        [{"stage_cache": False}, {"curve": True}],
        ids=["uncached", "curve"],
    )
    def test_a_cell_the_l1_does_not_serve_builds_its_own_report(self, knobs):
        estimator = make_estimator(**{"curve": False, **knobs})
        first = estimator.estimate(WORKLOAD, RTX_3060)
        second = estimator.estimate(WORKLOAD, RTX_4060)
        assert first.detail == second.detail
        assert first.detail is not second.detail

    def test_a_result_is_slotted_and_still_pickles_and_replaces(self):
        import dataclasses

        result = make_estimator(curve=False).estimate(WORKLOAD, RTX_3060)
        assert not hasattr(result, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.peak_bytes = 0
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.detail == result.detail
        assert clone.stage_sources == result.stage_sources
        assert dataclasses.replace(result) == result
        assert dataclasses.replace(result, device=RTX_4060) != result

    def test_a_wire_round_trip_equals_the_in_process_answer(self):
        import json

        from repro.service.wire import result_from_wire, result_to_wire

        estimator = make_estimator(curve=False)
        estimator.estimate(WORKLOAD, RTX_3060)
        answer = estimator.estimate(WORKLOAD, RTX_4060)
        clone = result_from_wire(
            json.loads(json.dumps(result_to_wire(answer)))
        )
        assert clone == answer
        assert list(clone.detail.items()) == list(answer.detail.items())
        assert clone.stage_cached == answer.stage_cached
        assert clone.stage_sources == answer.stage_sources
        assert clone.stage_seconds == answer.stage_seconds
