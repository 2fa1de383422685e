"""Observation lives in the service machine; the chain keeps no
per-request state.

Two promises of the policy/observation split are pinned here:

* **Nothing on the default path accumulates.**  A service that answers
  cache hits forever must not grow: no ``Span`` is even constructed with
  telemetry off, nothing reachable from the shared middleware instances
  scales with the request count, and with telemetry on the only
  per-request state is the *bounded* metrics window and the *bounded*
  ledger.  (The retired ``TimingMiddleware`` kept one span per request in
  a private exporter nothing read — ~555 B/request, forever.)
* **One outcome, one row.**  However a request ends, the metrics
  counter, the ledger event and the root span's status come from the
  same row of :data:`repro.service.dispatch.OUTCOMES`.  Each scenario
  drives a :class:`~repro.service.dispatch.ServiceDispatch` on the fake
  substrate through ``submit`` and the launched future, as a driver
  would.
"""

from __future__ import annotations

import asyncio
import gc
import types
from concurrent.futures import Future

import pytest

from repro.core.result import EstimationResult
from repro.errors import (
    DeadlineExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    AsyncEstimationService,
    EstimateCache,
    EstimationService,
    ServiceMetrics,
    ServiceMiddleware,
    SyntheticEstimator,
    Telemetry,
    default_middlewares,
)
from repro.service.dispatch import OUTCOMES, ServiceDispatch
from repro.service.telemetry.exporters import (
    InMemorySpanExporter,
    NullSpanExporter,
)
from repro.service.telemetry.spans import Span
from repro.workload import RTX_3060, WorkloadConfig
from tests.test_service_dispatch import FakeSubstrate

WORKLOADS = [WorkloadConfig("MobileNetV2", "sgd", size) for size in (1, 2, 4, 8)]
HITS = 2000
#: the program, not its state: a census stops at these
_CODE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
    types.FrameType,
)


def reachable(root) -> int:
    """How many data objects hang off ``root``."""
    seen: dict[int, object] = {}  # id -> object: keeps ids from being reused
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _CODE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return len(seen)


def live_spans() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Span)


def serve_hits_threads(telemetry, count):
    """Census before and after ``count`` hits on a warmed thread service."""
    with EstimationService(
        estimator=SyntheticEstimator(),
        metrics=ServiceMetrics(latency_window=64),
        telemetry=telemetry,
    ) as service:
        for _ in range(100):  # warm the cache and fill both bounded windows
            for workload in WORKLOADS:
                service.estimate(workload, RTX_3060)
        before = census(service)
        for index in range(count):
            service.estimate(WORKLOADS[index % len(WORKLOADS)], RTX_3060)
        after = census(service)
        assert service.stats()["service"]["cache_hits"] >= count
    return before, after


def serve_hits_asyncio(telemetry, count):
    async def run():
        service = AsyncEstimationService(
            estimator=SyntheticEstimator(),
            metrics=ServiceMetrics(latency_window=64),
            telemetry=telemetry,
        )
        try:
            for _ in range(100):
                for workload in WORKLOADS:
                    await service.estimate(workload, RTX_3060)
            before = census(service)
            for index in range(count):
                await service.estimate(
                    WORKLOADS[index % len(WORKLOADS)], RTX_3060
                )
            after = census(service)
            assert service.stats()["service"]["cache_hits"] >= count
        finally:
            await service.aclose()
        return before, after

    return asyncio.run(run())


def census(service) -> dict:
    return {
        "spans": live_spans(),
        "chain": reachable(service.chain.middlewares),
        "service": reachable(service),
    }


DRIVERS = pytest.mark.parametrize(
    "serve", [serve_hits_threads, serve_hits_asyncio], ids=["threads", "asyncio"]
)


class TestNothingAccumulates:
    @DRIVERS
    def test_default_chain_untraced_builds_no_span_and_does_not_grow(
        self, serve, monkeypatch
    ):
        built = []
        init = Span.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_init)
        before, after = serve(None, HITS)
        assert not built, f"{len(built)} spans built with telemetry off"
        assert after == before

    @DRIVERS
    def test_standard_telemetry_keeps_only_the_bounded_windows(self, serve):
        telemetry = Telemetry(exporter=NullSpanExporter(), max_ledger_events=64)
        before, after = serve(telemetry, HITS)
        # spans are built and handed to the exporter, none is kept; the
        # metrics window and the ledger ring were full before the census
        assert after == before
        assert len(telemetry.ledger) == 64

    def test_the_census_sees_a_middleware_that_hoards(self):
        """The referee itself: a per-request list is caught."""

        class Hoarder(ServiceMiddleware):
            def __init__(self):
                self.seen = []

            def on_request(self, request, ctx):
                self.seen.append(Span("x", "t", "s"))
                return None

        cache = EstimateCache()
        with EstimationService(
            estimator=SyntheticEstimator(),
            middlewares=(Hoarder(), *default_middlewares(cache)),
            cache=cache,
        ) as service:
            service.estimate(WORKLOADS[0], RTX_3060)
            before = census(service)
            for _ in range(50):
                service.estimate(WORKLOADS[0], RTX_3060)
            after = census(service)
        assert after["spans"] - before["spans"] == 50
        assert after["chain"] - before["chain"] >= 50


# ----------------------------------------------------------------------
# one outcome table
# ----------------------------------------------------------------------


class Scripted(ServiceMiddleware):
    """Raises, answers, or runs a side effect on demand."""

    name = "scripted"

    def __init__(self):
        self.raises = None
        self.answer = None
        self.then = None

    def on_request(self, request, ctx):
        if self.raises is not None:
            raise self.raises
        if self.then is not None:
            self.then()
        return self.answer


def make_result(workload=WORKLOADS[0]):
    return EstimationResult(
        estimator="stub",
        workload=workload,
        device=RTX_3060,
        peak_bytes=1,
        runtime_seconds=0.0,
    )


class ParkingService(ServiceDispatch):
    """``_launch`` parks a future the scenario resolves by hand."""

    def _launch(self, request, ctx):
        self.launched = Future()
        return self.launched


class Harness:
    """A :class:`ServiceDispatch` on the fake substrate with all three
    channels observable; every request is submitted under one
    fingerprint, ``"fp"``."""

    def __init__(self):
        self.scripted = Scripted()
        self.cache = EstimateCache()
        self.exporter = InMemorySpanExporter()
        self.metrics = ServiceMetrics()
        self.service = ParkingService(
            SyntheticEstimator(),
            (self.scripted, *default_middlewares(self.cache)),
            self.cache,
            self.metrics,
            Telemetry(exporter=self.exporter),
            FakeSubstrate(),
        )
        self.ledger = self.service.ledger

    def submit(self, deadline=None):
        return self.service.submit(
            WORKLOADS[0], RTX_3060, fingerprint="fp", deadline=deadline
        )

    def observed(self) -> tuple:
        """(counters that moved, last ledger event, root-span status)."""
        moved = {
            name
            for name in (
                "cache_hits",
                "computed",
                "deduplicated",
                "rejected",
                "throttled",
                "errors",
            )
            if getattr(self.metrics, name)
        }
        (root,) = [s for s in self.exporter.spans if s.name == "request"]
        return moved, self.ledger.events()[-1].event, root.status


def _dedup(h):
    # a duplicate of this request is already in flight
    h.service._inflight["fp"] = FakeSubstrate.new_master()
    h.submit()


def _expired(h):
    with pytest.raises(DeadlineExceededError):
        h.submit(deadline=-1.0)


def _hook_raises(error):
    def scenario(h):
        h.scripted.raises = error
        with pytest.raises(type(error)):
            h.submit()

    return scenario


def _cache_hit(h):
    h.cache.put("fp", make_result())
    assert h.submit().result() is not None


def _short_circuit(h):
    h.scripted.answer = make_result()
    assert h.submit().result() is not None


def _computed(h):
    h.submit()
    h.service.launched.set_result(make_result())


def _failed(h):
    h.submit()
    h.service.launched.set_exception(RuntimeError("boom"))


def _refused(h):
    # a drain() lands while the request hooks run
    h.scripted.then = lambda: setattr(h.service, "_draining", True)
    with pytest.raises(ServiceClosedError):
        h.submit()


#: scenario -> (driver, the counter that moves, ledger event, span status)
SCENARIOS = {
    "deduplicated": (_dedup, "deduplicated", "dedup", "ok"),
    "expired": (_expired, "rejected", "deadline", "deadline"),
    "throttled": (
        _hook_raises(RateLimitExceededError(1.0)),
        "throttled",
        "throttled",
        "throttled",
    ),
    "hook_rejects": (
        _hook_raises(RequestRejectedError("no")),
        "rejected",
        "rejected",
        "rejected",
    ),
    "hook_breaks": (
        _hook_raises(RuntimeError("boom")), "errors", "error", "error"
    ),
    "cache_hit": (_cache_hit, "cache_hits", "cache_hit", "ok"),
    "short_circuit": (_short_circuit, "computed", "admit", "ok"),
    "computed": (_computed, "computed", "computed", "ok"),
    "failed": (_failed, "errors", "error", "error"),
    "refused": (_refused, "rejected", "rejected", "rejected"),
}
#: the ServiceMetrics recorder behind each counter
RECORDERS = {
    "cache_hits": "record_cache_hit",
    "computed": "record_computed",
    "deduplicated": "record_deduplicated",
    "rejected": "record_rejected",
    "throttled": "record_throttled",
    "errors": "record_error",
}


class TestOneOutcomeTable:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_counter_ledger_and_span_agree(self, name):
        scenario, counter, event, status = SCENARIOS[name]
        harness = Harness()
        scenario(harness)
        assert harness.observed() == ({counter}, event, status)
        assert harness.metrics.requests == 1

    def test_the_table_is_exactly_what_the_scenarios_reach(self):
        """Every way a request ends reads a row, and no row is dead."""
        reached = {
            (RECORDERS[counter], event, status)
            for _, counter, event, status in SCENARIOS.values()
        }
        assert reached == set(OUTCOMES.values())

    def test_outcome_attributes_on_the_root_span(self):
        """What the span says beyond its status is per call site."""
        expected = {
            "deduplicated": {"deduplicated": True},
            "cache_hit": {"cache_hit": True},
            "short_circuit": {"cache_hit": False},
            "computed": {"cache_hit": False},
            "failed": {"error": "RuntimeError"},
            "refused": {"cause": "drain_race"},
            "throttled": {},
        }
        for name, extra in expected.items():
            harness = Harness()
            SCENARIOS[name][0](harness)
            (root,) = [
                s for s in harness.exporter.spans if s.name == "request"
            ]
            attributes = dict(root.attributes)
            del attributes["fingerprint"], attributes["request_id"]
            assert attributes == extra, name


class TestHookSpans:
    def _spans(self, scenario):
        harness = Harness()
        harness.service.tracer.detail = "full"
        scenario(harness)
        return harness.exporter.spans

    def test_one_span_per_hook_entered_in_chain_order(self):
        spans = self._spans(_computed)
        hooks = [s for s in spans if s.name.startswith("middleware:")]
        assert [s.name for s in hooks] == [
            "middleware:scripted",
            "middleware:validation",
            "middleware:cache",
        ]
        (root,) = [s for s in spans if s.name == "request"]
        assert {s.parent_id for s in hooks} == {root.span_id}
        assert all(s.status == "ok" and s.end >= s.start for s in hooks)

    def test_a_raising_hook_gets_an_error_span_and_ends_the_walk(self):
        spans = self._spans(_hook_raises(RequestRejectedError("no")))
        hooks = [s for s in spans if s.name.startswith("middleware:")]
        assert [(s.name, s.status) for s in hooks] == [
            ("middleware:scripted", "error")
        ]
        assert hooks[0].attributes == {"error": "RequestRejectedError"}

    def test_standard_detail_emits_no_hook_span(self):
        harness = Harness()
        _computed(harness)
        assert not [
            s for s in harness.exporter.spans
            if s.name.startswith("middleware:")
        ]
