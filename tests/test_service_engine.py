"""EstimationService: concurrency, single-flight dedup, batch APIs."""

import threading
from functools import partial

import pytest

from repro.core.base import Estimator
from repro.core.estimator import XMemEstimator
from repro.core.result import EstimationResult
from repro.errors import (
    EstimationError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    CacheMiddleware,
    EstimateCache,
    EstimationService,
    ProcEstimationService,
    RateLimitMiddleware,
    ServiceMiddleware,
    estimate_many,
    sweep,
)
from repro.units import GiB
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

WORKLOAD = WorkloadConfig("gpt2", "adam", 8)
#: module-level: the process driver pickles its estimator factory
small_xmem = partial(XMemEstimator, iterations=2, curve=False)
#: two workloads x three devices: what one profile per workload serves
SWEEP = [
    (workload, device)
    for workload in (
        WorkloadConfig("MobileNetV3Small", "sgd", 4),
        WorkloadConfig("MnasNet", "sgd", 4),
    )
    for device in (RTX_3060, RTX_4060, RTX_3060.with_init(GiB))
]


class StubEstimator(Estimator):
    """Instant deterministic estimator; counts and optionally gates calls."""

    name = "stub"
    version = "1"

    def __init__(self, peak_bytes=GiB, gate=None, fail=False):
        self.peak_bytes = peak_bytes
        self.gate = gate  # threading.Event the estimate waits on
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def supports(self, workload):
        return True

    def estimate(self, workload, device):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=10), "gate never opened"
        if self.fail:
            raise EstimationError("stub failure")
        return EstimationResult(
            estimator=self.name,
            workload=workload,
            device=device,
            peak_bytes=self.peak_bytes,
            runtime_seconds=0.0,
        )


def make_service(estimator=None, **kwargs):
    estimator = estimator if estimator is not None else StubEstimator()
    kwargs.setdefault("max_workers", 2)
    return EstimationService(estimator=estimator, **kwargs)


class TestEngine:
    def test_cache_hit_returns_identical_object(self):
        with make_service() as service:
            first = service.estimate(WORKLOAD, RTX_3060)
            second = service.estimate(WORKLOAD, RTX_3060)
        assert second is first
        stats = service.stats()
        assert stats["service"]["cache_hits"] == 1
        assert stats["service"]["computed"] == 1
        assert stats["cache"]["size"] == 1

    def test_distinct_requests_do_not_alias(self):
        with make_service() as service:
            a = service.estimate(WORKLOAD, RTX_3060)
            b = service.estimate(WORKLOAD, RTX_4060)
            c = service.estimate(WORKLOAD.with_batch_size(16), RTX_3060)
        assert a is not b and a is not c
        assert service.stats()["service"]["computed"] == 3

    def test_single_flight_deduplicates_concurrent_identicals(self):
        gate = threading.Event()
        stub = StubEstimator(gate=gate)
        with make_service(estimator=stub) as service:
            first = service.submit(WORKLOAD, RTX_3060)
            # the worker is parked on the gate; identical submissions
            # must piggyback instead of spawning their own estimates
            followers = [
                service.submit(WORKLOAD, RTX_3060) for _ in range(5)
            ]
            assert all(f is first for f in followers)
            gate.set()
            results = [f.result(timeout=10) for f in [first, *followers]]
        assert stub.calls == 1
        assert all(r is results[0] for r in results)
        stats = service.stats()["service"]
        assert stats["deduplicated"] == 5
        assert stats["requests"] == 6

    def test_dedup_then_cache_hit_after_completion(self):
        with make_service() as service:
            service.estimate(WORKLOAD, RTX_3060)
            future = service.submit(WORKLOAD, RTX_3060)
            assert future.done()  # answered inline from the cache
        assert service.stats()["service"]["cache_hits"] == 1

    def test_validation_rejection_raises_synchronously(self):
        with make_service() as service:
            with pytest.raises(RequestRejectedError):
                service.submit(WorkloadConfig("nope", "adam", 8), RTX_3060)
        stats = service.stats()["service"]
        assert stats["rejected"] == 1
        assert stats["computed"] == 0

    def test_rate_limit_counted_as_throttled(self):
        cache = EstimateCache()
        with make_service(
            cache=cache,
            middlewares=(
                RateLimitMiddleware(
                    rate_per_second=1, burst=1, clock=lambda: 0.0
                ),
                CacheMiddleware(cache),
            ),
        ) as service:
            service.estimate(WORKLOAD, RTX_3060)
            with pytest.raises(RateLimitExceededError):
                service.submit(WORKLOAD.with_batch_size(16), RTX_3060)
        assert service.stats()["service"]["throttled"] == 1

    def test_estimator_failure_surfaces_through_future(self):
        with make_service(estimator=StubEstimator(fail=True)) as service:
            future = service.submit(WORKLOAD, RTX_3060)
            with pytest.raises(EstimationError):
                future.result(timeout=10)
            # the fingerprint is released: a retry estimates again
            with pytest.raises(EstimationError):
                service.estimate(WORKLOAD, RTX_3060)
        stats = service.stats()
        assert stats["service"]["errors"] == 2
        assert stats["inflight"] == 0
        assert stats["cache"]["size"] == 0

    def test_closed_service_refuses_requests(self):
        service = make_service()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(WORKLOAD, RTX_3060)

    def test_shutdown_race_releases_single_flight_slot(self):
        """If the pool dies between the closed check and the dispatch,
        the future must carry the error and the fingerprint must be
        released — not parked in _inflight forever."""
        service = make_service()
        service._executor.shutdown(wait=True)  # close() without _closed
        future = service.submit(WORKLOAD, RTX_3060)
        with pytest.raises(RuntimeError):
            future.result(timeout=10)
        assert service.stats()["inflight"] == 0

    def test_adopts_cache_from_explicit_middleware_chain(self):
        """stats() must see the cache that actually serves hits, even
        when only `middlewares` is passed."""
        cache = EstimateCache()
        with make_service(
            middlewares=(CacheMiddleware(cache),)
        ) as service:
            assert service.cache is cache
            service.estimate(WORKLOAD, RTX_3060)
            service.estimate(WORKLOAD, RTX_3060)
            stats = service.stats()["cache"]
        assert stats["size"] == 1 and stats["hits"] == 1

    def test_middleware_may_reenter_service_stats(self):
        """Hooks run outside the engine lock: a middleware observing the
        service itself must not deadlock."""

        class Introspector(ServiceMiddleware):
            def on_request(self, request, ctx):
                ctx.tags["stats"] = service.stats()
                return None

        service = EstimationService(
            estimator=StubEstimator(),
            middlewares=(Introspector(),),
            max_workers=1,
        )
        with service:
            result = service.estimate(WORKLOAD, RTX_3060)
        assert result.peak_bytes == GiB

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            EstimationService(estimator=StubEstimator(), max_workers=0)

    def test_stats_shape(self):
        with make_service() as service:
            service.estimate(WORKLOAD, RTX_3060)
            stats = service.stats()
        assert set(stats) == {"service", "cache", "inflight"}
        latency = stats["service"]["latency_seconds"]
        assert latency["count"] == 1
        assert latency["p50"] is not None
        assert latency["p50"] <= latency["p95"] <= latency["max"]


class TestByteIdentical:
    def test_service_matches_direct_estimator(self):
        """Acceptance: the serving layer adds zero numerical drift."""
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 8)
        direct = XMemEstimator(iterations=2).estimate(workload, RTX_3060)
        with EstimationService(
            estimator=XMemEstimator(iterations=2), max_workers=2
        ) as service:
            served = service.estimate(workload, RTX_3060)
        assert served.peak_bytes == direct.peak_bytes
        assert served.detail == direct.detail
        assert served.predicts_oom() == direct.predicts_oom()


class TestBatch:
    def test_estimate_many_preserves_order(self):
        requests = [
            (WORKLOAD, RTX_3060),
            (WORKLOAD.with_batch_size(16), RTX_3060),
            (WORKLOAD, RTX_4060),
        ]
        with make_service() as service:
            results = estimate_many(service, requests)
        for (workload, device), result in zip(requests, results):
            assert result.workload == workload
            assert result.device == device

    def test_stats_count_the_profiles_estimate_many_ran(self):
        """Each workload is profiled once, by the stage cache inside a
        request — so the profile shows up in that request's stages."""
        with EstimationService(small_xmem(), max_workers=2) as service:
            estimate_many(service, SWEEP)
            stats = service.stats()["service"]
        assert stats["stage_sources"]["profile:compute"] == 2
        assert stats["stage_sources"]["profile:memory"] == 4
        assert stats["stages"]["profile"]["total_seconds"] > 0

    def test_worker_processes_profile_a_workload_at_most_once_each(self):
        """Without a shared artifact store each worker keeps its own stage
        cache: one profile per workload per worker, never one per cell."""
        with ProcEstimationService(small_xmem, max_workers=2) as service:
            results = estimate_many(service, SWEEP)
            stats = service.stats()["service"]
        assert [r.peak_bytes for r in results] == [
            small_xmem().estimate(w, d).peak_bytes for w, d in SWEEP
        ]
        assert 2 <= stats["stage_sources"]["profile:compute"] <= 4
        assert stats["stages"]["profile"]["count"] == len(SWEEP)

    def test_shared_profiles_survive_unprofilable_workloads(self):
        """Regression: an unknown model in a multi-device group must not
        crash the eager profiling pass — its cells fail individually."""
        with EstimationService(
            estimator=XMemEstimator(iterations=2), max_workers=2
        ) as service:
            cells = sweep(
                service,
                models=["MobileNetV3Small", "no-such-model"],
                batch_sizes=[4],
                devices=[RTX_3060, RTX_4060],
                optimizer="sgd",
            )
        good = [c for c in cells if c.result is not None]
        bad = [c for c in cells if c.error is not None]
        assert len(good) == 2 and len(bad) == 2
        assert all(c.workload.model == "no-such-model" for c in bad)

    def test_return_exceptions_keeps_good_results(self):
        requests = [
            (WORKLOAD, RTX_3060),
            (WorkloadConfig("nope", "adam", 8), RTX_3060),
            (WORKLOAD.with_batch_size(16), RTX_3060),
        ]
        with make_service() as service:
            results = estimate_many(service, requests, return_exceptions=True)
        assert results[0].peak_bytes == GiB
        assert isinstance(results[1], RequestRejectedError)
        assert results[2].peak_bytes == GiB

    def test_sweep_covers_grid_and_captures_errors(self):
        with make_service() as service:
            cells = sweep(
                service,
                models=["gpt2", "nope"],
                batch_sizes=[8, 16],
                devices=[RTX_3060, RTX_4060],
            )
        assert len(cells) == 8  # 2 models x 2 batches x 2 devices
        good = [c for c in cells if c.result is not None]
        bad = [c for c in cells if c.error is not None]
        assert len(good) == 4 and len(bad) == 4
        assert all(c.workload.model == "nope" for c in bad)
        assert all(c.fits for c in good)
        assert "estimated_peak_bytes" in good[0].as_dict()
        assert "error" in bad[0].as_dict()


class TestConcurrencyStress:
    def test_many_threads_many_workloads(self):
        """Hammer one service from 8 threads; counters must reconcile."""
        stub = StubEstimator()
        workloads = [WORKLOAD.with_batch_size(b) for b in (1, 2, 4, 8)]
        errors = []

        def client(seed):
            try:
                for index in range(25):
                    workload = workloads[(seed + index) % len(workloads)]
                    out = service.estimate(workload, RTX_3060)
                    assert out.peak_bytes == GiB
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with make_service(estimator=stub, max_workers=4) as service:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        stats = service.stats()["service"]
        assert stats["requests"] == 200
        # every request was answered exactly once, one way or another
        assert (
            stats["computed"] + stats["cache_hits"] + stats["deduplicated"]
            == 200
        )
        # at most one real estimate per distinct workload
        assert stub.calls == stats["computed"] == len(workloads)
