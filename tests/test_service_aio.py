"""Asyncio driver: the same sans-IO core on an event-loop substrate.

Everything policy-level (middleware onion, cache, single-flight,
routing, shed accounting) is shared with the thread driver through
:mod:`repro.service.core`; these tests pin that the asyncio driver
executes it faithfully — byte-identical results, identical counters,
graceful drain — without pytest-asyncio (each test drives its own
``asyncio.run``).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.estimator import XMemEstimator
from repro.errors import (
    DeadlineExceededError,
    EstimationError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    AsyncEstimationService,
    AsyncServiceGateway,
    EstimationService,
    RateLimitMiddleware,
    ServiceGateway,
    SyntheticEstimator,
    ValidationMiddleware,
    default_middlewares,
    generate_traffic,
    replay,
    replay_async,
)
from repro.service.cache import EstimateCache
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)
OTHER = WorkloadConfig("MobileNetV2", "adam", 16)


class GatedSyntheticEstimator(SyntheticEstimator):
    """Blocks every estimate on a (threading) event — the estimator runs
    on the driver's executor threads, so a thread gate works for both."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def estimate(self, workload, device):
        assert self.gate.wait(timeout=10), "gate never opened"
        return super().estimate(workload, device)


class TestAsyncService:
    def test_results_byte_identical_to_direct_and_thread_driver(self):
        workload = WorkloadConfig("MobileNetV3Small", "sgd", 8)
        direct = XMemEstimator(iterations=1).estimate(workload, RTX_3060)
        with EstimationService(
            estimator=XMemEstimator(iterations=1)
        ) as threaded_service:
            threaded = threaded_service.estimate(workload, RTX_3060)

        async def main():
            async with AsyncEstimationService(
                estimator=XMemEstimator(iterations=1)
            ) as service:
                return await service.estimate(workload, RTX_3060)

        evented = asyncio.run(main())
        for served in (threaded, evented):
            assert served.peak_bytes == direct.peak_bytes
            assert served.detail == direct.detail
            assert served.predicts_oom() == direct.predicts_oom()

    def test_single_flight_dedup_costs_one_estimation(self):
        async def main():
            estimator = SyntheticEstimator(work_seconds=0.005)
            async with AsyncEstimationService(estimator=estimator) as service:
                futures = [
                    service.submit(WORKLOAD, RTX_3060) for _ in range(16)
                ]
                # each caller owns its future (cancellation isolation),
                # but all of them mirror one shared estimation
                assert len(set(map(id, futures))) == 16
                results = await asyncio.gather(*futures)
                stats = service.stats()["service"]
            assert estimator.calls == 1
            assert all(result is results[0] for result in results)
            assert stats["requests"] == 16
            assert stats["computed"] == 1
            assert stats["deduplicated"] == 15

        asyncio.run(main())

    def test_cancelling_one_caller_does_not_poison_duplicates(self):
        # regression: asyncio futures are cancellable (wait_for cancels
        # on timeout) — one impatient caller must not discard the shared
        # estimation the other piggybackers are still waiting on
        async def main():
            estimator = GatedSyntheticEstimator()
            service = AsyncEstimationService(estimator=estimator)
            patient = service.submit(WORKLOAD, RTX_3060)
            impatient = service.submit(WORKLOAD, RTX_3060)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(impatient, timeout=0.05)
            estimator.gate.set()
            result = await patient  # survived the sibling's cancellation
            assert result.peak_bytes > 0
            assert estimator.calls == 1
            await service.aclose()

        asyncio.run(main())

    def test_cache_hit_answers_on_the_loop(self):
        async def main():
            estimator = SyntheticEstimator()
            async with AsyncEstimationService(estimator=estimator) as service:
                first = await service.estimate(WORKLOAD, RTX_3060)
                second = await service.estimate(WORKLOAD, RTX_3060)
                stats = service.stats()
            assert estimator.calls == 1
            assert second is first  # literally the cached object
            assert stats["service"]["cache_hits"] == 1
            assert stats["cache"]["hits"] == 1

        asyncio.run(main())

    def test_estimator_failure_shares_one_exception_and_releases_slot(self):
        class FailingEstimator(SyntheticEstimator):
            def estimate(self, workload, device):
                super().estimate(workload, device)
                raise EstimationError("boom")

        async def main():
            estimator = FailingEstimator()
            async with AsyncEstimationService(estimator=estimator) as service:
                futures = [
                    service.submit(WORKLOAD, RTX_3060) for _ in range(4)
                ]
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                assert all(o is outcomes[0] for o in outcomes)
                assert isinstance(outcomes[0], EstimationError)
                # the single-flight slot was released: a retry re-estimates
                assert len(service._inflight) == 0
                assert estimator.calls == 1

        asyncio.run(main())

    def test_validation_rejects_synchronously(self):
        async def main():
            async with AsyncEstimationService(
                estimator=SyntheticEstimator(),
                middlewares=(ValidationMiddleware(),),
            ) as service:
                with pytest.raises(RequestRejectedError):
                    service.submit(
                        WorkloadConfig("no-such-model", "sgd", 8), RTX_3060
                    )
                assert service.stats()["service"]["rejected"] == 1

        asyncio.run(main())

    def test_rate_limit_throttles_without_a_bound_lock(self):
        async def main():
            middleware = RateLimitMiddleware(
                rate_per_second=1, burst=1, clock=lambda: 0.0
            )
            async with AsyncEstimationService(
                estimator=SyntheticEstimator(), middlewares=(middleware,)
            ) as service:
                await service.estimate(WORKLOAD, RTX_3060)
                with pytest.raises(RateLimitExceededError):
                    service.submit(WORKLOAD, RTX_3060)
                assert service.stats()["service"]["throttled"] == 1

        asyncio.run(main())

    def test_expired_deadline_is_rejected_before_any_work(self):
        async def main():
            estimator = SyntheticEstimator()
            async with AsyncEstimationService(estimator=estimator) as service:
                with pytest.raises(DeadlineExceededError):
                    service.submit(WORKLOAD, RTX_3060, deadline=0.0)
                assert estimator.calls == 0
                assert service.stats()["service"]["rejected"] == 1

        asyncio.run(main())

    def test_expired_deadline_never_piggybacks_on_inflight_duplicates(self):
        # regression: the dedup fast path must not outrank the deadline
        # check — an expired caller is rejected even when an identical
        # request is in flight (both drivers)
        async def main():
            estimator = GatedSyntheticEstimator()
            service = AsyncEstimationService(estimator=estimator)
            leader = service.submit(WORKLOAD, RTX_3060)
            with pytest.raises(DeadlineExceededError):
                service.submit(WORKLOAD, RTX_3060, deadline=0.0)
            stats = service.stats()["service"]
            assert stats["rejected"] == 1
            assert stats["deduplicated"] == 0
            estimator.gate.set()
            assert (await leader).peak_bytes > 0
            await service.aclose()

        asyncio.run(main())

        gate = threading.Event()
        estimator = SyntheticEstimator()
        original = estimator.estimate
        estimator.estimate = lambda w, d: (
            gate.wait(timeout=10),
            original(w, d),
        )[1]
        with EstimationService(estimator=estimator) as service:
            leader = service.submit(WORKLOAD, RTX_3060)
            with pytest.raises(DeadlineExceededError):
                service.submit(WORKLOAD, RTX_3060, deadline=0.0)
            stats = service.stats()["service"]
            assert stats["rejected"] == 1
            assert stats["deduplicated"] == 0
            gate.set()
            assert leader.result(timeout=10).peak_bytes > 0

    def test_deadline_middleware_budget_rejects_before_dispatch(self):
        # regression: a budget stamped *by* a hook must be enforced by
        # the core's post-chain check — the estimator is never invoked
        from repro.service.middleware import DeadlineMiddleware

        async def main():
            estimator = SyntheticEstimator()
            async with AsyncEstimationService(
                estimator=estimator,
                middlewares=(DeadlineMiddleware(budget_seconds=1e-9),),
            ) as service:
                with pytest.raises(DeadlineExceededError):
                    service.submit(WORKLOAD, RTX_3060)
                assert estimator.calls == 0
                assert service.stats()["service"]["rejected"] == 1

            # through a gateway the miss is a *rejection* in the fleet
            # counters too (DeadlineExceededError ⊂ RequestRejectedError)
            shard = AsyncEstimationService(
                estimator=SyntheticEstimator(),
                middlewares=(DeadlineMiddleware(budget_seconds=1e-9),),
            )
            gateway = AsyncServiceGateway(shards=[shard])
            with pytest.raises(DeadlineExceededError):
                gateway.submit(WORKLOAD, RTX_3060)
            stats = gateway.stats()["gateway"]
            assert stats["rejected"] == 1
            assert stats["pending"] == 0
            await gateway.aclose()

        asyncio.run(main())

        estimator = SyntheticEstimator()
        with EstimationService(
            estimator=estimator,
            middlewares=(DeadlineMiddleware(budget_seconds=1e-9),),
        ) as service:
            with pytest.raises(DeadlineExceededError):
                service.submit(WORKLOAD, RTX_3060)
            assert estimator.calls == 0
            assert service.stats()["service"]["rejected"] == 1

    def test_aclose_without_wait_does_not_block_on_inflight_work(self):
        # regression: aclose(wait=False) must return promptly even while
        # an estimate is stuck, mirroring the thread close(wait=False)
        async def main():
            estimator = GatedSyntheticEstimator()
            service = AsyncEstimationService(estimator=estimator)
            future = service.submit(WORKLOAD, RTX_3060)
            await asyncio.wait_for(service.aclose(wait=False), timeout=1)
            with pytest.raises(ServiceClosedError):
                service.submit(OTHER, RTX_3060)
            estimator.gate.set()  # let the stragglers finish cleanly
            assert (await future).peak_bytes > 0

        asyncio.run(main())

    def test_estimate_many_preserves_order_and_captures_errors(self):
        async def main():
            cache = EstimateCache()
            async with AsyncEstimationService(
                estimator=SyntheticEstimator(),
                middlewares=default_middlewares(cache),
                cache=cache,
            ) as service:
                requests = [
                    (WORKLOAD, RTX_3060),
                    (WorkloadConfig("no-such-model", "sgd", 8), RTX_3060),
                    (OTHER, RTX_4060),
                    (WORKLOAD, RTX_3060),  # duplicate: dedup or cache
                ]
                results = await service.estimate_many(
                    requests, return_exceptions=True
                )
            assert len(results) == 4
            assert isinstance(results[1], RequestRejectedError)
            assert results[0].peak_bytes == results[3].peak_bytes
            assert results[2].workload == OTHER

        asyncio.run(main())

    def test_drain_stops_intake_and_waits_for_inflight(self):
        async def main():
            estimator = GatedSyntheticEstimator()
            service = AsyncEstimationService(estimator=estimator)
            future = service.submit(WORKLOAD, RTX_3060)
            drain_task = asyncio.ensure_future(service.drain(timeout=10))
            await asyncio.sleep(0.05)
            assert not drain_task.done()  # estimate still gated
            with pytest.raises(ServiceClosedError):
                service.submit(OTHER, RTX_3060)  # intake already closed
            estimator.gate.set()
            assert await drain_task is True
            result = await future  # the in-flight request was not lost
            assert result.peak_bytes > 0
            await service.aclose()
            await service.aclose()  # idempotent

        asyncio.run(main())


class TestAsyncGateway:
    def test_repeats_route_to_the_same_shard_and_hit_cache(self):
        async def main():
            estimators = []

            def factory():
                estimator = SyntheticEstimator()
                estimators.append(estimator)
                return estimator

            async with AsyncServiceGateway(
                num_shards=4, estimator_factory=factory
            ) as gateway:
                for _ in range(6):
                    await gateway.estimate(WORKLOAD, RTX_3060)
                stats = gateway.stats()
            assert sum(e.calls for e in estimators) == 1
            assert stats["aggregate"]["cache_hits"] == 5
            routed = stats["gateway"]["routed_per_shard"]
            assert sorted(routed) == [0, 0, 0, 6]

        asyncio.run(main())

    def test_full_queue_sheds_and_drain_does_not_double_count(self):
        async def main():
            estimator = GatedSyntheticEstimator()
            shard = AsyncEstimationService(estimator=estimator, max_workers=2)
            gateway = AsyncServiceGateway(shards=[shard], max_queue_depth=2)
            first = gateway.submit(WORKLOAD, RTX_3060)
            second = gateway.submit(OTHER, RTX_3060)
            with pytest.raises(RateLimitExceededError) as info:
                gateway.submit(WorkloadConfig("MobileNetV2", "sgd", 32), RTX_3060)
            assert info.value.retry_after_seconds > 0
            assert gateway.stats()["gateway"]["shed"] == 1
            drain_task = asyncio.ensure_future(gateway.drain(timeout=10))
            await asyncio.sleep(0.05)
            assert not drain_task.done()
            estimator.gate.set()
            assert await drain_task is True
            # no lost results: both admitted futures resolve
            results = await asyncio.gather(first, second)
            assert all(r.peak_bytes > 0 for r in results)
            stats = gateway.stats()["gateway"]
            assert stats["shed"] == 1  # drain did not double-shed
            assert stats["pending"] == 0
            with pytest.raises(ServiceClosedError):
                gateway.submit(WORKLOAD, RTX_3060)
            await gateway.aclose()
            await gateway.aclose()  # idempotent

        asyncio.run(main())

    def test_drain_times_out_while_work_is_stuck(self):
        async def main():
            estimator = GatedSyntheticEstimator()
            shard = AsyncEstimationService(estimator=estimator)
            gateway = AsyncServiceGateway(shards=[shard])
            gateway.submit(WORKLOAD, RTX_3060)
            assert await gateway.drain(timeout=0.05) is False
            estimator.gate.set()
            assert await gateway.drain(timeout=10) is True
            await gateway.aclose()

        asyncio.run(main())

    def test_replay_matches_thread_driver_accounting(self):
        for scenario in ("uniform", "adversarial"):
            trace = generate_traffic(scenario, 120, seed=7)
            with ServiceGateway(
                num_shards=2, estimator_factory=SyntheticEstimator
            ) as gateway:
                threaded = replay(trace, gateway)

            async def main():
                async with AsyncServiceGateway(
                    num_shards=2, estimator_factory=SyntheticEstimator
                ) as gateway:
                    return await replay_async(trace, gateway)

            evented = asyncio.run(main())
            assert evented.answered == threaded.answered
            assert evented.rejected == threaded.rejected
            assert evented.shed == threaded.shed == 0
            assert evented.errors == threaded.errors == 0


class TestAdmissionControllerAsync:
    def test_decide_async_matches_blocking_path(self):
        from repro.cluster import ServiceAdmissionController

        workloads = [
            WorkloadConfig("MobileNetV2", "sgd", 8),
            WorkloadConfig("no-such-model", "sgd", 8),
        ]
        with EstimationService(estimator=SyntheticEstimator()) as service:
            controller = ServiceAdmissionController(
                service, devices=[RTX_3060]
            )
            blocking = [controller.decide(w) for w in workloads]

        async def main():
            async with AsyncEstimationService(
                estimator=SyntheticEstimator()
            ) as service:
                controller = ServiceAdmissionController(
                    service, devices=[RTX_3060]
                )
                return [
                    await controller.decide_async(w) for w in workloads
                ]

        evented = asyncio.run(main())
        assert [d.admitted for d in evented] == [
            d.admitted for d in blocking
        ]
        assert [d.reserved_bytes for d in evented] == [
            d.reserved_bytes for d in blocking
        ]
