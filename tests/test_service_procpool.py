"""The process-pool execution driver (tentpole of the procpool PR).

The contract under test: :class:`ProcEstimationService` /
:class:`ProcServiceGateway` run the *same* sans-IO policy core as the
thread and asyncio drivers — byte-identical results, identical
rejection/shed accounting, single-flight dedup — while the estimator
itself executes in worker processes built once per process from a
picklable factory.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
import time
from dataclasses import replace
from functools import partial

import pytest

from repro.core.estimator import XMemEstimator
from repro.errors import (
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    EstimationService,
    ProcEstimationService,
    ProcServiceGateway,
    ServiceGateway,
    SyntheticEstimator,
    estimate_many,
)
from repro.service.context import ServiceRequest
from repro.service.procpool import default_estimator_factory, make_pool
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig
from tests.test_service_dispatch import SERVICE_DRIVERS, shut

WORKLOAD = WorkloadConfig("MobileNetV3Small", "adam", 4)

#: module-level partials: picklable under any start method
fast_synthetic = partial(SyntheticEstimator, work_seconds=0.0)
slow_synthetic = partial(SyntheticEstimator, work_seconds=0.05)
tiny_xmem = partial(XMemEstimator, iterations=1, curve=False)


# ----------------------------------------------------------------------
# envelope round trip (the invariant the driver depends on)
# ----------------------------------------------------------------------


class TestEnvelopeRoundTrip:
    def test_service_request_pickles_with_its_metadata(self):
        """The pool submits the request itself: the span context, the
        fault directive and the attempt in its metadata bag, its tenant
        and its QoS class all reach the worker."""
        request = ServiceRequest(
            workload=WORKLOAD,
            device=RTX_3060,
            fingerprint="fp-1",
            metadata={
                "telemetry": {"trace_id": "t-1", "span_id": "s-1"},
                "fault": {"kind": "worker_kill"},
                "attempt": 2,
            },
            tenant="acme",
            priority=2,
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        assert (clone.tenant, clone.priority) == ("acme", 2)
        assert clone.metadata["fault"] == {"kind": "worker_kill"}


# ----------------------------------------------------------------------
# single service
# ----------------------------------------------------------------------


class TestProcEstimationService:
    def test_results_byte_identical_to_direct_and_thread_driver(self):
        direct = tiny_xmem().estimate(WORKLOAD, RTX_3060)
        with ProcEstimationService(
            estimator_factory=tiny_xmem, max_workers=2
        ) as proc_service:
            via_processes = proc_service.estimate(WORKLOAD, RTX_3060)
        with EstimationService(
            estimator=tiny_xmem(), max_workers=2
        ) as thread_service:
            via_threads = thread_service.estimate(WORKLOAD, RTX_3060)
        assert via_processes.peak_bytes == direct.peak_bytes
        assert via_processes.detail == direct.detail
        assert via_threads.peak_bytes == via_processes.peak_bytes
        assert via_processes.predicts_oom() == direct.predicts_oom()

    def test_a_worker_answer_equals_the_in_process_answer(self):
        direct = tiny_xmem().estimate(WORKLOAD, RTX_3060)
        with ProcEstimationService(
            estimator_factory=tiny_xmem, max_workers=1
        ) as service:
            via_worker = service.estimate(WORKLOAD, RTX_3060)
        # the answer crossed a pickle: equal in every compared field but
        # the wall clock, its report equal key for key
        assert replace(
            via_worker, runtime_seconds=direct.runtime_seconds
        ) == direct
        assert list(via_worker.detail.items()) == list(direct.detail.items())
        assert via_worker.stage_sources == direct.stage_sources

    def test_cache_hit_and_stage_timings_cross_the_boundary(self):
        with ProcEstimationService(
            estimator_factory=tiny_xmem, max_workers=1
        ) as service:
            first = service.estimate(WORKLOAD, RTX_3060)
            second = service.estimate(WORKLOAD, RTX_3060)
            stats = service.stats()
        assert second is first  # the cached object itself
        assert stats["service"]["computed"] == 1
        assert stats["service"]["cache_hits"] == 1
        # the worker's staged breakdown was merged into parent metrics
        assert "simulate" in stats["service"]["stages"]
        assert stats["service"]["stages"]["simulate"]["count"] == 1
        # and the computing worker was attributed
        assert sum(stats["service"]["workers"].values()) == 1

    def test_single_flight_dedup_across_threads(self):
        with ProcEstimationService(
            estimator_factory=slow_synthetic, max_workers=1
        ) as service:
            futures = []

            def hammer():
                futures.append(service.submit(WORKLOAD, RTX_3060))

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = {id(f.result()) for f in futures}
            stats = service.stats()
        assert len(results) == 1  # every caller saw the same object
        assert stats["service"]["computed"] == 1
        assert stats["service"]["deduplicated"] >= 1

    def test_validation_rejects_synchronously_in_parent(self):
        with ProcEstimationService(
            estimator_factory=tiny_xmem, max_workers=1
        ) as service:
            with pytest.raises(RequestRejectedError):
                service.submit(
                    WorkloadConfig("no-such-model", "adam", 4), RTX_3060
                )
            stats = service.stats()
        assert stats["service"]["rejected"] == 1
        assert stats["service"]["computed"] == 0  # never hit the pool

    def test_estimate_many_shares_profiles_across_devices(self):
        requests = [(WORKLOAD, RTX_3060), (WORKLOAD, RTX_4060)]
        with ProcEstimationService(
            estimator_factory=tiny_xmem, max_workers=2
        ) as service:
            results = estimate_many(service, requests)
        direct = [tiny_xmem().estimate(w, d) for w, d in requests]
        assert [r.peak_bytes for r in results] == [
            r.peak_bytes for r in direct
        ]

    def test_drain_joins_inflight_without_losing_results(self):
        with ProcEstimationService(
            estimator_factory=slow_synthetic, max_workers=2
        ) as service:
            futures = [
                service.submit(
                    WorkloadConfig("MobileNetV3Small", "adam", 1 + i),
                    RTX_3060,
                )
                for i in range(4)
            ]
            assert service.drain(timeout=30)
            assert all(f.done() for f in futures)
            assert all(f.exception() is None for f in futures)
            with pytest.raises(ServiceClosedError):
                service.submit(WORKLOAD, RTX_3060)
        # close after drain is idempotent
        service.close()

    @pytest.mark.parametrize("driver", SERVICE_DRIVERS)
    def test_drain_racing_submit_unwinds_chain_and_reconciles_metrics(
        self, driver
    ):
        # a drain() can land between submit()'s intake gate and the
        # dispatch; the locked re-check must refuse the request *and*
        # unwind the already-entered middleware layers with a classified
        # outcome — on every driver, since the check is the machine's.
        # Deterministic reproduction: a middleware that flips the
        # draining flag while the chain is running — exactly the
        # interleaving a concurrent drain produces.
        from repro.service import ServiceMiddleware

        class DrainDuringHooks(ServiceMiddleware):
            name = "drain-during-hooks"

            def __init__(self):
                self.errors_seen = []

            def attach(self, service):
                self.service = service

            def on_request(self, request, ctx):
                self.service._draining = True  # the racing drain()
                return None

            def on_error(self, request, error, ctx):
                self.errors_seen.append(type(error).__name__)

        racer = DrainDuringHooks()

        async def main():
            service = SERVICE_DRIVERS[driver](
                fast_synthetic, middlewares=(racer,)
            )
            racer.attach(service)
            try:
                with pytest.raises(ServiceClosedError):
                    service.submit(WORKLOAD, RTX_3060)
                return service.stats()["service"], len(service._inflight)
            finally:
                await shut(service, wait=False)

        stats, inflight = asyncio.run(main())
        # the entered layer was unwound...
        assert racer.errors_seen == ["ServiceClosedError"]
        # ...and the counters still reconcile: every request is
        # classified exactly once
        assert stats["requests"] == 1
        assert stats["rejected"] == 1
        assert stats["computed"] == stats["errors"] == 0
        assert inflight == 0

    def test_dispatch_failure_releases_single_flight(self):
        service = ProcEstimationService(
            estimator_factory=fast_synthetic, max_workers=1
        )
        try:
            # break the substrate out from under the service: dispatch
            # must fail through the future, not hang a single-flight slot
            service._executor.shutdown(wait=True)
            future = service.submit(WORKLOAD, RTX_3060)
            with pytest.raises(RuntimeError):
                future.result(timeout=10)
            assert len(service._inflight) == 0
            assert service.stats()["service"]["errors"] == 1
        finally:
            service.close(wait=False)

    @pytest.mark.slow
    def test_spawn_context_with_picklable_factory(self):
        # the spawn start method re-imports everything in the child and
        # pickles the factory: proves the envelope + factory really are
        # substrate-portable, not fork-dependent
        with ProcEstimationService(
            estimator_factory=fast_synthetic,
            max_workers=1,
            mp_context="spawn",
        ) as service:
            result = service.estimate(WORKLOAD, RTX_3060)
        assert result.peak_bytes == fast_synthetic().estimate(
            WORKLOAD, RTX_3060
        ).peak_bytes


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------


class TestProcServiceGateway:
    def test_routing_and_fleet_aggregation(self):
        with ProcServiceGateway(
            num_shards=2, estimator_factory=fast_synthetic, pool_workers=2
        ) as gateway:
            workloads = [
                WorkloadConfig("MobileNetV3Small", "adam", 1 + i)
                for i in range(6)
            ]
            for workload in workloads:
                gateway.estimate(workload, RTX_3060)
            stats = gateway.stats()
        aggregate = stats["aggregate"]
        assert aggregate["computed"] == 6
        assert stats["gateway"]["requests"] == 6
        assert stats["gateway"]["pool_workers"] == 2
        # every computed estimate is attributed to a real worker PID
        assert sum(aggregate["workers"].values()) == 6

    def test_matches_thread_gateway_decisions(self):
        workloads = [
            WorkloadConfig("MobileNetV3Small", "sgd", 1 + i) for i in range(5)
        ]
        with ProcServiceGateway(
            num_shards=3, estimator_factory=fast_synthetic, pool_workers=2
        ) as proc_gateway, ServiceGateway(
            num_shards=3, estimator_factory=fast_synthetic
        ) as thread_gateway:
            for workload in workloads:
                # same fingerprint, same default hash ring -> same shard
                assert proc_gateway.shard_for(
                    workload, RTX_3060
                ) == thread_gateway.shard_for(workload, RTX_3060)
                assert proc_gateway.estimate(
                    workload, RTX_3060
                ).peak_bytes == thread_gateway.estimate(
                    workload, RTX_3060
                ).peak_bytes

    def test_shed_when_queue_full(self):
        from repro.errors import RateLimitExceededError

        with ProcServiceGateway(
            num_shards=1,
            estimator_factory=slow_synthetic,
            pool_workers=1,
            max_queue_depth=2,
        ) as gateway:
            futures, shed = [], 0
            for index in range(6):
                try:
                    futures.append(
                        gateway.submit(
                            WorkloadConfig(
                                "MobileNetV3Small", "adam", 1 + index
                            ),
                            RTX_3060,
                        )
                    )
                except RateLimitExceededError:
                    shed += 1
            for future in futures:
                future.result(timeout=30)
            stats = gateway.stats()
        assert shed > 0
        assert stats["gateway"]["shed"] == shed
        assert stats["aggregate"]["computed"] == len(futures)

    def test_drain_then_close_is_clean(self):
        with ProcServiceGateway(
            num_shards=2, estimator_factory=slow_synthetic, pool_workers=2
        ) as gateway:
            futures = [
                gateway.submit(
                    WorkloadConfig("MobileNetV3Small", "adam", 1 + i),
                    RTX_3060,
                )
                for i in range(4)
            ]
            assert gateway.drain(timeout=30)
            assert gateway.pending() == 0
            assert all(f.exception() is None for f in futures)
            with pytest.raises(ServiceClosedError):
                gateway.submit(WORKLOAD, RTX_3060)
        gateway.close()  # idempotent


# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------


class TestWorkerDeathRecovery:
    """A planned ``worker_kill`` takes a worker process down mid-request;
    the supervisor rebuilds the pool and the request is re-dispatched —
    exactly once answered, with ledger provenance."""

    def test_killed_worker_is_rebuilt_and_request_redispatched(self):
        from repro.service import FaultPlan, FaultSpec, Telemetry

        plan = FaultPlan.from_specs(
            [FaultSpec(kind="worker_kill", index=0)]
        )
        telemetry = Telemetry()
        workloads = [
            WorkloadConfig("MobileNetV3Small", "adam", 1 + i)
            for i in range(4)
        ]
        with ProcServiceGateway(
            num_shards=2,
            estimator_factory=fast_synthetic,
            pool_workers=2,
            fault_plan=plan,
            telemetry=telemetry,
        ) as gateway:
            results = [gateway.estimate(w, RTX_3060) for w in workloads]
            stats = gateway.stats()
        direct = [fast_synthetic().estimate(w, RTX_3060) for w in workloads]
        assert results == direct  # the kill never changed an answer
        assert stats["gateway"]["pool_rebuilds"] >= 1
        assert stats["gateway"]["faults"]["injected"] == {"worker_kill": 1}
        redispatches = [
            event
            for event in telemetry.ledger.events(event="retry")
            if event.cause == "worker_death"
        ]
        assert len(redispatches) == 1


class TestPool:
    def test_make_pool_validates_workers(self):
        with pytest.raises(ValueError):
            make_pool(0, default_estimator_factory)

    def test_workers_reuse_one_estimator_per_process(self):
        # same fingerprint twice, forced past the cache: the per-worker
        # estimator is built once (initializer), so both calls land on a
        # warmed instance — observable through the pipeline's stage cache
        with ProcEstimationService(
            estimator_factory=tiny_xmem,
            max_workers=1,
            middlewares=(),  # no cache middleware: every call computes
        ) as service:
            first = service.estimate(WORKLOAD, RTX_3060)
            # distinct fingerprint metadata not needed: without a cache
            # middleware the second identical request recomputes
            time.sleep(0.01)
            second = service.estimate(WORKLOAD, RTX_3060)
            stats = service.stats()
        assert stats["service"]["computed"] == 2
        assert first.peak_bytes == second.peak_bytes
        # the second run hit the worker's warmed stage caches
        assert second.stage_cached.get("profile", False)


class TestProcpoolTelemetryIdentity:
    """The process driver keeps the telemetry invariants of the others.

    Worker-side stage spans cross the pickle boundary as plain dicts and
    re-attach under the parent request span, so the canonical trees and
    the ledger decision sequence match the thread driver exactly for a
    deterministic trace (unique fingerprints within each wave — see
    ``test_service_telemetry.py`` for why intra-wave duplicates are
    excluded).
    """

    @staticmethod
    def _trace():
        from repro.service.traffic import TrafficRequest, TrafficTrace

        workloads = [
            WorkloadConfig("MobileNetV3Small", "sgd", size)
            for size in (1, 2, 4, 8)
        ]
        requests = [
            TrafficRequest(workload=workload, device=RTX_3060, wave=wave)
            for wave in range(3)
            for workload in workloads
        ]
        return TrafficTrace(
            scenario="handbuilt", seed=0, requests=tuple(requests)
        )

    def test_span_trees_and_decisions_match_thread_driver(self):
        from repro.service import (
            Telemetry,
            canonical_trace_trees,
            make_policy,
            replay,
        )

        trace = self._trace()
        proc_telemetry = Telemetry(detail="full")
        with ProcServiceGateway(
            num_shards=2,
            estimator_factory=fast_synthetic,
            policy=make_policy("hash", 2, seed=0),
            pool_workers=2,
            telemetry=proc_telemetry,
        ) as gateway:
            proc_report = replay(trace, gateway)
        thread_telemetry = Telemetry(detail="full")
        with ServiceGateway(
            num_shards=2,
            estimator_factory=fast_synthetic,
            policy=make_policy("hash", 2, seed=0),
            telemetry=thread_telemetry,
        ) as gateway:
            thread_report = replay(trace, gateway)
        assert proc_report.answered == thread_report.answered == len(trace)
        assert canonical_trace_trees(
            proc_telemetry.spans()
        ) == canonical_trace_trees(thread_telemetry.spans())
        assert (
            proc_telemetry.ledger.decision_sequence()
            == thread_telemetry.ledger.decision_sequence()
        )
        # computed decisions carry worker provenance only on this driver
        computed = proc_telemetry.ledger.events(event="computed")
        assert computed and all(e.worker for e in computed)
