"""ServiceGateway: routing policies, backpressure, aggregation, drain."""

import threading

import pytest

from repro.errors import (
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    ConsistentHashRouting,
    EstimationService,
    ServiceGateway,
    SyntheticEstimator,
    make_policy,
)
from repro.service.core import aggregate_shard_stats
from repro.service.routing import (
    LeastLoadedRouting,
    RandomRouting,
)
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)


def make_gateway(**kwargs):
    kwargs.setdefault("estimator_factory", SyntheticEstimator)
    kwargs.setdefault("num_shards", 4)
    return ServiceGateway(**kwargs)


class TestRoutingPolicies:
    def test_consistent_hash_is_deterministic_and_covers_shards(self):
        policy = ConsistentHashRouting(num_shards=4)
        keys = [f"fingerprint-{i}" for i in range(256)]
        first = [policy.shard_for(key) for key in keys]
        second = [policy.shard_for(key) for key in keys]
        assert first == second
        assert set(first) == {0, 1, 2, 3}  # every shard owns key space

    def test_consistent_hash_spread_is_roughly_balanced(self):
        policy = ConsistentHashRouting(num_shards=4)
        counts = [0, 0, 0, 0]
        for i in range(2000):
            counts[policy.shard_for(f"key-{i}")] += 1
        assert min(counts) > 2000 / 4 * 0.5  # vnodes smooth the split

    def test_resize_remaps_only_a_fraction_of_keys(self):
        small = ConsistentHashRouting(num_shards=4)
        large = ConsistentHashRouting(num_shards=5)
        keys = [f"key-{i}" for i in range(1000)]
        moved = sum(
            1 for key in keys if small.shard_for(key) != large.shard_for(key)
        )
        # naive modulo hashing would move ~80%; the ring moves ~1/5
        assert moved < 400

    def test_least_loaded_picks_shortest_queue(self):
        policy = LeastLoadedRouting()
        assert policy.select("any", [3, 1, 2]) == 1
        assert policy.select("any", [0, 0, 5]) == 0  # tie -> lowest

    def test_random_routing_is_seed_deterministic(self):
        loads = [0, 0, 0, 0]
        sequence1 = RandomRouting(seed=7)
        sequence2 = RandomRouting(seed=7)
        picks1 = [sequence1.select("x", loads) for _ in range(32)]
        picks2 = [sequence2.select("x", loads) for _ in range(32)]
        assert picks1 == picks2
        assert set(picks1) <= {0, 1, 2, 3}

    def test_make_policy_names(self):
        for name in ("hash", "random", "least_loaded"):
            assert make_policy(name, 4).name == name
        with pytest.raises(ValueError):
            make_policy("nope", 4)

    def test_invalid_ring_parameters(self):
        with pytest.raises(ValueError):
            ConsistentHashRouting(num_shards=0)
        with pytest.raises(ValueError):
            ConsistentHashRouting(num_shards=2, vnodes=0)


class TestGatewayRouting:
    def test_repeats_route_to_the_same_shard(self):
        with make_gateway() as gateway:
            shard = gateway.shard_for(WORKLOAD, RTX_3060)
            for _ in range(8):
                gateway.estimate(WORKLOAD, RTX_3060)
            stats = gateway.stats()
            routed = stats["gateway"]["routed_per_shard"]
            assert routed[shard] == 8
            assert sum(routed) == 8
            # shard-local cache served the repeats
            assert stats["aggregate"]["cache_hits"] == 7

    def test_gateway_result_matches_direct_estimator(self):
        reference = SyntheticEstimator().estimate(WORKLOAD, RTX_3060)
        with make_gateway() as gateway:
            served = gateway.estimate(WORKLOAD, RTX_3060)
        assert served.peak_bytes == reference.peak_bytes
        assert served.workload == reference.workload

    def test_least_loaded_ignores_the_fingerprint(self):
        with make_gateway(policy=LeastLoadedRouting()) as gateway:
            for _ in range(8):
                gateway.estimate(WORKLOAD, RTX_3060)
                # the pending slot frees in a done-callback that can lag
                # result(): wait so the next request sees an empty fleet
                deadline = 100
                while gateway.pending() > 0 and deadline > 0:
                    threading.Event().wait(0.01)
                    deadline -= 1
            routed = gateway.stats()["gateway"]["routed_per_shard"]
            # each request found every queue empty, and the tie-break
            # ignores the key: all land on shard 0
            assert routed[0] == 8

    def test_explicit_shards_are_adopted(self):
        shards = [
            EstimationService(estimator=SyntheticEstimator(), max_workers=1)
            for _ in range(2)
        ]
        with ServiceGateway(shards=shards) as gateway:
            assert gateway.num_shards == 2
            assert gateway.shards == tuple(shards)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ServiceGateway(num_shards=0)
        with pytest.raises(ValueError):
            ServiceGateway(shards=[])
        with pytest.raises(ValueError):
            make_gateway(max_queue_depth=0)


class TestBackpressure:
    def test_full_queue_sheds_with_retry_hint(self):
        gate = threading.Event()
        estimator = SyntheticEstimator()
        original = estimator.estimate

        def gated(workload, device):
            assert gate.wait(timeout=10)
            return original(workload, device)

        estimator.estimate = gated
        service = EstimationService(estimator=estimator, max_workers=1)
        gateway = ServiceGateway(shards=[service], max_queue_depth=2)
        try:
            futures = [
                gateway.submit(WORKLOAD.with_batch_size(1 + i), RTX_3060)
                for i in range(2)
            ]
            with pytest.raises(RateLimitExceededError) as excinfo:
                gateway.submit(WORKLOAD.with_batch_size(3), RTX_3060)
            assert excinfo.value.retry_after_seconds > 0
            assert gateway.stats()["gateway"]["shed"] == 1
            gate.set()
            for future in futures:
                future.result(timeout=10)
            # done-callbacks may lag result(): wait for the slots to free
            deadline = 100
            while gateway.pending() > 0 and deadline > 0:
                threading.Event().wait(0.01)
                deadline -= 1
            # queue drained: the retry is admitted
            gateway.estimate(WORKLOAD.with_batch_size(3), RTX_3060)
        finally:
            gate.set()
            gateway.close()

    def test_shard_rejections_pass_through_and_are_counted(self):
        with make_gateway(num_shards=2) as gateway:
            with pytest.raises(RequestRejectedError):
                gateway.submit(
                    WorkloadConfig("no-such-model", "sgd", 8), RTX_3060
                )
            stats = gateway.stats()["gateway"]
            assert stats["rejected"] == 1
            assert stats["pending"] == 0  # the slot was released


class TestLifecycle:
    def test_drain_blocks_new_work_and_waits_for_inflight(self):
        gate = threading.Event()
        estimator = SyntheticEstimator()
        original = estimator.estimate

        def gated(workload, device):
            assert gate.wait(timeout=10)
            return original(workload, device)

        estimator.estimate = gated
        service = EstimationService(estimator=estimator, max_workers=1)
        gateway = ServiceGateway(shards=[service])
        future = gateway.submit(WORKLOAD, RTX_3060)
        drained = []
        waiter = threading.Thread(
            target=lambda: drained.append(gateway.drain(timeout=10))
        )
        waiter.start()
        gate.set()
        waiter.join(timeout=10)
        assert drained == [True]
        assert future.done()
        with pytest.raises(ServiceClosedError):
            gateway.submit(WORKLOAD, RTX_3060)
        gateway.close()

    def test_drain_times_out_while_work_is_stuck(self):
        gate = threading.Event()
        estimator = SyntheticEstimator()
        original = estimator.estimate

        def gated(workload, device):
            assert gate.wait(timeout=10)
            return original(workload, device)

        estimator.estimate = gated
        service = EstimationService(estimator=estimator, max_workers=1)
        gateway = ServiceGateway(shards=[service])
        gateway.submit(WORKLOAD, RTX_3060)
        assert gateway.drain(timeout=0.05) is False
        gate.set()
        assert gateway.drain(timeout=10) is True
        gateway.close()

    def test_close_is_idempotent_and_context_manager_closes(self):
        gateway = make_gateway(num_shards=2)
        with gateway:
            gateway.estimate(WORKLOAD, RTX_3060)
        gateway.close()  # second close is a no-op
        with pytest.raises(ServiceClosedError):
            gateway.submit(WORKLOAD, RTX_3060)

    def test_drain_with_inflight_loses_nothing_and_never_double_sheds(self):
        # satellite of the sans-IO PR: the thread-driver mirror of the
        # asyncio drain test — a full queue sheds exactly once, draining
        # with requests still gated resolves every admitted future, and
        # close stays idempotent afterwards
        gate = threading.Event()
        estimator = SyntheticEstimator()
        original = estimator.estimate

        def gated(workload, device):
            assert gate.wait(timeout=10)
            return original(workload, device)

        estimator.estimate = gated
        service = EstimationService(estimator=estimator, max_workers=2)
        gateway = ServiceGateway(shards=[service], max_queue_depth=2)
        first = gateway.submit(WORKLOAD, RTX_3060)
        second = gateway.submit(
            WorkloadConfig("MobileNetV2", "adam", 16), RTX_3060
        )
        with pytest.raises(RateLimitExceededError):
            gateway.submit(
                WorkloadConfig("MobileNetV2", "sgd", 32), RTX_3060
            )
        assert gateway.stats()["gateway"]["shed"] == 1
        drained = []
        waiter = threading.Thread(
            target=lambda: drained.append(gateway.drain(timeout=10))
        )
        waiter.start()
        gate.set()
        waiter.join(timeout=10)
        assert drained == [True]
        # no lost results: both admitted futures resolved through drain
        assert first.result(timeout=10).peak_bytes > 0
        assert second.result(timeout=10).peak_bytes > 0
        stats = gateway.stats()["gateway"]
        assert stats["shed"] == 1  # draining did not double-shed
        assert stats["pending"] == 0
        gateway.close()
        gateway.close()  # idempotent after a drain with traffic


class TestAggregation:
    def test_stats_shape_and_totals(self):
        with make_gateway(num_shards=2) as gateway:
            gateway.estimate(WORKLOAD, RTX_3060)
            gateway.estimate(WORKLOAD, RTX_3060)
            gateway.estimate(WORKLOAD, RTX_4060)
            stats = gateway.stats()
        assert stats["gateway"]["requests"] == 3
        assert len(stats["shards"]) == 2
        aggregate = stats["aggregate"]
        assert aggregate["requests"] == 3
        assert aggregate["cache_hits"] == 1
        assert aggregate["computed"] == 2
        assert aggregate["cache_hit_rate"] == pytest.approx(1 / 3)
        assert aggregate["latency_seconds"]["count"] == 3
        assert aggregate["latency_seconds"]["p50"] is not None

    def test_aggregate_recomputes_rates_from_sums(self):
        # one busy shard (2 hits / 2 misses), one idle shard (all misses):
        # averaging per-shard rates would say 25%; the fleet truth is 2/6
        busy = {
            "service": {
                "requests": 4,
                "cache_hits": 2,
                "computed": 2,
                "deduplicated": 0,
                "rejected": 0,
                "throttled": 0,
                "errors": 0,
            },
            "cache": {
                "hits": 2,
                "misses": 2,
                "evictions": 0,
                "size": 2,
            },
            "inflight": 0,
        }
        idle = {
            "service": {
                "requests": 2,
                "cache_hits": 0,
                "computed": 2,
                "deduplicated": 0,
                "rejected": 0,
                "throttled": 0,
                "errors": 0,
            },
            "cache": {
                "hits": 0,
                "misses": 2,
                "evictions": 0,
                "size": 2,
            },
            "inflight": 1,
        }
        aggregate = aggregate_shard_stats([busy, idle], [0.1, 0.2, 0.3])
        assert aggregate["requests"] == 6
        assert aggregate["cache_hit_rate"] == pytest.approx(2 / 6)
        assert aggregate["cache"]["hit_rate"] == pytest.approx(2 / 6)
        assert aggregate["inflight"] == 1
        assert aggregate["latency_seconds"]["p50"] == pytest.approx(0.2)

    def test_empty_aggregate(self):
        aggregate = aggregate_shard_stats([])
        assert aggregate["requests"] == 0
        assert aggregate["cache_hit_rate"] == 0.0
        assert aggregate["latency_seconds"]["p50"] is None

    def test_idle_shard_reservoirs_do_not_poison_fleet_percentiles(self):
        # regression (sans-IO PR satellite): a fleet where some shards
        # never served a request must still merge — empty reservoirs
        # contribute nothing, a fully idle fleet reports None, and stray
        # None entries in the sample union are dropped, not compared
        with make_gateway(num_shards=4) as gateway:
            gateway.estimate(WORKLOAD, RTX_3060)  # exactly one busy shard
            stats = gateway.stats()
        fleet_latency = stats["aggregate"]["latency_seconds"]
        assert fleet_latency["count"] == 1
        assert fleet_latency["p50"] == fleet_latency["p95"]
        idle_shards = [
            shard
            for shard in stats["shards"]
            if shard["service"]["latency_seconds"]["count"] == 0
        ]
        assert len(idle_shards) == 3  # the merge really saw empty ones

        with make_gateway(num_shards=2) as gateway:
            fresh = gateway.stats()  # fully idle fleet, zero samples
        assert fresh["aggregate"]["latency_seconds"]["p95"] is None
        assert fresh["aggregate"]["latency_seconds"]["max"] is None

        shard_stats = [make_gateway(num_shards=1).stats()["shards"][0]]
        merged = aggregate_shard_stats(shard_stats, [None, 0.25, None])
        assert merged["latency_seconds"]["count"] == 1
        assert merged["latency_seconds"]["p50"] == pytest.approx(0.25)

    def test_partial_snapshot_from_dead_worker_does_not_raise(self):
        # regression (process-pool PR satellite): a shard whose substrate
        # worker died mid-request can surface a *partial* stats dict —
        # counters missing, cache block absent, even the whole service
        # section gone.  The fleet merge must count what is there and
        # treat the rest as zero, never KeyError.
        healthy = {
            "service": {
                "requests": 4,
                "cache_hits": 1,
                "computed": 3,
                "deduplicated": 0,
                "rejected": 0,
                "throttled": 0,
                "errors": 0,
                "stages": {
                    "simulate": {"count": 3, "total_seconds": 0.3}
                },
                "workers": {"101": 3},
            },
            "cache": {
                "hits": 1,
                "misses": 3,
                "evictions": 0,
                "size": 3,
            },
            "inflight": 0,
        }
        truncated = {
            # worker died while serializing: only some counters made it
            "service": {
                "requests": 2,
                "errors": 1,
                "stages": {"simulate": {"count": 1}},  # no total_seconds
                "workers": {"101": 1},
            },
            # no "cache" block at all
        }
        hollow = {}  # the shard process itself is gone
        aggregate = aggregate_shard_stats(
            [healthy, truncated, hollow], [0.1, 0.2]
        )
        assert aggregate["requests"] == 6
        assert aggregate["errors"] == 1
        assert aggregate["computed"] == 3
        assert aggregate["cache"]["hits"] == 1
        assert aggregate["stages"]["simulate"]["count"] == 4
        assert aggregate["stages"]["simulate"]["total_seconds"] == (
            pytest.approx(0.3)
        )
        # the shared-pool worker is summed across the shards that saw it
        assert aggregate["workers"] == {"101": 4}
        assert aggregate["latency_seconds"]["count"] == 2

    def test_percentile_validates_q_even_on_empty_reservoirs(self):
        from repro.service.metrics import percentile

        assert percentile([], 95) is None
        with pytest.raises(ValueError):
            percentile([], 150)  # bad q must not hide behind empty
