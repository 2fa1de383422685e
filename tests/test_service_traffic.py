"""Traffic scenarios: determinism, shape guarantees, replay accounting."""

import threading
from concurrent.futures import Future
from functools import partial

import pytest

from repro.service import (
    SCENARIO_NAMES,
    ServiceGateway,
    SyntheticEstimator,
    generate_traffic,
    replay,
)
from repro.service.traffic import (
    TrafficRequest,
    TrafficTrace,
    workload_catalog,
)
from repro.service.middleware import (
    RequestContext,
    ServiceRequest,
    ValidationMiddleware,
)
from repro.workload import RTX_3060


class TestCatalog:
    def test_deterministic_and_distinct(self):
        first = workload_catalog(12, seed=5)
        second = workload_catalog(12, seed=5)
        assert first == second
        assert len({w.to_key() for w in first}) == 12

    def test_different_seeds_differ(self):
        assert workload_catalog(12, seed=1) != workload_catalog(12, seed=2)

    def test_catalog_entries_pass_validation(self):
        middleware = ValidationMiddleware()
        for workload in workload_catalog(16, seed=0):
            request = ServiceRequest(
                workload=workload, device=RTX_3060, fingerprint="x"
            )
            ctx = RequestContext(request_id=1, submitted_at=0.0)
            assert middleware.on_request(request, ctx) is None

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            workload_catalog(0)
        with pytest.raises(ValueError):
            workload_catalog(10_000)


class TestGeneration:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_deterministic_per_seed(self, scenario):
        first = generate_traffic(scenario, 80, seed=9)
        second = generate_traffic(scenario, 80, seed=9)
        assert first == second
        assert len(first) == 80

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_waves_partition_the_trace(self, scenario):
        trace = generate_traffic(scenario, 50, seed=0, waves=5)
        waves = trace.waves()
        assert sum(len(wave) for wave in waves) == 50
        assert len(waves) == 5

    def test_zipf_concentrates_on_a_hot_key(self):
        trace = generate_traffic("zipf", 300, seed=0, unique_workloads=8)
        counts: dict = {}
        for request in trace.requests:
            key = (request.workload.to_key(), request.device.to_key())
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts.values())
        assert hottest > 300 / 8  # far above the uniform share

    def test_duplicate_storm_is_mostly_one_request(self):
        trace = generate_traffic("duplicate-storm", 200, seed=1)
        counts: dict = {}
        for request in trace.requests:
            key = (request.workload.to_key(), request.device.to_key())
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) > 0.7 * 200

    def test_adversarial_never_repeats_its_cache_busters(self):
        trace = generate_traffic("adversarial", 90, seed=0)
        busters = [
            r.workload
            for r in trace.requests
            if r.workload.batch_size >= 64
        ]
        assert busters  # a third of the stream
        assert len({w.to_key() for w in busters}) == len(busters)

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("num_requests", (1, 2, 3))
    def test_size_contract_holds_below_wave_count(
        self, scenario, num_requests
    ):
        # fewer requests than waves must still produce exactly the asked
        # number (bursty used to pad every wave to at least one request)
        trace = generate_traffic(scenario, num_requests, seed=0, waves=4)
        assert len(trace) == num_requests

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            generate_traffic("tsunami", 10)
        with pytest.raises(ValueError):
            generate_traffic("uniform", 0)
        with pytest.raises(ValueError):
            generate_traffic("uniform", 10, waves=0)


class TestSyntheticEstimator:
    def test_deterministic_across_instances(self):
        catalog = workload_catalog(4, seed=0)
        first = SyntheticEstimator()
        second = SyntheticEstimator()
        for workload in catalog:
            a = first.estimate(workload, RTX_3060)
            b = second.estimate(workload, RTX_3060)
            assert a.peak_bytes == b.peak_bytes

    def test_distinct_requests_get_distinct_peaks(self):
        estimator = SyntheticEstimator()
        peaks = {
            estimator.estimate(workload, RTX_3060).peak_bytes
            for workload in workload_catalog(8, seed=0)
        }
        assert len(peaks) == 8

    def test_counts_calls(self):
        estimator = SyntheticEstimator()
        workload = workload_catalog(1, seed=0)[0]
        estimator.estimate(workload, RTX_3060)
        estimator.estimate(workload, RTX_3060)
        assert estimator.calls == 2


class TestReplay:
    def test_every_request_is_accounted_for(self):
        trace = generate_traffic("adversarial", 120, seed=0)
        with ServiceGateway(
            num_shards=2,
            estimator_factory=SyntheticEstimator,
            max_queue_depth=8,
        ) as gateway:
            report = replay(trace, gateway)
        assert (
            report.answered
            + report.shed
            + report.rejected
            + report.errors
            == 120
        )
        assert report.rejected > 0  # the invalid third was refused
        assert report.as_dict()["reject_rate"] == pytest.approx(
            report.rejected / 120
        )

    def test_replay_works_against_a_bare_service(self):
        from repro.service import EstimationService

        trace = generate_traffic("uniform", 30, seed=0)
        with EstimationService(
            estimator=SyntheticEstimator(), max_workers=2
        ) as service:
            report = replay(trace, service)
        assert report.answered == 30
        assert report.throughput_rps > 0


class _ScriptedTarget:
    """Settles each tenant's request as ``script[tenant]`` says:
    ``(seconds, "result" | "cancel")``; zero seconds settles at submit."""

    def __init__(self, script):
        self.script = script

    def submit(self, workload, device, tenant=""):
        future = Future()
        delay, outcome = self.script[tenant]
        if outcome == "cancel":
            settle = future.cancel
        else:
            settle = partial(future.set_result, tenant)
        if delay:
            threading.Timer(delay, settle).start()
        else:
            settle()
        return future

    def stats(self):
        return {}


def _one_wave(*tenants):
    workload = workload_catalog(1, seed=0)[0]
    return TrafficTrace(
        scenario="scripted",
        seed=0,
        requests=tuple(
            TrafficRequest(workload, RTX_3060, wave=0, tenant=tenant)
            for tenant in tenants
        ),
    )


class TestReplayLatency:
    def test_latency_is_read_when_the_future_settles(self):
        """A request answered at submit is not charged for an earlier,
        slower request of its wave (the join order)."""
        target = _ScriptedTarget(
            {"slow": (0.2, "result"), "fast": (0, "result")}
        )
        report = replay(_one_wave("slow", "fast"), target)
        assert report.answered == 2
        assert report.tenant_latency_ms("fast", 50) < 50
        assert report.tenant_latency_ms("slow", 50) >= 150

    def test_a_cancelled_future_is_an_error_and_the_wave_still_ends(self):
        target = _ScriptedTarget(
            {"gone": (0.05, "cancel"), "fast": (0, "result")}
        )
        report = replay(_one_wave("gone", "fast"), target)
        assert report.answered == 1
        assert report.errors == 1
        assert report.tenants["gone"]["errors"] == 1
