"""Middleware chain: ordering, short-circuiting, error propagation."""

import pytest

from repro.core.result import EstimationResult
from repro.errors import RateLimitExceededError, RequestRejectedError
from repro.service.cache import EstimateCache
from repro.service.control import RateLimitMiddleware
from repro.service.middleware import (
    CacheMiddleware,
    MiddlewareChain,
    RequestContext,
    ServiceMiddleware,
    ServiceRequest,
    ValidationMiddleware,
)
from repro.units import GiB
from repro.workload import RTX_3060, DeviceSpec, WorkloadConfig

WORKLOAD = WorkloadConfig("gpt2", "adam", 8)


def make_request(workload=WORKLOAD, device=RTX_3060, fingerprint="fp"):
    return ServiceRequest(
        workload=workload, device=device, fingerprint=fingerprint
    )


def make_ctx():
    return RequestContext(request_id=1, submitted_at=0.0)


def make_result(peak=GiB, workload=WORKLOAD, device=RTX_3060):
    return EstimationResult(
        estimator="stub",
        workload=workload,
        device=device,
        peak_bytes=peak,
        runtime_seconds=0.0,
    )


class Recorder(ServiceMiddleware):
    """Logs hook invocations into a shared journal."""

    def __init__(self, label, journal, short_circuit=None, raises=None):
        self.name = label
        self.journal = journal
        self.short_circuit = short_circuit
        self.raises = raises

    def on_request(self, request, ctx):
        self.journal.append(f"{self.name}.request")
        if self.raises is not None:
            raise self.raises
        return self.short_circuit

    def on_result(self, request, result, ctx):
        self.journal.append(f"{self.name}.result")
        return None

    def on_error(self, request, error, ctx):
        self.journal.append(f"{self.name}.error")


class TestChainOrdering:
    def test_request_in_order_result_in_reverse(self):
        journal = []
        chain = MiddlewareChain(
            [Recorder(label, journal) for label in ("a", "b", "c")]
        )
        ctx = make_ctx()
        short, depth = chain.run_request(make_request(), ctx)
        assert short is None and depth == 3
        chain.run_result(make_request(), make_result(), ctx, depth)
        assert journal == [
            "a.request", "b.request", "c.request",
            "c.result", "b.result", "a.result",
        ]

    def test_short_circuit_skips_inner_layers(self):
        journal = []
        answer = make_result()
        chain = MiddlewareChain([
            Recorder("a", journal),
            Recorder("b", journal, short_circuit=answer),
            Recorder("c", journal),
        ])
        ctx = make_ctx()
        short, depth = chain.run_request(make_request(), ctx)
        assert short is answer
        assert depth == 1  # only `a` is owed an on_result
        assert ctx.short_circuited_by == "b"
        result = chain.run_result(make_request(), short, ctx, depth)
        assert result is answer
        # c never saw the request; b produced (not observed) the result
        assert journal == ["a.request", "b.request", "a.result"]

    def test_request_error_short_circuits_and_unwinds(self):
        journal = []
        boom = RequestRejectedError("nope")
        chain = MiddlewareChain([
            Recorder("a", journal),
            Recorder("b", journal, raises=boom),
            Recorder("c", journal),
        ])
        with pytest.raises(RequestRejectedError):
            chain.run_request(make_request(), make_ctx())
        assert journal == ["a.request", "b.request", "a.error"]

    def test_on_result_can_replace_result(self):
        replacement = make_result(peak=2 * GiB)

        class Replacer(ServiceMiddleware):
            def on_result(self, request, result, ctx):
                return replacement

        chain = MiddlewareChain([ServiceMiddleware(), Replacer()])
        out = chain.run_result(make_request(), make_result(), make_ctx())
        assert out is replacement

    def test_run_error_unwinds_all_entered_layers(self):
        journal = []
        chain = MiddlewareChain(
            [Recorder(label, journal) for label in ("a", "b")]
        )
        chain.run_error(make_request(), RuntimeError("x"), make_ctx())
        assert journal == ["b.error", "a.error"]


class TestCacheMiddleware:
    def test_miss_then_populate_then_hit(self):
        cache = EstimateCache()
        middleware = CacheMiddleware(cache)
        request, ctx = make_request(), make_ctx()
        assert middleware.on_request(request, ctx) is None
        assert not ctx.cache_hit
        result = make_result()
        middleware.on_result(request, result, ctx)
        ctx2 = make_ctx()
        assert middleware.on_request(request, ctx2) is result
        assert ctx2.cache_hit


class TestValidationMiddleware:
    def test_valid_request_passes(self):
        assert ValidationMiddleware().on_request(make_request(), make_ctx()) is None

    def test_unknown_model_rejected(self):
        request = make_request(workload=WorkloadConfig("nope", "adam", 8))
        with pytest.raises(RequestRejectedError, match="unknown model"):
            ValidationMiddleware().on_request(request, make_ctx())

    def test_unknown_optimizer_rejected(self):
        request = make_request(workload=WorkloadConfig("gpt2", "lion", 8))
        with pytest.raises(RequestRejectedError, match="unknown optimizer"):
            ValidationMiddleware().on_request(request, make_ctx())

    def test_unknown_optimizer_message_is_pinned(self):
        request = make_request(workload=WorkloadConfig("gpt2", "Lion", 8))
        with pytest.raises(RequestRejectedError) as raised:
            ValidationMiddleware().on_request(request, make_ctx())
        assert str(raised.value) == (
            "unknown optimizer 'Lion'; known: ['adafactor', 'adagrad', "
            "'adam', 'adamw', 'rmsprop', 'sgd', 'sgd_momentum']"
        )

    def test_a_valid_optimizer_is_checked_without_listing_the_registry(
        self, monkeypatch
    ):
        """The sorted list is built for the rejection text only."""
        import repro.service.middleware as middleware

        def listed():
            raise AssertionError("optimizer_names() on a valid request")

        monkeypatch.setattr(middleware, "optimizer_names", listed)
        for optimizer in ("adam", "AdamW", "SGD_momentum"):
            request = make_request(workload=WorkloadConfig("gpt2", optimizer, 8))
            assert ValidationMiddleware().on_request(request, make_ctx()) is None

    def test_oversized_batch_rejected(self):
        request = make_request(workload=WorkloadConfig("gpt2", "adam", 100))
        with pytest.raises(RequestRejectedError, match="batch size"):
            ValidationMiddleware(max_batch_size=64).on_request(
                request, make_ctx()
            )

    def test_budgetless_device_rejected(self):
        device = DeviceSpec(name="tiny", capacity_bytes=GiB // 4)
        with pytest.raises(RequestRejectedError, match="job budget"):
            ValidationMiddleware().on_request(
                make_request(device=device), make_ctx()
            )


class TestRateLimitMiddleware:
    def test_burst_then_throttle(self):
        clock = lambda: 0.0  # frozen: no refill  # noqa: E731
        middleware = RateLimitMiddleware(
            rate_per_second=1, burst=2, clock=clock
        )
        middleware.on_request(make_request(), make_ctx())
        middleware.on_request(make_request(), make_ctx())
        with pytest.raises(RateLimitExceededError) as info:
            middleware.on_request(make_request(), make_ctx())
        assert info.value.retry_after_seconds > 0

    def test_refill_restores_tokens(self):
        now = [0.0]
        middleware = RateLimitMiddleware(
            rate_per_second=10, burst=1, clock=lambda: now[0]
        )
        middleware.on_request(make_request(), make_ctx())
        with pytest.raises(RateLimitExceededError):
            middleware.on_request(make_request(), make_ctx())
        now[0] += 0.2  # 2 tokens earned, capped at burst=1
        middleware.on_request(make_request(), make_ctx())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateLimitMiddleware(rate_per_second=0)
        with pytest.raises(ValueError):
            RateLimitMiddleware(rate_per_second=1, burst=0)

    def test_backwards_clock_mints_nothing_and_does_not_throttle_early(self):
        now = [10.0]
        middleware = RateLimitMiddleware(
            rate_per_second=1, burst=2, clock=lambda: now[0]
        )
        middleware.on_request(make_request(), make_ctx())
        now[0] = 5.0  # skew: the token left in the bucket is still there
        middleware.on_request(make_request(), make_ctx())
        with pytest.raises(RateLimitExceededError) as info:
            middleware.on_request(make_request(), make_ctx())
        assert info.value.retry_after_seconds == pytest.approx(1.0)
        now[0] = 10.0  # catching back up is not five seconds of refill
        with pytest.raises(RateLimitExceededError):
            middleware.on_request(make_request(), make_ctx())
        now[0] = 11.0
        middleware.on_request(make_request(), make_ctx())


class TestEngineOnionSemantics:
    """Pin the documented onion ordering end-to-end through the service.

    The chain-level tests above exercise MiddlewareChain in isolation;
    these drive a real EstimationService so the ordering guarantees are
    pinned where callers actually see them (satellite of the gateway PR).
    """

    class FailingEstimator:
        name = "failing"
        version = "1"

        def supports(self, workload):
            return True

        def estimate(self, workload, device):
            raise RuntimeError("estimator exploded")

    class ConstantEstimator:
        name = "constant"
        version = "1"

        def supports(self, workload):
            return True

        def estimate(self, workload, device):
            return make_result(workload=workload, device=device)

    def test_estimator_failure_unwinds_entered_layers_in_reverse(self):
        from repro.service import EstimationService

        journal = []
        middlewares = (
            Recorder("outer", journal),
            Recorder("middle", journal),
            Recorder("inner", journal),
        )
        with EstimationService(
            estimator=self.FailingEstimator(), middlewares=middlewares
        ) as service:
            with pytest.raises(RuntimeError):
                service.estimate(WORKLOAD, RTX_3060)
        assert journal == [
            "outer.request",
            "middle.request",
            "inner.request",
            # every layer was entered, so every layer unwinds — innermost
            # first, and no on_result anywhere
            "inner.error",
            "middle.error",
            "outer.error",
        ]

    def test_short_circuit_skips_on_result_for_later_layers(self):
        from repro.service import EstimationService

        journal = []
        middlewares = (
            Recorder("outer", journal),
            Recorder("producer", journal, short_circuit=make_result()),
            Recorder("inner", journal),
        )
        with EstimationService(
            estimator=self.ConstantEstimator(), middlewares=middlewares
        ) as service:
            service.estimate(WORKLOAD, RTX_3060)
        assert journal == [
            "outer.request",
            "producer.request",
            # inner never saw the request; on_result runs only for the
            # layers outside the producer (the producer itself included
            # would re-handle its own answer)
            "outer.result",
        ]

    def test_request_hook_failure_unwinds_only_entered_layers(self):
        from repro.service import EstimationService

        journal = []
        middlewares = (
            Recorder("outer", journal),
            Recorder("thrower", journal, raises=RequestRejectedError("no")),
            Recorder("inner", journal),
        )
        with EstimationService(
            estimator=self.ConstantEstimator(), middlewares=middlewares
        ) as service:
            with pytest.raises(RequestRejectedError):
                service.estimate(WORKLOAD, RTX_3060)
        assert journal == [
            "outer.request",
            "thrower.request",
            # the thrower itself is not "entered": only outer unwinds
            "outer.error",
        ]
