"""Resilience plane: retry/backoff, breakers, recovery.

Unit-tests the sans-IO decision objects in
:mod:`repro.service.resilience`, then integration-tests them through the
thread-driver :class:`~repro.service.gateway.ServiceGateway` against
seeded :class:`~repro.service.faults.FaultPlan` chaos: blackouts are
retried around, breakers open and re-route, drain sheds
backoff-parked requests with a typed error, and —
the property the whole plane is built around — the ledger's resilience
decision sequence is identical across same-seed runs.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    InjectedFaultError,
    RateLimitExceededError,
    RequestRejectedError,
    ShardBlackoutError,
)
from repro.service import (
    AsyncServiceGateway,
    FaultPlan,
    FaultSpec,
    ServiceGateway,
    SyntheticEstimator,
    Telemetry,
    default_resilience,
    generate_traffic,
    replay,
)
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
    ResilienceCore,
    ResiliencePolicy,
    RetryBudget,
    RetryPolicy,
    is_transient,
)
from repro.service.telemetry.ledger import AuditLedger
from repro.service.traffic import workload_catalog
from repro.workload import EVAL_DEVICES
from test_service_aio import GatedSyntheticEstimator

DEVICE = EVAL_DEVICES[0]


def make_gateway(
    num_shards=2,
    resilience=None,
    fault_plan=None,
    telemetry=None,
    work_seconds=0.0,
):
    return ServiceGateway(
        num_shards=num_shards,
        estimator_factory=lambda: SyntheticEstimator(
            work_seconds=work_seconds
        ),
        max_queue_depth=128,
        telemetry=telemetry,
        resilience=resilience,
        fault_plan=fault_plan,
    )


class TestTransience:
    @pytest.mark.parametrize(
        "error",
        [
            InjectedFaultError("estimator_error"),
            ShardBlackoutError(1),
            ConnectionLostError((), "gone"),
            RateLimitExceededError(0.5),
            BrokenProcessPool("a worker died"),
        ],
    )
    def test_transient_failures(self, error):
        assert is_transient(error)

    @pytest.mark.parametrize(
        "error",
        [
            RequestRejectedError("bad request"),
            ValueError("programmer error"),
            KeyboardInterrupt(),
        ],
    )
    def test_terminal_failures(self, error):
        assert not is_transient(error)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay("fp", 2) == policy.delay("fp", 2)

    def test_backoff_is_exponential_without_jitter(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=1.0, jitter=0.0
        )
        assert policy.delay("fp", 2) == pytest.approx(0.01)
        assert policy.delay("fp", 3) == pytest.approx(0.02)
        assert policy.delay("fp", 4) == pytest.approx(0.04)

    def test_delay_is_capped(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=10.0, max_delay=0.05, jitter=0.5
        )
        for attempt in range(2, 12):
            assert policy.delay("fp", attempt) <= 0.05 * 1.5

    def test_jitter_decorrelates_fingerprints(self):
        policy = RetryPolicy(jitter=1.0)
        assert policy.delay("alpha", 2) != policy.delay("beta", 2)

    def test_rejections_not_retryable(self):
        assert not RetryPolicy().retryable(RequestRejectedError("no"))
        assert RetryPolicy().retryable(InjectedFaultError("yes"))


class TestRetryBudget:
    def test_burst_then_ratio(self):
        budget = RetryBudget(ratio=0.0, burst=2)
        assert budget.allow()
        budget.spend()
        assert budget.allow()
        budget.spend()
        assert not budget.allow()
        assert budget.snapshot()["denied"] == 1

    def test_ratio_grows_with_traffic(self):
        budget = RetryBudget(ratio=0.5, burst=0)
        assert not budget.allow()
        for _ in range(4):
            budget.note_request()
        assert budget.allow()


def settle(breaker, seq, ok):
    """Record one outcome and apply it, as the gateway's next idle edge
    does; returns the transition it caused, if any."""
    breaker.record(seq, ok)
    transitions = breaker.sync()
    assert len(transitions) <= 1
    return transitions[0] if transitions else None


class TestCircuitBreaker:
    def circuit(self, threshold=2, cooldown=3):
        return CircuitBreaker(
            BreakerConfig(failure_threshold=threshold, cooldown_ticks=cooldown)
        )

    def test_consecutive_failures_trip_the_circuit(self):
        breaker = self.circuit(threshold=2)
        assert settle(breaker, 0, ok=False) is None
        assert settle(breaker, 1, ok=False) == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self.circuit(threshold=2)
        settle(breaker, 0, ok=False)
        settle(breaker, 1, ok=True)
        assert settle(breaker, 2, ok=False) is None
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_elapses_in_submission_ticks(self):
        breaker = self.circuit(threshold=1, cooldown=2)
        settle(breaker, 0, ok=False)
        assert breaker.tick() is None
        assert breaker.tick() == BREAKER_HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self.circuit(threshold=1, cooldown=1)
        settle(breaker, 0, ok=False)
        breaker.tick()
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else waits

    def test_probe_success_closes_failure_reopens(self):
        breaker = self.circuit(threshold=1, cooldown=1)
        settle(breaker, 0, ok=False)
        breaker.tick()
        breaker.allow()
        assert settle(breaker, 1, ok=True) == BREAKER_CLOSED
        assert breaker.closes == 1

        settle(breaker, 2, ok=False)
        breaker.tick()
        breaker.allow()
        assert settle(breaker, 3, ok=False) == BREAKER_OPEN

    def test_outcomes_wait_for_sync(self):
        breaker = self.circuit(threshold=1)
        assert breaker.record(0, ok=False) is None
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        assert breaker.sync() == [BREAKER_OPEN]

    def test_a_probe_without_a_verdict_frees_the_slot_and_nothing_else(self):
        breaker = self.circuit(threshold=1, cooldown=1)
        settle(breaker, 0, ok=False)
        breaker.tick()
        assert breaker.allow() and not breaker.allow()  # probe in flight
        assert settle(breaker, 1, ok=None) is None  # e.g. a rejection
        assert breaker.state == BREAKER_HALF_OPEN
        assert (breaker.opens, breaker.closes) == (1, 0)
        assert breaker.allow()  # the next request probes
        assert settle(breaker, 2, ok=True) == BREAKER_CLOSED

    def test_no_verdict_leaves_the_failure_streak_alone(self):
        breaker = self.circuit(threshold=2)
        settle(breaker, 0, ok=False)
        settle(breaker, 1, ok=None)
        assert settle(breaker, 2, ok=False) == BREAKER_OPEN

    def test_deferred_outcomes_apply_in_submission_order(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        # completion order scrambled: the success lands between the
        # failures once sorted by seq, so the streak never reaches 2
        breaker.record(2, ok=False)
        breaker.record(0, ok=False)
        breaker.record(1, ok=True)
        assert breaker.sync() == []
        assert breaker.state == BREAKER_CLOSED
        # the same outcomes with the success first do trip it
        breaker.record(0, ok=True)
        breaker.record(1, ok=False)
        breaker.record(2, ok=False)
        assert breaker.sync() == [BREAKER_OPEN]


class TestResilienceCore:
    def core(self, num_shards=3):
        return ResilienceCore(
            num_shards,
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3),
                breaker=BreakerConfig(failure_threshold=1),
            ),
        )

    def trip(self, core, shard):
        core.record_outcome(shard, 0, ok=False)
        assert core.sync() == [(shard, BREAKER_OPEN)]

    def test_choose_shard_prefers_primary(self):
        assert self.core().choose_shard(1) == (1, False)

    def test_choose_shard_routes_around_open_circuit(self):
        core = self.core()
        self.trip(core, 1)
        assert core.choose_shard(1) == (2, True)
        assert core.counters["reroutes"] == 1

    def test_choose_shard_sheds_when_all_circuits_open(self):
        core = self.core()
        for shard in range(3):
            self.trip(core, shard)
        assert core.choose_shard(0) == (None, True)

    def test_retry_target_moves_off_the_failed_shard(self):
        core = self.core()
        assert core.retry_target(0, attempt=2) == 1

    def test_retry_target_falls_back_to_sole_healthy_shard(self):
        core = self.core()
        self.trip(core, 1)
        self.trip(core, 2)
        assert core.retry_target(0, attempt=2) == 0

    def test_should_retry_respects_attempts_and_budget(self):
        core = ResilienceCore(
            2,
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2),
                budget=RetryBudget(ratio=0.0, burst=1),
            ),
        )
        error = InjectedFaultError("boom")
        assert core.should_retry(error, attempt=1)
        assert not core.should_retry(error, attempt=2)  # attempts exhausted
        core.spend_retry()
        assert not core.should_retry(error, attempt=1)  # budget exhausted
        assert not core.should_retry(ValueError("fatal"), attempt=1)

    def test_snapshot_shape(self):
        snap = self.core().snapshot()
        assert snap["breaker_states"] == ["closed"] * 3
        assert snap["retries"] == 0


class TestGatewayUnderChaos:
    """Integration: the thread-driver shell wired to planned faults."""

    def blackout_plan(self, gateway, workloads, stop=100):
        """Black out the shard that serves ``workloads[0]`` from index 0."""
        victim = gateway.shard_for(workloads[0], DEVICE)
        return victim, FaultPlan.from_specs(
            [FaultSpec(kind="shard_blackout", start=0, stop=stop, shard=victim)]
        )

    def test_blackout_is_retried_on_another_shard(self):
        workloads = workload_catalog(4, seed=0)
        with make_gateway(num_shards=2) as probe:
            victim, plan = self.blackout_plan(probe, workloads)
        telemetry = Telemetry()
        with make_gateway(
            num_shards=2,
            resilience=default_resilience(),
            fault_plan=plan,
            telemetry=telemetry,
        ) as gateway:
            results = [gateway.estimate(w, DEVICE) for w in workloads]
            stats = gateway.stats()["gateway"]
        assert all(r.peak_bytes > 0 for r in results)
        assert stats["faults"]["injected"]["shard_blackout"] >= 1
        assert stats["resilience"]["retries"] >= 1
        events = [e for e, *_ in telemetry.ledger.resilience_sequence()]
        assert "retry" in events

    def test_breaker_opens_and_reroutes_sustained_blackout(self):
        workloads = workload_catalog(6, seed=1)
        with make_gateway(num_shards=2) as probe:
            victim = probe.shard_for(workloads[0], DEVICE)
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="shard_blackout", start=0, stop=500, shard=victim)]
        )
        with make_gateway(
            num_shards=2,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(base_delay=0.001, jitter=0.0),
                breaker=BreakerConfig(
                    failure_threshold=2, cooldown_ticks=500
                ),
            ),
            fault_plan=plan,
        ) as gateway:
            for _ in range(3):  # repeat until the victim's breaker trips
                for workload in workloads:
                    gateway.estimate(workload, DEVICE)
            stats = gateway.stats()["gateway"]["resilience"]
        assert stats["breaker_opens"] >= 1
        assert stats["reroutes"] >= 1
        assert stats["breaker_states"][victim] == "open"

    def test_drain_sheds_backoff_parked_requests(self):
        """Satellite regression: drain during open-circuit backoff.

        A request parked in retry backoff holds no shard slot; drain
        must settle it immediately as shed with a typed
        :class:`CircuitOpenError` instead of blocking on the timer.
        The state machine itself is stepped, sleep-free, in
        ``test_service_dispatch.py``; this is the thread-driver
        variant, which learns of the park from the ledger's RETRY event.
        """
        workloads = workload_catalog(1, seed=0)
        retried = threading.Event()
        telemetry = retry_signalling_telemetry(retried.set)
        gateway = make_gateway(
            num_shards=2,
            resilience=PARKING_RETRIES,
            fault_plan=FIRST_ATTEMPT_FAILS,
            telemetry=telemetry,
        )
        try:
            future = gateway.submit(workloads[0], DEVICE)
            assert retried.wait(5.0), "request never parked in backoff"
            assert gateway.drain(timeout=5.0)
            with pytest.raises(CircuitOpenError):
                future.result(timeout=5.0)
            stats = gateway.stats()["gateway"]["resilience"]
            assert stats["shed_on_drain"] == 1
            causes = [
                c for _, c, *_ in telemetry.ledger.resilience_sequence()
            ]
            assert "drained_during_backoff" not in causes  # shed, not retry
            sheds = [
                event
                for event in telemetry.ledger.events()
                if event.cause == "drained_during_backoff"
            ]
            assert len(sheds) == 1
        finally:
            gateway.close(wait=False)


#: the first attempt of submission 0 fails; its retry parks for 30 s
FIRST_ATTEMPT_FAILS = FaultPlan.from_specs(
    [FaultSpec(kind="estimator_error", index=0)]
)
PARKING_RETRIES = ResiliencePolicy(
    retry=RetryPolicy(base_delay=30.0, max_delay=60.0, jitter=0.0),
    breaker=None,
)


def retry_signalling_telemetry(on_retry):
    """A Telemetry whose ledger calls ``on_retry()`` when a RETRY
    decision lands — "parked in backoff", seen from outside."""

    class RetrySignallingLedger(AuditLedger):
        def record(self, event, **fields):
            entry = super().record(event, **fields)
            if event == "retry":
                on_retry()
            return entry

    telemetry = Telemetry()
    telemetry.ledger = RetrySignallingLedger()
    return telemetry


class TestCancelledOuterFuture:
    """Satellite regression: a caller may cancel the gateway-owned future.

    Settling it afterwards used to raise ``InvalidStateError`` inside a
    shard done-callback or a timer thread on the thread driver (the
    asyncio copy guarded against it).  On both drivers: nothing is
    logged, ``drain()`` returns True, every submission is accounted for,
    and the call is closed exactly once (a second close would leave the
    open-call count negative and the gateway never quiescent again).
    """

    @staticmethod
    def tally(outcomes):
        counts = {"answered": 0, "shed": 0, "rejected": 0, "errors": 0}
        for outcome in outcomes:
            if not isinstance(outcome, BaseException):
                counts["answered"] += 1
            elif isinstance(outcome, RateLimitExceededError):
                counts["shed"] += 1
            elif isinstance(outcome, RequestRejectedError):
                counts["rejected"] += 1
            else:
                counts["errors"] += 1
        return counts

    @pytest.fixture
    def thread_errors(self, caplog, monkeypatch):
        """Everything a thread-side settle failure would leave behind:
        the ``concurrent.futures`` callback log and uncaught exceptions
        of timer threads."""
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        with caplog.at_level("ERROR", logger="concurrent.futures"):
            yield lambda: uncaught + [
                record
                for record in caplog.records
                if record.name == "concurrent.futures"
            ]

    def thread_outcome(self, future):
        try:
            return future.result(timeout=5.0)
        except BaseException as error:  # incl. CancelledError
            return error

    def test_threads_cancelled_mid_attempt(self, thread_errors):
        workloads = workload_catalog(3, seed=0)
        estimator = GatedSyntheticEstimator()
        gateway = ServiceGateway(
            num_shards=2,
            estimator_factory=lambda: estimator,
            resilience=PARKING_RETRIES,
        )
        try:
            futures = [gateway.submit(w, DEVICE) for w in workloads]
            assert futures[0].cancel()
            estimator.gate.set()
            assert gateway.drain(timeout=5.0)
            assert gateway.drain(timeout=0.0)  # still exactly quiescent
            counts = self.tally(self.thread_outcome(f) for f in futures)
            assert counts == {
                "answered": 2, "shed": 0, "rejected": 0, "errors": 1
            }
            assert gateway.stats()["gateway"]["requests"] == 3
            assert gateway.pending() == 0
        finally:
            estimator.gate.set()
            gateway.close()  # joins the workers: every callback has run
        assert thread_errors() == []

    def test_threads_cancelled_mid_backoff(self, thread_errors):
        workloads = workload_catalog(3, seed=0)
        retried = threading.Event()
        gateway = make_gateway(
            num_shards=2,
            resilience=PARKING_RETRIES,
            fault_plan=FIRST_ATTEMPT_FAILS,
            telemetry=retry_signalling_telemetry(retried.set),
        )
        try:
            futures = [gateway.submit(w, DEVICE) for w in workloads]
            assert retried.wait(5.0), "request never parked in backoff"
            assert futures[0].cancel()
            assert gateway.drain(timeout=5.0)  # sheds the parked call
            assert gateway.drain(timeout=0.0)
            counts = self.tally(self.thread_outcome(f) for f in futures)
            assert counts == {
                "answered": 2, "shed": 0, "rejected": 0, "errors": 1
            }
            stats = gateway.stats()["gateway"]
            assert stats["requests"] == 3
            assert stats["resilience"]["shed_on_drain"] == 1
        finally:
            gateway.close()  # joins the workers: every callback has run
        assert thread_errors() == []

    def run_async(self, scenario):
        """Run ``scenario()`` on a loop whose exception handler collects
        instead of logging; returns what it caught."""
        caught = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: caught.append(context)
            )
            await scenario()

        asyncio.run(main())
        return caught

    @staticmethod
    async def async_outcome(future):
        try:
            return await future
        except BaseException as error:  # incl. CancelledError
            return error

    def test_asyncio_cancelled_mid_attempt(self):
        workloads = workload_catalog(3, seed=0)
        estimator = GatedSyntheticEstimator()

        async def scenario():
            gateway = AsyncServiceGateway(
                num_shards=2,
                estimator_factory=lambda: estimator,
                resilience=PARKING_RETRIES,
            )
            try:
                futures = [gateway.submit(w, DEVICE) for w in workloads]
                assert futures[0].cancel()
                estimator.gate.set()
                assert await gateway.drain(timeout=5.0)
                assert await gateway.drain(timeout=0.0)
                counts = self.tally(
                    [await self.async_outcome(f) for f in futures]
                )
                assert counts == {
                    "answered": 2, "shed": 0, "rejected": 0, "errors": 1
                }
                assert gateway.stats()["gateway"]["requests"] == 3
                assert gateway.pending() == 0
            finally:
                estimator.gate.set()
                await gateway.aclose(wait=False)

        assert self.run_async(scenario) == []

    def test_asyncio_cancelled_mid_backoff(self):
        workloads = workload_catalog(3, seed=0)

        async def scenario():
            retried = asyncio.Event()
            gateway = AsyncServiceGateway(
                num_shards=2,
                estimator_factory=SyntheticEstimator,
                max_queue_depth=128,
                resilience=PARKING_RETRIES,
                fault_plan=FIRST_ATTEMPT_FAILS,
                telemetry=retry_signalling_telemetry(retried.set),
            )
            try:
                futures = [gateway.submit(w, DEVICE) for w in workloads]
                await asyncio.wait_for(retried.wait(), 5.0)
                assert futures[0].cancel()
                assert await gateway.drain(timeout=5.0)
                assert await gateway.drain(timeout=0.0)
                counts = self.tally(
                    [await self.async_outcome(f) for f in futures]
                )
                assert counts == {
                    "answered": 2, "shed": 0, "rejected": 0, "errors": 1
                }
                stats = gateway.stats()["gateway"]
                assert stats["requests"] == 3
                assert stats["resilience"]["shed_on_drain"] == 1
            finally:
                await gateway.aclose(wait=False)

        assert self.run_async(scenario) == []


class TestSeededChaosDeterminism:
    """Satellite property: same seed, same decision sequence (twice)."""

    def run_sequence(self, trace, plan):
        telemetry = Telemetry()
        with make_gateway(
            num_shards=4,
            resilience=default_resilience(),
            fault_plan=plan,
            telemetry=telemetry,
        ) as gateway:
            report = replay(trace, gateway)
        assert report.answered + report.shed + report.errors == len(trace)
        return telemetry.ledger.resilience_sequence()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_seeded_plan_replays_identically(self, seed):
        trace = generate_traffic("zipf", 24, seed=seed)
        plan = FaultPlan.seeded(
            seed,
            24,
            4,
            error_rate=0.15,
            latency_rate=0.0,
            blackouts=1,
            blackout_span=12,
        )
        first = self.run_sequence(trace, plan)
        second = self.run_sequence(trace, plan)
        assert first == second
