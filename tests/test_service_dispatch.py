"""The two dispatch machines against a fake substrate.

:class:`~repro.service.dispatch.GatewayDispatch` is sans-IO, so the whole
attempt lifecycle — retry, backoff, breaker, drain-time shedding — runs
here with no threads, no event loop and no sleeps: timers sit on a
manual wheel the test advances, shard futures resolve when the test
says so, and both locks are :class:`~repro.service.context.NullLock`.
After every step the harness re-checks conservation
(``submitted == answered + shed + rejected + errors + open``) and that
no outer future was settled twice; a hypothesis state machine runs the
same checks, plus "every resilience counter equals its ledger count",
over arbitrary interleavings.

:class:`~repro.service.dispatch.ServiceDispatch` gets the same
treatment one layer down (``_launch`` hands the test a future to resolve
by hand; after every step ``requests`` equals the sum of the outcome
counters plus the single-flight table), and then the behaviours the
machine promises are pinned on all three real drivers at once.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import CancelledError, Future, InvalidStateError
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import (
    CircuitOpenError,
    EstimationError,
    InjectedFaultError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    AsyncEstimationService,
    EstimateCache,
    EstimationService,
    FaultPlan,
    FaultSpec,
    ProcEstimationService,
    ProcServiceGateway,
    RateLimitMiddleware,
    ServiceGateway,
    ServiceMiddleware,
    SyntheticEstimator,
    Telemetry,
    default_middlewares,
)
from repro.service.context import NullLock
from repro.service.resilience import (
    BREAKER_HALF_OPEN,
    BreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.service.dispatch import GatewayDispatch, ServiceDispatch
from repro.service.telemetry.spans import GATEWAY_SPAN
from repro.workload import RTX_3060, WorkloadConfig

DEVICE = "dev"
BACKOFF = 30.0


class CountingFuture(Future):
    """A real future (resolvable inline) that counts settle attempts —
    a second one would otherwise vanish in ``InvalidStateError``."""

    def __init__(self):
        super().__init__()
        self.settles = 0

    def set_result(self, result):
        self.settles += 1
        super().set_result(result)

    def set_exception(self, exception):
        self.settles += 1
        super().set_exception(exception)


class FakeTimer:
    def __init__(self, due, fn, args):
        self.due, self.fn, self.args = due, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeSubstrate:
    """Manual timer wheel, inline futures, null locks."""

    CancelledError = CancelledError
    InvalidStateError = InvalidStateError
    call_lock = NullLock
    new_future = CountingFuture

    @staticmethod
    def new_master():
        master = CountingFuture()
        master.set_running_or_notify_cancel()
        return master

    @staticmethod
    def share(master):
        return master

    def __init__(self):
        self.lock = NullLock()
        self.now = 0.0
        self.timers: list[FakeTimer] = []
        self.idle = True

    @staticmethod
    def when_done(future, callback):
        future.add_done_callback(callback)  # inline when already done

    def call_later(self, delay, fn, *args):
        timer = FakeTimer(self.now + delay, fn, args)
        self.timers.append(timer)
        return timer

    def mark_busy(self):
        self.idle = False

    def notify_idle(self):
        self.idle = True

    def live_timers(self):
        return [timer for timer in self.timers if not timer.cancelled]

    def advance(self, seconds):
        self.now += seconds
        due = [t for t in self.live_timers() if t.due <= self.now]
        for timer in sorted(due, key=lambda t: t.due):
            self.timers.remove(timer)
            if not timer.cancelled:
                timer.fn(*timer.args)


class FakeShard:
    """Records every attempt that reaches it; the test resolves them."""

    def __init__(self):
        self.attempts: list[tuple[dict, Future]] = []
        self.metrics = SimpleNamespace(latency_samples=lambda: [])

    def fingerprint(self, workload, device):
        return f"{workload}@{device}"

    def submit(self, workload, device, metadata=None, **_kwargs):
        future = Future()
        self.attempts.append((metadata or {}, future))
        return future

    def stats(self):
        return {}


class Harness:
    def __init__(self, resilience=None, fault_plan=None, num_shards=2):
        self.sub = FakeSubstrate()
        self.shards = [FakeShard() for _ in range(num_shards)]
        self.telemetry = Telemetry()
        self.gateway = GatewayDispatch(
            self.shards,
            None,
            8,
            self.sub,
            telemetry=self.telemetry,
            resilience=resilience,
            fault_plan=fault_plan,
        )
        self.submitted = 0
        self.refused: list[BaseException] = []
        self.outers: list[Future] = []

    def submit(self, workload="w0"):
        self.submitted += 1
        try:
            outer = self.gateway.submit(workload, DEVICE)
        except (RateLimitExceededError, RequestRejectedError) as error:
            self.refused.append(error)
            self.check()
            return None
        self.outers.append(outer)
        self.check()
        return outer

    def step(self, action, *args):
        """Run one event (resolve a future, advance the wheel, drain)
        and re-check the invariants."""
        action(*args)
        self.check()

    def primary(self, workload="w0"):
        return self.gateway.shard_for(workload, DEVICE)

    def counters(self):
        return self.gateway.stats()["gateway"]["resilience"]

    def ledger(self, event):
        return self.telemetry.ledger.events(event=event)

    def check(self):
        answered = shed = rejected = errors = open_calls = 0
        outcomes = list(self.refused)
        for outer in self.outers:
            # a CountingFuture is gateway-owned; a plain-path future is
            # the shard's own and settles once by construction
            assert getattr(outer, "settles", 0) <= 1
            if not outer.done():
                open_calls += 1
            elif outer.cancelled():
                errors += 1
            elif outer.exception() is None:
                answered += 1
            else:
                outcomes.append(outer.exception())
        for error in outcomes:
            if isinstance(error, RateLimitExceededError):
                shed += 1
            elif isinstance(error, RequestRejectedError):
                rejected += 1
            else:
                errors += 1
        assert self.submitted == (
            answered + shed + rejected + errors + open_calls
        )
        assert self.gateway.stats()["gateway"]["requests"] == self.submitted
        # what an awaiting drain() sees is what the machine believes
        assert self.sub.idle == self.gateway._quiescent()
        return SimpleNamespace(
            answered=answered,
            shed=shed,
            rejected=rejected,
            errors=errors,
            open=open_calls,
        )

    def assert_settled_once(self):
        """Everything submitted has an outcome, delivered exactly once."""
        tally = self.check()
        assert tally.open == 0
        assert self.gateway.pending() == 0
        assert self.gateway._quiescent()
        for outer in self.outers:
            if isinstance(outer, CountingFuture) and not outer.cancelled():
                assert outer.settles == 1
        return tally


def retry_only(**retry):
    retry.setdefault("base_delay", BACKOFF)
    retry.setdefault("max_delay", 2 * BACKOFF)
    retry.setdefault("jitter", 0.0)
    return ResiliencePolicy(retry=RetryPolicy(**retry), breaker=None)


def blackout(shard, stop=100):
    return FaultPlan.from_specs(
        [FaultSpec(kind="shard_blackout", start=0, stop=stop, shard=shard)]
    )


class TestPlainPath:
    def test_answer_settles_the_slot_and_the_wave(self):
        h = Harness()
        future = h.submit()
        assert h.gateway.pending() == 1 and not h.sub.idle
        (_metadata, attempt), = h.shards[h.primary()].attempts
        assert future is attempt  # the plain path hands out the shard's own
        h.step(attempt.set_result, "answer")
        assert h.assert_settled_once().answered == 1
        assert [e.cause for e in h.ledger("admit")] == ["route"]

    def test_full_queue_sheds_through_the_refusal_table(self):
        h = Harness()
        for _ in range(8):
            h.submit()
        assert h.submit() is None
        assert isinstance(h.refused[0], RateLimitExceededError)
        assert [e.cause for e in h.ledger("shed")] == ["queue_full"]
        assert len(h.shards[h.primary()].attempts) == 8

    def test_an_already_done_shard_future_settles_inline(self):
        h = Harness()
        done = Future()
        done.set_result("cached")
        h.shards[h.primary()].submit = lambda *a, **k: done
        assert h.submit().result() == "cached"
        assert h.gateway.pending() == 0 and h.sub.idle


class TestRetryAndDrain:
    def test_failure_parks_in_backoff_then_retries_elsewhere(self):
        h = Harness(retry_only())
        outer = h.submit()
        first = h.primary()
        (metadata, attempt), = h.shards[first].attempts
        assert metadata["attempt"] == 1
        h.step(attempt.set_exception, InjectedFaultError("estimator_error"))
        assert not outer.done() and h.gateway.pending() == 0
        (timer,) = h.sub.live_timers()
        assert timer.due == BACKOFF
        (retry,) = h.ledger("retry")
        assert retry.attributes["attempt"] == 2
        assert retry.attributes["delay"] == BACKOFF

        h.step(h.sub.advance, BACKOFF - 1.0)  # not due yet
        assert len(h.shards[1 - first].attempts) == 0
        h.step(h.sub.advance, 1.0)
        (metadata, second), = h.shards[1 - first].attempts
        assert metadata["attempt"] == 2
        h.step(second.set_result, "answer")
        assert outer.result() == "answer"
        assert h.assert_settled_once().answered == 1
        assert h.counters()["retries"] == 1

    def test_drain_sheds_a_parked_retry_as_circuit_open(self):
        h = Harness(retry_only())
        outer = h.submit()
        (_, attempt), = h.shards[h.primary()].attempts
        h.step(attempt.set_exception, InjectedFaultError("estimator_error"))
        assert h.sub.live_timers() and not outer.done()

        h.step(h.gateway._begin_drain)
        assert isinstance(outer.exception(), CircuitOpenError)
        assert h.assert_settled_once().shed == 1
        assert h.counters()["shed_on_drain"] == 1
        assert not h.sub.live_timers()  # the backoff timer was cancelled
        assert [e.cause for e in h.ledger("shed")] == [
            "drained_during_backoff"
        ]
        assert "drained_during_backoff" not in [
            cause for _, cause, *_ in h.telemetry.ledger.resilience_sequence()
        ]

        h.step(h.sub.advance, 10 * BACKOFF)  # nothing left to fire
        assert sum(len(shard.attempts) for shard in h.shards) == 1
        with pytest.raises(ServiceClosedError):
            h.gateway.submit("w1", DEVICE)  # intake is closed

    def test_a_failure_that_lands_after_drain_began_is_shed_not_parked(self):
        h = Harness(retry_only())
        outer = h.submit()
        (_, attempt), = h.shards[h.primary()].attempts
        h.step(h.gateway._begin_drain)
        assert not outer.done()  # still in flight: drain waits for it
        h.step(attempt.set_exception, InjectedFaultError("estimator_error"))
        assert not h.sub.live_timers()
        assert not h.ledger("retry")  # draining: no retry was decided
        assert isinstance(outer.exception(), InjectedFaultError)
        assert h.assert_settled_once().errors == 1

    def test_terminal_errors_are_not_retried(self):
        h = Harness(retry_only())
        outer = h.submit()
        (_, attempt), = h.shards[h.primary()].attempts
        h.step(attempt.set_exception, RequestRejectedError("bad request"))
        assert isinstance(outer.exception(), RequestRejectedError)
        assert h.assert_settled_once().rejected == 1
        assert not h.sub.timers

    def test_attempts_are_capped(self):
        h = Harness(retry_only(max_attempts=2))
        outer = h.submit()
        first = h.primary()
        h.step(
            h.shards[first].attempts[0][1].set_exception,
            InjectedFaultError("estimator_error"),
        )
        h.step(h.sub.advance, BACKOFF)
        h.step(
            h.shards[1 - first].attempts[0][1].set_exception,
            InjectedFaultError("estimator_error"),
        )
        assert isinstance(outer.exception(), InjectedFaultError)
        assert h.assert_settled_once().errors == 1
        assert h.counters()["retries"] == 1


class TestDrainBetweenRouteAndAdmit:
    """``drain()`` landing after a submit passed the intake gate but
    before its admission: ``admit`` refuses with ``ServiceClosedError``,
    and both paths record that refusal through the same table row."""

    @pytest.mark.parametrize(
        "resilience", [None, retry_only()], ids=["plain", "resilient"]
    )
    def test_the_refusal_is_ledgered_and_its_span_closed(self, resilience):
        h = Harness(resilience)
        route = h.gateway.core.route

        def route_then_drain(fingerprint):
            selected = route(fingerprint)
            h.gateway.core.draining = True
            return selected

        h.gateway.core.route = route_then_drain
        if resilience is None:
            with pytest.raises(ServiceClosedError):
                h.gateway.submit("w0", DEVICE)
        else:
            outer = h.gateway.submit("w0", DEVICE)
            assert isinstance(outer.exception(), ServiceClosedError)
        assert [e.cause for e in h.ledger("shed")] == ["closed"]
        gateway_spans = [
            span
            for span in h.telemetry.tracer.exporter.spans
            if span.name == GATEWAY_SPAN
        ]
        # only the plain path opens a gateway span of its own
        assert [span.status for span in gateway_spans] == (
            ["shed"] if resilience is None else []
        )
        gateway = h.gateway.stats()["gateway"]
        assert gateway["requests"] == 1
        assert gateway["shed"] == gateway["pending"] == 0
        assert not any(shard.attempts for shard in h.shards)
        assert h.gateway._quiescent()


class TestBlackout:
    def test_a_blacked_out_attempt_never_touches_the_shard(self):
        probe = Harness()
        victim = probe.primary()
        h = Harness(retry_only(), fault_plan=blackout(victim))
        outer = h.submit()
        assert h.shards[victim].attempts == []  # failed at the gateway
        assert h.gateway.pending() == 0  # and held no slot
        assert [e.cause for e in h.ledger("fault")] == ["shard_blackout"]
        (retry,) = h.ledger("retry")
        assert retry.cause == "ShardBlackoutError"
        assert retry.shard == 1 - victim

        h.step(h.sub.advance, BACKOFF)
        assert h.shards[victim].attempts == []
        (metadata, attempt), = h.shards[1 - victim].attempts
        assert metadata["attempt"] == 2 and "fault" not in metadata
        h.step(attempt.set_result, "answer")
        assert outer.result() == "answer"
        assert h.assert_settled_once().answered == 1


def with_breaker(cooldown_ticks=1):
    """Retries plus a breaker that trips on one failure."""
    return replace(
        retry_only(),
        breaker=BreakerConfig(
            failure_threshold=1, cooldown_ticks=cooldown_ticks
        ),
    )


class TestBreaker:
    def trip_the_victim(self):
        """Submission 0 is blacked out on its primary, so that shard's
        breaker opens at the wave boundary after the retry answers."""
        victim = Harness().primary()
        h = Harness(with_breaker(), fault_plan=blackout(victim, stop=1))
        first = h.submit()
        h.step(h.sub.advance, BACKOFF)
        (_, retry), = h.shards[1 - victim].attempts
        h.step(retry.set_result, "rerouted")
        assert first.result() == "rerouted"
        return h, victim

    def test_every_transition_reaches_the_ledger(self):
        """``open`` / ``closed`` land in the ledger at the sync that
        applied them, like the ticked ``half_open``."""
        h, victim = self.trip_the_victim()
        second = h.submit()  # the cooldown elapses: a half-open probe
        (_, probe), = h.shards[victim].attempts
        h.step(probe.set_result, "probe")  # ... which closes the circuit
        assert second.result() == "probe"
        h.assert_settled_once()
        counters = h.counters()
        assert (counters["breaker_opens"], counters["breaker_closes"]) == (1, 1)
        assert [(e.cause, e.shard, e.request_id) for e in h.ledger("breaker")] == [
            ("open", victim, 1),
            ("half_open", victim, 2),
            ("closed", victim, 2),
        ]
        assert counters["breaker_states"][victim] == "closed"

    def test_a_probe_without_a_verdict_lets_the_next_request_probe(self):
        """A rejected probe says nothing about the shard: the breaker
        stays half-open with its probe slot free, so the shard is not
        left out of rotation for the life of the gateway."""
        h, victim = self.trip_the_victim()
        second = h.submit()
        (_, probe), = h.shards[victim].attempts
        h.step(probe.set_exception, RequestRejectedError("bad request"))
        assert isinstance(second.exception(), RequestRejectedError)
        assert h.counters()["breaker_states"][victim] == "half_open"
        third = h.submit()  # probes the victim again, not a re-route
        assert len(h.shards[victim].attempts) == 2
        h.step(h.shards[victim].attempts[1][1].set_result, "probe")
        assert third.result() == "probe"
        h.assert_settled_once()
        counters = h.counters()
        assert counters["breaker_states"][victim] == "closed"
        assert counters["reroutes"] == 0
        assert [e.cause for e in h.ledger("breaker")] == [
            "open",
            "half_open",
            "closed",
        ]


class TestCancelledOuterFuture:
    """A caller cancelling the gateway-owned future must not break the
    settle path: the call is still accounted, exactly once."""

    def test_cancelled_mid_attempt(self):
        h = Harness(retry_only())
        outer = h.submit()
        assert outer.cancel()
        (_, attempt), = h.shards[h.primary()].attempts
        h.step(attempt.set_result, "nobody is listening")
        assert outer.cancelled() and outer.settles == 1
        assert h.assert_settled_once().errors == 1

    def test_cancelled_mid_backoff(self):
        h = Harness(retry_only())
        outer = h.submit()
        first = h.primary()
        h.step(
            h.shards[first].attempts[0][1].set_exception,
            InjectedFaultError("estimator_error"),
        )
        assert outer.cancel()
        h.step(h.sub.advance, BACKOFF)  # the retry still runs to completion
        h.step(h.shards[1 - first].attempts[0][1].set_result, "late")
        assert outer.cancelled() and outer.settles == 1
        assert h.assert_settled_once().errors == 1

    def test_cancelled_then_drained_during_backoff(self):
        h = Harness(retry_only())
        outer = h.submit()
        h.step(
            h.shards[h.primary()].attempts[0][1].set_exception,
            InjectedFaultError("estimator_error"),
        )
        assert outer.cancel()
        h.step(h.gateway._begin_drain)
        assert outer.cancelled() and outer.settles == 1
        assert h.assert_settled_once().errors == 1
        assert h.counters()["shed_on_drain"] == 1


#: resilience counter -> the (ledger event, cause) that records it
COUNTER_EVENTS = {
    "retries": ("retry", None),
    "shed_open_circuit": ("shed", "circuit_open"),
    "shed_on_drain": ("shed", "drained_during_backoff"),
    "breaker_opens": ("breaker", "open"),
    "breaker_closes": ("breaker", "closed"),
}
MACHINE_CONFIGS = {
    "plain": lambda: Harness(),
    "retry": lambda: Harness(retry_only()),
    "retry-blackout": lambda: Harness(retry_only(), fault_plan=blackout(0)),
    "breaker": lambda: Harness(with_breaker()),
}


class GatewayMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of submits, shard answers, timer ticks,
    caller cancels and a drain, with the harness invariants and the
    counter/ledger agreement re-checked after every step."""

    make_harness = staticmethod(MACHINE_CONFIGS["plain"])

    def __init__(self):
        super().__init__()
        self.h = self.make_harness()

    def open_attempts(self):
        return [
            future
            for shard in self.h.shards
            for _, future in shard.attempts
            if not future.done()
        ]

    @rule(workload=st.sampled_from(["w0", "w1", "w2"]))
    def submit(self, workload):
        if self.h.gateway.core.draining:
            with pytest.raises(ServiceClosedError):
                self.h.gateway.submit(workload, DEVICE)
        else:
            self.h.submit(workload)

    @precondition(lambda self: self.open_attempts())
    @rule(
        pick=st.integers(min_value=0),
        outcome=st.sampled_from(["ok", "fault", "rejected"]),
    )
    def resolve(self, pick, outcome):
        attempts = self.open_attempts()
        future = attempts[pick % len(attempts)]
        if outcome == "ok":
            self.h.step(future.set_result, "answer")
        elif outcome == "fault":
            self.h.step(
                future.set_exception, InjectedFaultError("estimator_error")
            )
        else:
            self.h.step(future.set_exception, RequestRejectedError("bad"))

    @rule(seconds=st.sampled_from([0.01, BACKOFF, 2 * BACKOFF]))
    def advance(self, seconds):
        self.h.step(self.h.sub.advance, seconds)

    @precondition(lambda self: any(not f.done() for f in self.h.outers))
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick):
        open_outers = [f for f in self.h.outers if not f.done()]
        self.h.step(open_outers[pick % len(open_outers)].cancel)

    @precondition(lambda self: not self.h.gateway.core.draining)
    @rule()
    def drain(self):
        self.h.step(self.h.gateway._begin_drain)

    @invariant()
    def conserved_and_ledgered(self):
        self.h.check()
        if self.h.gateway._resilience is None:
            return
        counters = self.h.counters()
        for counter, (event, cause) in COUNTER_EVENTS.items():
            entries = self.h.ledger(event)
            ledgered = sum(cause is None or e.cause == cause for e in entries)
            assert counters[counter] == ledgered, counter

    @invariant()
    def quiescent_when_nothing_can_happen(self):
        if self.open_attempts() or self.h.sub.live_timers():
            return
        gateway = self.h.gateway
        assert not gateway._parked and gateway._open_calls == 0
        assert gateway.pending() == 0
        self.h.assert_settled_once()
        if gateway._resilience is not None and not gateway.core.draining:
            # a probe slot is only taken by an attempt in flight or parked
            for breaker in gateway._resilience.breakers:
                assert breaker is None or not (
                    breaker.state == BREAKER_HALF_OPEN
                    and breaker._probe_inflight
                )

    def teardown(self):
        """Answer everything and run every timer: nothing stays open."""
        while self.open_attempts() or self.h.sub.live_timers():
            for future in self.open_attempts():
                self.h.step(future.set_result, "answer")
            self.h.step(self.h.sub.advance, 2 * BACKOFF)
            self.conserved_and_ledgered()
        self.quiescent_when_nothing_can_happen()


@pytest.mark.parametrize("config", list(MACHINE_CONFIGS))
def test_the_gateway_machine_holds_under_any_interleaving(config):
    machine = type(
        "GatewayMachine",
        (GatewayMachine,),
        {"make_harness": staticmethod(MACHINE_CONFIGS[config])},
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=30,
            stateful_step_count=25,
            deadline=None,
            derandomize=True,
            database=None,
        ),
    )


# ----------------------------------------------------------------------
# the service machine
# ----------------------------------------------------------------------

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)
OTHER = WorkloadConfig("MobileNetV2", "adam", 16)


def answer(workload=WORKLOAD):
    return SyntheticEstimator().estimate(workload, RTX_3060)


class FakeService(ServiceDispatch):
    """``_launch`` parks a future the test resolves by hand."""

    def __init__(self, middlewares=None, recoveries=0):
        self.sub = FakeSubstrate()
        super().__init__(
            SyntheticEstimator(), middlewares, None, None, None, self.sub
        )
        self.launched: list[Future] = []
        self.launch_error = None
        self.recoveries = recoveries

    def _launch(self, request, ctx):
        if self.launch_error is not None:
            raise self.launch_error
        inner = Future()
        self.launched.append(inner)
        return inner

    def _recover(self, request, ctx, error, inner):
        if self.recoveries and isinstance(error, BrokenPipeError):
            self.recoveries -= 1
            return self._launch(request, ctx)
        return None


class UnwindsBadly(ServiceMiddleware):
    """An ``on_error`` hook that fails while unwinding."""

    name = "unwinds_badly"

    def on_error(self, request, error, ctx):
        raise RuntimeError("the unwinding hook broke too")


class FailingEstimator(SyntheticEstimator):
    def estimate(self, workload, device):
        raise EstimationError("boom")


class ServiceHarness:
    def __init__(self, **kwargs):
        self.service = FakeService(**kwargs)
        self.futures: list[Future] = []

    def submit(self, workload=WORKLOAD, raises=None):
        if raises is not None:
            with pytest.raises(raises):
                self.service.submit(workload, RTX_3060)
            self.check()
            return None
        future = self.service.submit(workload, RTX_3060)
        self.futures.append(future)
        self.check()
        return future

    def step(self, action, *args):
        action(*args)
        self.check()

    def counters(self):
        return self.service.stats()["service"]

    def check(self):
        service = self.service
        counters = self.counters()
        assert counters["requests"] == (
            counters["cache_hits"]
            + counters["computed"]
            + counters["deduplicated"]
            + counters["rejected"]
            + counters["throttled"]
            + counters["errors"]
            + len(service._inflight)
        )
        # every claimed slot is a launched estimation, and what a
        # waiting drain() sees is what the machine believes
        assert service._dispatched == len(service._inflight)
        assert service.sub.idle == (service._dispatched == 0)
        for future in self.futures:
            assert getattr(future, "settles", 0) <= 1

    def assert_settled_once(self):
        self.check()
        assert self.service._dispatched == 0
        assert self.service.stats()["inflight"] == 0
        for future in self.futures:
            assert future.done() and future.settles == 1


class TestServiceLifecycle:
    def test_a_miss_is_launched_and_settled_once(self):
        h = ServiceHarness()
        future = h.submit()
        (inner,) = h.service.launched
        assert not future.done() and not h.service.sub.idle
        h.step(inner.set_result, answer())
        assert future.result() == answer()
        h.assert_settled_once()
        assert h.counters()["computed"] == 1

    def test_duplicates_share_one_running_future(self):
        h = ServiceHarness()
        first = h.submit()
        twins = [h.submit() for _ in range(3)]
        assert all(twin is first for twin in twins)
        assert len(h.service.launched) == 1
        # handed out running: no one caller can resolve it for the rest
        assert not first.cancel()
        h.step(h.service.launched[0].set_result, answer())
        h.assert_settled_once()
        counters = h.counters()
        assert (counters["computed"], counters["deduplicated"]) == (1, 3)

    def test_a_hit_never_reaches_the_substrate(self):
        h = ServiceHarness()
        h.submit()
        h.step(h.service.launched[0].set_result, answer())
        hit = h.submit()
        assert hit.result() is h.futures[0].result()
        assert len(h.service.launched) == 1
        assert h.counters()["cache_hits"] == 1

    def test_the_slot_is_released_before_the_future_resolves(self):
        """A done-callback that resubmits the fingerprint must be served
        by the cache, not handed the already-resolved in-flight future."""
        h = ServiceHarness()
        first = h.submit()
        resubmitted = []
        first.add_done_callback(
            lambda _: resubmitted.append(
                h.service.submit(WORKLOAD, RTX_3060)
            )
        )
        h.step(h.service.launched[0].set_result, answer())
        (second,) = resubmitted
        assert second is not first and second.result() is first.result()
        counters = h.counters()
        assert (counters["cache_hits"], counters["deduplicated"]) == (1, 0)
        h.assert_settled_once()

    def test_an_estimator_failure_settles_every_duplicate_and_frees_the_slot(self):
        h = ServiceHarness()
        first = h.submit()
        assert h.submit() is first
        h.step(h.service.launched[0].set_exception, EstimationError("boom"))
        assert isinstance(first.exception(), EstimationError)
        h.assert_settled_once()
        assert h.counters()["errors"] == 1
        h.submit()  # the fingerprint is free again: this one launches
        assert len(h.service.launched) == 2

    def test_a_launch_that_raises_surfaces_through_the_future(self):
        h = ServiceHarness()
        h.service.launch_error = RuntimeError("pool is gone")
        future = h.submit()
        assert isinstance(future.exception(), RuntimeError)
        h.assert_settled_once()
        assert h.counters()["errors"] == 1

    def test_a_completion_hook_that_raises_is_an_error_not_a_computed(self):
        class RejectsResults(ServiceMiddleware):
            def on_result(self, request, result, ctx):
                raise EstimationError("implausible")

        h = ServiceHarness(middlewares=(RejectsResults(),))
        future = h.submit()
        h.step(h.service.launched[0].set_result, answer())
        assert isinstance(future.exception(), EstimationError)
        h.assert_settled_once()
        counters = h.counters()
        assert (counters["errors"], counters["computed"]) == (1, 0)

    def test_an_unwinding_hook_that_raises_still_settles_the_request(self):
        h = ServiceHarness(middlewares=(UnwindsBadly(),))
        future = h.submit()
        assert h.submit() is future
        h.step(h.service.launched[0].set_exception, EstimationError("boom"))
        assert isinstance(future.exception(), EstimationError)
        h.assert_settled_once()
        assert h.counters()["errors"] == 1

    def test_hook_refusals_are_classified_and_never_launch(self):
        h = ServiceHarness(
            middlewares=(
                RateLimitMiddleware(0.001, burst=1),
                *default_middlewares(EstimateCache()),
            )
        )
        h.submit(WorkloadConfig("no-such-model", "sgd", 8), RequestRejectedError)
        h.submit(OTHER, RateLimitExceededError)
        assert h.service.launched == []
        counters = h.counters()
        assert (counters["rejected"], counters["throttled"]) == (1, 1)

    def test_a_repaired_substrate_keeps_the_slot_and_the_future(self):
        h = ServiceHarness(recoveries=1)
        future = h.submit()
        h.step(h.service.launched[0].set_exception, BrokenPipeError())
        assert not future.done() and h.service._dispatched == 1
        assert h.submit() is future  # still the one in-flight estimation
        h.step(h.service.launched[1].set_result, answer())
        assert future.result() == answer()
        h.assert_settled_once()
        # the budget is the driver's: the next break surfaces
        again = h.submit(OTHER)
        h.step(h.service.launched[2].set_exception, BrokenPipeError())
        assert isinstance(again.exception(), BrokenPipeError)
        h.assert_settled_once()

    def test_a_draining_service_refuses_at_the_gate(self):
        h = ServiceHarness()
        pending = h.submit()
        h.service._draining = True
        h.submit(OTHER, ServiceClosedError)
        assert h.counters()["requests"] == 1  # turned away uncounted
        h.step(h.service.launched[0].set_result, answer())
        assert pending.result() == answer()  # nothing in flight is lost
        h.assert_settled_once()


# ----------------------------------------------------------------------
# the same promises on the three real drivers
# ----------------------------------------------------------------------

#: module-level partials: picklable under any start method
instant = partial(SyntheticEstimator)
slow = partial(SyntheticEstimator, work_seconds=0.3)

SERVICE_DRIVERS = {
    "thread": lambda factory, **kwargs: EstimationService(
        estimator=factory(), **kwargs
    ),
    "asyncio": lambda factory, **kwargs: AsyncEstimationService(
        estimator=factory(), **kwargs
    ),
    "process": lambda factory, **kwargs: ProcEstimationService(
        estimator_factory=factory, max_workers=1, **kwargs
    ),
}


async def outcome(future):
    """Await a future of either kind (the scenarios run on a loop so
    one body serves the sync drivers and the asyncio one)."""
    if isinstance(future, asyncio.Future):
        return await future
    return await asyncio.wrap_future(future)


async def shut(service, wait=True):
    if hasattr(service, "aclose"):
        await service.aclose(wait=wait)
    else:
        service.close(wait=wait)


@pytest.fixture
def stray_errors(caplog):
    """What escaped into a worker, callback or timer thread (or the
    loop's exception handler) while the test ran."""
    escaped = []
    previous = threading.excepthook
    threading.excepthook = lambda args: escaped.append(repr(args.exc_value))
    caplog.set_level(logging.ERROR)
    yield lambda: escaped + [
        record.getMessage()
        for record in caplog.records
        if record.name in ("concurrent.futures", "asyncio")
    ]
    threading.excepthook = previous


class TestEveryServiceDriver:
    @pytest.mark.parametrize("driver", SERVICE_DRIVERS)
    def test_one_callers_cancel_leaves_the_duplicates_intact(
        self, driver, stray_errors
    ):
        # regression: the sync drivers shared a *pending* future, so one
        # caller's cancel() succeeded, every duplicate saw
        # CancelledError, and the worker's own settle blew up
        async def main():
            service = SERVICE_DRIVERS[driver](slow)
            try:
                impatient = service.submit(WORKLOAD, RTX_3060)
                patient = service.submit(WORKLOAD, RTX_3060)
                # threads share the one running future (which refuses);
                # the loop hands each caller its own (cancel is local)
                assert impatient.cancel() == (driver == "asyncio")
                assert service.stats()["inflight"] == 1
                return await outcome(patient), service.stats()["service"]
            finally:
                await shut(service)

        result, counters = asyncio.run(main())
        assert result.peak_bytes == answer().peak_bytes
        assert counters["computed"] == counters["deduplicated"] == 1
        assert counters["errors"] == 0
        assert stray_errors() == []

    @pytest.mark.parametrize("gateway_type", [ServiceGateway, ProcServiceGateway])
    def test_a_cancel_through_the_gateway_holds_the_slot_until_the_estimate_ends(
        self, gateway_type, stray_errors
    ):
        with gateway_type(num_shards=2, estimator_factory=slow) as gateway:
            first = gateway.submit(WORKLOAD, RTX_3060)
            second = gateway.submit(WORKLOAD, RTX_3060)
            assert second is first and not first.cancel()
            assert gateway.pending() == 2 and not first.done()
            assert gateway.drain(timeout=30)  # blocks: a worker is busy
            assert first.result(timeout=0).peak_bytes == answer().peak_bytes
            aggregate = gateway.stats()["aggregate"]
        assert (aggregate["computed"], aggregate["errors"]) == (1, 0)
        assert stray_errors() == []

    @pytest.mark.parametrize("driver", ["thread", "asyncio"])
    def test_an_unwinding_hook_that_raises_strands_nothing(self, driver):
        """The estimator fails and an ``on_error`` hook raises too: the
        caller still gets the estimator's error, the single-flight slot
        is freed and ``drain()`` sees the service go idle."""

        async def main():
            service = SERVICE_DRIVERS[driver](
                FailingEstimator, middlewares=(UnwindsBadly(),)
            )
            try:
                future = service.submit(WORKLOAD, RTX_3060)
                with pytest.raises(EstimationError):
                    await asyncio.wait_for(outcome(future), 2.0)
                drained = service.drain(timeout=2.0)
                if asyncio.iscoroutine(drained):
                    drained = await drained
                return drained, service.stats()
            finally:
                await shut(service, wait=False)

        drained, stats = asyncio.run(main())
        assert drained and stats["inflight"] == 0
        assert stats["service"]["requests"] == stats["service"]["errors"] == 1

    @pytest.mark.parametrize("driver", SERVICE_DRIVERS)
    def test_a_launch_that_raises_surfaces_as_one_error(self, driver):
        async def main():
            service = SERVICE_DRIVERS[driver](instant)
            # break the substrate out from under the service: the launch
            # must fail through the future, not hang a single-flight slot
            service._executor.shutdown(wait=True)
            try:
                with pytest.raises(RuntimeError):
                    await outcome(service.submit(WORKLOAD, RTX_3060))
                return service.stats()
            finally:
                await shut(service, wait=False)

        stats = asyncio.run(main())
        assert stats["inflight"] == 0
        assert stats["service"]["requests"] == stats["service"]["errors"] == 1
