"""Resilience policies: retry/backoff and circuit breaking.

The recovery side of the fault plane (:mod:`repro.service.faults`),
expressed — like every other policy in this stack — as sans-IO decision
objects the drivers consult.  Nothing here sleeps, spawns, or schedules:
:class:`RetryPolicy` *computes* a backoff delay, :class:`CircuitBreaker`
*answers* ``allow()``, :class:`ResilienceCore` *chooses* a shard.  The
gateway shells own the timers (``threading.Timer`` on the thread/procpool
substrate, ``loop.call_later`` on asyncio) and call back in.

Determinism is a design axis, not an accident.  A breaker buffers
attempt outcomes and applies them — sorted by the gateway submission
sequence that produced them — only when the gateway goes idle (a wave
boundary in every replay harness).  State transitions, and therefore
every re-route decision, then depend only on the request stream and the
fault plan, never on completion interleaving.  Backoff jitter is a hash
of ``(fingerprint, attempt)`` rather than a PRNG draw, so retry
schedules replay exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from concurrent.futures.process import BrokenProcessPool

from ..errors import (
    ConnectionLostError,
    InjectedFaultError,
    RateLimitExceededError,
    RequestRejectedError,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerConfig",
    "CircuitBreaker",
    "ResilienceCore",
    "ResiliencePolicy",
    "RetryBudget",
    "RetryPolicy",
    "default_resilience",
    "is_transient",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Transient failures worth another attempt.  Rejections
#: (:class:`RequestRejectedError`, which includes deadline misses) are
#: excluded — re-sending an invalid or expired request cannot succeed.
_TRANSIENT_ERRORS = (
    InjectedFaultError,
    ConnectionLostError,
    BrokenProcessPool,
    RateLimitExceededError,
)


def is_transient(error: BaseException) -> bool:
    """Whether a failure says something recoverable happened.

    Transient failures are worth retrying and count against the shard's
    circuit breaker; rejections (validation, deadline) are terminal and
    say nothing about shard health.
    """
    if isinstance(error, RequestRejectedError):
        return False
    return isinstance(error, _TRANSIENT_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, fingerprint-keyed jitter."""

    #: total attempts including the first (3 = first + two retries)
    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.1
    #: jitter fraction in [0, 1]: delay *= 1 + jitter * u(fingerprint)
    jitter: float = 0.5

    def retryable(self, error: BaseException) -> bool:
        return is_transient(error)

    def delay(self, fingerprint: str, attempt: int) -> float:
        """Backoff before ``attempt`` (2 = first retry).

        Jitter decorrelates retry herds without a PRNG: the uniform
        draw is a hash of ``(fingerprint, attempt)``, so the same
        request retries on the same schedule in every run.
        """
        step = max(0, attempt - 2)
        base = min(self.max_delay, self.base_delay * self.multiplier**step)
        token = hashlib.sha256(
            f"{fingerprint}#{attempt}".encode("utf-8")
        ).digest()
        uniform = int.from_bytes(token[:8], "big") / 2**64
        return base * (1.0 + self.jitter * uniform)


class RetryBudget:
    """Global retry-budget: retries may not exceed a fraction of traffic.

    Classic ratio-plus-burst shape: at most ``burst + ratio * requests``
    retries total.  A binding budget is reactively fair but *not*
    replay-deterministic (spend order follows completion order), so the
    determinism tests run without one; the chaos defaults keep it
    generous enough to never bind under planned fault rates.
    """

    __slots__ = ("ratio", "burst", "requests", "spent", "denied")

    def __init__(self, ratio: float = 0.2, burst: int = 16):
        self.ratio = ratio
        self.burst = burst
        self.requests = 0
        self.spent = 0
        self.denied = 0

    def note_request(self) -> None:
        self.requests += 1

    def allow(self) -> bool:
        if self.spent < self.burst + self.ratio * self.requests:
            return True
        self.denied += 1
        return False

    def spend(self) -> None:
        self.spent += 1

    def snapshot(self) -> dict:
        return {
            "ratio": self.ratio,
            "burst": self.burst,
            "spent": self.spent,
            "denied": self.denied,
        }


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for one per-shard :class:`CircuitBreaker`."""

    #: consecutive failures that trip CLOSED -> OPEN
    failure_threshold: int = 4
    #: gateway submissions an OPEN breaker sits out before HALF_OPEN
    cooldown_ticks: int = 24


class CircuitBreaker:
    """Per-shard health: CLOSED -> OPEN -> HALF_OPEN -> CLOSED.

    Time is measured in gateway submission *ticks*, not wall-clock —
    the cooldown of an open breaker elapses as traffic flows, which is
    both deterministic and load-proportional.  HALF_OPEN admits exactly
    one probe; its outcome closes or re-opens the circuit, and a probe
    whose outcome carries no verdict frees the slot for the next one.
    """

    __slots__ = (
        "config",
        "state",
        "_consecutive",
        "_cooldown_left",
        "_probe_inflight",
        "_buffer",
        "opens",
        "closes",
    )

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = BREAKER_CLOSED
        self._consecutive = 0
        self._cooldown_left = 0
        self._probe_inflight = False
        self._buffer: list[tuple[int, Optional[bool]]] = []
        self.opens = 0
        self.closes = 0

    def allow(self) -> bool:
        """May a request be dispatched to this shard right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record(self, seq: int, ok: Optional[bool]) -> None:
        """Buffer an attempt outcome until :meth:`sync`.

        ``ok`` is True for an answer, False for a transient failure and
        None for an outcome that says nothing about the shard's health
        (a rejection); ``seq`` (the gateway submission sequence) is the
        sort key that makes the application order run-independent.
        """
        self._buffer.append((seq, ok))

    def sync(self) -> list[str]:
        """Apply buffered outcomes in submission order."""
        if not self._buffer:
            return []
        self._buffer.sort(key=lambda item: item[0])
        transitions = []
        for _, ok in self._buffer:
            transition = self._apply(ok)
            if transition is not None:
                transitions.append(transition)
        self._buffer.clear()
        return transitions

    def tick(self) -> Optional[str]:
        """One gateway submission elapsed; cool an open breaker down."""
        if self.state == BREAKER_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = BREAKER_HALF_OPEN
                self._probe_inflight = False
                return BREAKER_HALF_OPEN
        return None

    def _apply(self, ok: Optional[bool]) -> Optional[str]:
        if ok is None:
            # no verdict: only a probe slot is freed
            if self.state == BREAKER_HALF_OPEN:
                self._probe_inflight = False
            return None
        if ok:
            self._consecutive = 0
            if self.state == BREAKER_HALF_OPEN:
                self.state = BREAKER_CLOSED
                self._probe_inflight = False
                self.closes += 1
                return BREAKER_CLOSED
            return None
        self._consecutive += 1
        if self.state == BREAKER_CLOSED:
            if self._consecutive >= self.config.failure_threshold:
                self._trip()
                return BREAKER_OPEN
        elif self.state == BREAKER_HALF_OPEN:
            self._trip()
            return BREAKER_OPEN
        return None

    def _trip(self) -> None:
        self.state = BREAKER_OPEN
        self._cooldown_left = self.config.cooldown_ticks
        self._probe_inflight = False
        self._consecutive = 0
        self.opens += 1


@dataclass(frozen=True)
class ResiliencePolicy:
    """The policy bundle a gateway is constructed with.

    Every member is optional: ``retry=None`` disables retries,
    ``breaker=None`` disables circuit breaking (and re-routing),
    ``budget=None`` removes the global retry cap.  A gateway constructed
    without any ``ResiliencePolicy`` at all runs the exact
    pre-resilience code path.
    """

    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    budget: Optional[RetryBudget] = None
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)


def default_resilience() -> ResiliencePolicy:
    """The chaos-lane default: retries, a generous budget, breakers."""
    return ResiliencePolicy(
        retry=RetryPolicy(),
        budget=RetryBudget(ratio=1.0, burst=64),
        breaker=BreakerConfig(),
    )


class ResilienceCore:
    """Per-gateway resilience state: one breaker per shard + counters.

    All mutation must happen under the driver's serialization point (the
    gateway lock / the event loop) — this object is sans-IO and adds no
    locking, like :class:`~repro.service.core.GatewayCore` itself.
    """

    def __init__(self, num_shards: int, policy: ResiliencePolicy):
        self.policy = policy
        self.num_shards = num_shards
        self.breakers: list[Optional[CircuitBreaker]] = [
            CircuitBreaker(policy.breaker) if policy.breaker else None
            for _ in range(num_shards)
        ]
        self.counters = {
            "retries": 0,
            "reroutes": 0,
            "breaker_opens": 0,
            "breaker_closes": 0,
            "shed_open_circuit": 0,
            "shed_on_drain": 0,
        }

    # -- routing ---------------------------------------------------------

    def tick(self) -> list[tuple[int, str]]:
        """Advance breaker cooldowns by one submission; returns transitions."""
        transitions = []
        for shard, breaker in enumerate(self.breakers):
            if breaker is not None:
                transition = breaker.tick()
                if transition is not None:
                    transitions.append((shard, transition))
        if self.policy.budget is not None:
            self.policy.budget.note_request()
        return transitions

    def shard_allowed(self, shard: int) -> bool:
        breaker = self.breakers[shard]
        return breaker is None or breaker.allow()

    def choose_shard(self, primary: int) -> tuple[Optional[int], bool]:
        """Route around open circuits: ``(target, was_rerouted)``.

        Deterministic scan order from the primary; ``(None, True)`` when
        every shard's breaker refuses — the caller sheds with
        :class:`~repro.errors.CircuitOpenError`.
        """
        if self.shard_allowed(primary):
            return primary, False
        for offset in range(1, self.num_shards):
            candidate = (primary + offset) % self.num_shards
            if self.shard_allowed(candidate):
                self.counters["reroutes"] += 1
                return candidate, True
        return None, True

    def retry_target(self, current: int, attempt: int) -> Optional[int]:
        """Where attempt ``attempt`` should go after a failure on ``current``.

        Prefers moving off the failed shard (scan starts one past it),
        falling back to the failed shard itself only if it is the sole
        healthy one.
        """
        for offset in range(1, self.num_shards + 1):
            candidate = (current + offset) % self.num_shards
            if self.shard_allowed(candidate):
                return candidate
        return None

    # -- outcomes --------------------------------------------------------

    def record_outcome(self, shard: int, seq: int, ok: Optional[bool]) -> None:
        breaker = self.breakers[shard]
        if breaker is not None:
            breaker.record(seq, ok)

    def sync(self) -> list[tuple[int, str]]:
        """Apply buffered breaker outcomes (call at idle boundaries)."""
        transitions = []
        for shard, breaker in enumerate(self.breakers):
            if breaker is not None:
                for transition in breaker.sync():
                    if transition == BREAKER_OPEN:
                        self.counters["breaker_opens"] += 1
                    elif transition == BREAKER_CLOSED:
                        self.counters["breaker_closes"] += 1
                    transitions.append((shard, transition))
        return transitions

    # -- retry decisions -------------------------------------------------

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        retry = self.policy.retry
        if retry is None or attempt >= retry.max_attempts:
            return False
        if not retry.retryable(error):
            return False
        budget = self.policy.budget
        return budget is None or budget.allow()

    def spend_retry(self) -> None:
        self.counters["retries"] += 1
        if self.policy.budget is not None:
            self.policy.budget.spend()

    # -- reporting -------------------------------------------------------

    def breaker_states(self) -> list[Optional[str]]:
        return [
            breaker.state if breaker is not None else None
            for breaker in self.breakers
        ]

    def snapshot(self) -> dict:
        snap = dict(self.counters)
        snap["breaker_states"] = self.breaker_states()
        if self.policy.budget is not None:
            snap["budget"] = self.policy.budget.snapshot()
        return snap
