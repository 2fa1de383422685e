"""Replay a traffic trace at a target: the one pacing policy and its shell.

``xmem loadtest``, the identity benches and the parity tests push a
:class:`~repro.service.traffic.TrafficTrace` at a gateway, a bare
service or a TCP client, wave by wave, and count what comes back in a
:class:`ReplayReport`.  The policy — how many requests are left in
flight, when a wave has ended, which outcome counts where — is written
once, in :func:`pace`, which never waits: it yields the condition to
wait for, and each driver supplies only the wait.  :func:`replay` waits
on a ``threading.Condition``;
:func:`repro.service.aio.replay_async` waits on an ``asyncio.Event``.
So the two replays of one trace are accounted alike, and a driver
comparison is apples-to-apples.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from ..errors import (
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
)
from .metrics import percentile
from .traffic import TrafficTrace

__all__ = ["ReplayReport", "pace", "replay"]


@dataclass
class ReplayReport:
    """Outcome counts and timings of one trace replay.

    Tenanted requests are additionally bucketed per tenant (counters +
    end-to-end latency samples) so fairness claims — "the well-behaved
    tenant's p99 survived the flood" — are assertable from one report.
    Untenanted requests only touch the top-level counters, keeping the
    report shape of single-tenant scenarios unchanged.
    """

    scenario: str
    num_requests: int
    answered: int = 0
    shed: int = 0
    quota_shed: int = 0
    rejected: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    #: tenant -> outcome counters (submitted/answered/shed/quota_shed/
    #: rejected/errors); populated only for tenanted requests
    tenants: dict = field(default_factory=dict)
    #: tenant -> raw submit-to-result latency samples (seconds, answered
    #: requests only); serialized as percentiles, not raw samples
    tenant_latencies: dict = field(default_factory=dict)
    #: what each ``submit`` returned, in submission order: its future, or
    #: the refusal it raised; not serialized, shown or compared
    submissions: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def tenant_bucket(self, tenant: str) -> dict:
        """Per-tenant counters, created zeroed on first touch."""
        return self.tenants.setdefault(
            tenant,
            {
                "submitted": 0,
                "answered": 0,
                "shed": 0,
                "quota_shed": 0,
                "rejected": 0,
                "errors": 0,
            },
        )

    def tally(
        self,
        tenant: str,
        error: Optional[BaseException],
        latency: float = 0.0,
    ) -> None:
        """Count one request's outcome — the replay's one outcome table.

        ``error`` is what ``submit`` raised or the future failed with
        (None = answered after ``latency`` seconds).  Order matters:
        quota errors are rate-limit errors.
        """
        if error is None:
            counters = ("answered",)
        elif isinstance(error, QuotaExceededError):
            counters = ("shed", "quota_shed")
        elif isinstance(error, RateLimitExceededError):
            counters = ("shed",)
        elif isinstance(error, RequestRejectedError):
            counters = ("rejected",)
        else:
            counters = ("errors",)
        bucket = self.tenant_bucket(tenant) if tenant else None
        for counter in counters:
            setattr(self, counter, getattr(self, counter) + 1)
            if bucket is not None:
                bucket[counter] += 1
        if error is None and tenant:
            self.tenant_latencies.setdefault(tenant, []).append(latency)

    def tenant_latency_ms(self, tenant: str, q: float) -> float:
        """Linear-interpolated latency percentile for one tenant (ms)."""
        value = percentile(self.tenant_latencies.get(tenant, ()), q)
        return 0.0 if value is None else value * 1000.0

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.answered / self.elapsed_seconds

    @property
    def shed_rate(self) -> float:
        return self.shed / self.num_requests if self.num_requests else 0.0

    @property
    def reject_rate(self) -> float:
        return (
            self.rejected / self.num_requests if self.num_requests else 0.0
        )

    def as_dict(self) -> dict:
        report = {
            "scenario": self.scenario,
            "num_requests": self.num_requests,
            "answered": self.answered,
            "shed": self.shed,
            "quota_shed": self.quota_shed,
            "rejected": self.rejected,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "shed_rate": self.shed_rate,
            "reject_rate": self.reject_rate,
            "stats": self.stats,
        }
        if self.tenants:
            report["tenants"] = {
                name: {
                    **counters,
                    "p50_ms": self.tenant_latency_ms(name, 50),
                    "p95_ms": self.tenant_latency_ms(name, 95),
                    "p99_ms": self.tenant_latency_ms(name, 99),
                }
                for name, counters in sorted(self.tenants.items())
            }
        return report


def pace(
    trace: TrafficTrace, target, lock, wake: Callable[[], None]
) -> tuple[ReplayReport, Iterator[Callable[[], bool]]]:
    """The replay policy, with the waiting left to the caller.

    Returns the report and an iterator: each step submits the trace up
    to its next wait and yields the condition that ends it.  A shell
    waits until the condition holds, then takes the next step; the
    report is complete once the iterator is exhausted.

    Each wave is submitted concurrently (``submit``) and settles before
    the next begins — bursts stress single-flight and queues, wave
    boundaries let caches matter.  Within a wave at most
    ``target.max_queue_depth`` requests are left in flight: past that,
    the shell waits for one to settle, so a wave submitted faster than
    the first answers come back does not overflow a shard's queue.  A
    target without the attribute (a TCP client) takes the depth from the
    ``gateway`` block of its ``stats()``, read once before the clock
    starts; a target whose stats have no such block (a bare service)
    gets each wave whole.

    Sheds (``RateLimitExceededError``) and validation rejections are
    *expected* outcomes; they are counted, not raised, wherever they
    surface: in-process drivers raise them from ``submit`` (nothing was
    enqueued), a network client fails the future with the same typed
    exception.  Any other exception ``submit`` raises propagates.

    A future's outcome is collected when it settles — by a done-callback
    that runs under ``lock`` on whichever thread settles it, after the
    target's own callback, and calls ``wake`` — and the replaying thread
    tallies each wave once it has joined.
    """
    report = ReplayReport(scenario=trace.scenario, num_requests=len(trace))
    window = (
        getattr(target, "max_queue_depth", None)
        or target.stats().get("gateway", {}).get("max_queue_depth")
        or len(trace)
    )
    #: (tenant, error, latency) per future settled in this wave
    outcomes: list = []

    def settled(tenant: str, submitted_at: float, future) -> None:
        # the latency is read when the future settled, not when the
        # replayer gets around to it
        latency = time.perf_counter() - submitted_at
        error = CancelledError() if future.cancelled() else future.exception()
        with lock:
            outcomes.append((tenant, error, latency))
            wake()

    def steps() -> Iterator[Callable[[], bool]]:
        futures = 0  # submitted in this wave; in flight: not yet settled
        started = time.perf_counter()
        for wave in trace.waves():
            for request in wave:
                # kwargs only off their defaults: untenanted traces call
                # submit() exactly as pre-control-plane replays did, so
                # any target with the old signature still works
                kwargs = {"tenant": request.tenant} if request.tenant else {}
                if request.tenant:
                    report.tenant_bucket(request.tenant)["submitted"] += 1
                if request.priority != 1:
                    kwargs["priority"] = request.priority
                submitted_at = time.perf_counter()
                try:
                    future = target.submit(request.workload, request.device, **kwargs)
                except (RateLimitExceededError, RequestRejectedError) as error:
                    report.submissions.append(error)
                    report.tally(request.tenant, error)
                    continue
                report.submissions.append(future)
                futures += 1
                if future.done():
                    # asyncio would run the callback a loop turn later: a
                    # hit-heavy wave would hold slots it does not use
                    settled(request.tenant, submitted_at, future)
                else:
                    future.add_done_callback(partial(settled, request.tenant, submitted_at))
                yield lambda: futures - len(outcomes) < window
            yield lambda: futures == len(outcomes)
            for outcome in outcomes:
                report.tally(*outcome)
            outcomes.clear()
            futures = 0
        report.elapsed_seconds = time.perf_counter() - started
        report.stats = target.stats()

    return report, steps()


def replay(trace: TrafficTrace, target) -> ReplayReport:
    """Replay a trace against a thread, process or TCP target, wave by
    wave (:func:`pace`), waiting on a ``threading.Condition`` that each
    settled future notifies."""
    progress = threading.Condition()
    report, steps = pace(trace, target, progress, progress.notify)
    for ready in steps:
        with progress:
            progress.wait_for(ready)
    return report
