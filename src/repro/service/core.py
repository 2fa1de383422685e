"""The sans-IO service core: every policy step, no execution substrate.

This module is the single source of truth for what it *means* to serve an
estimation request — fingerprinting, middleware interception, cache
population, single-flight bookkeeping, metric classification, gateway
admission/shed/settle accounting — expressed as plain method calls with
no threads, no event loop, and no blocking.  The execution drivers
(:mod:`repro.service.engine` on a thread pool,
:mod:`repro.service.aio` on an asyncio event loop) own *when* these
steps run and under what mutual exclusion; the core owns *what* happens.

Driver contract:

* :class:`ServiceCore` methods are synchronous and non-blocking.  The
  single-flight table (:class:`SingleFlight`) must only be touched under
  the driver's serialization regime — a lock for the thread driver,
  the event loop itself for asyncio.
* :class:`GatewayCore` mutating methods (``admit`` / ``settle`` /
  ``count_request`` / lifecycle flags) carry the same requirement.
* Metric recording goes through :class:`~repro.service.metrics.ServiceMetrics`,
  which is internally synchronized and safe from any driver.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.result import EstimationResult
from ..errors import (
    DeadlineExceededError,
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from ..workload import DeviceSpec, WorkloadConfig
from .cache import EstimateCache
from .context import RequestContext, ServiceRequest
from .control import DEFAULT_PRIORITY, ControlPlane
from .faults import apply_fault_directive
from .fingerprint import fingerprint_request
from .metrics import ServiceMetrics, latency_histogram, percentile
from .middleware import CacheMiddleware, MiddlewareChain, ServiceMiddleware
from .routing import RoutingPolicy
from .telemetry import ledger as ledger_events
from .telemetry.ledger import AuditLedger
from .telemetry.spans import RequestTelemetry, Tracer


def compute_fingerprint(
    estimator, workload: WorkloadConfig, device: DeviceSpec
) -> str:
    """The cache/single-flight key a service derives for one request."""
    return fingerprint_request(
        workload,
        device,
        estimator_name=estimator.name,
        estimator_version=str(getattr(estimator, "version", "")),
        allocator_config=getattr(estimator, "allocator_config", None),
    )


def invoke_estimator(estimator, request: ServiceRequest):
    """Run the wrapped estimator for one request (the CPU-bound step).

    Both drivers call this from their execution substrate — a worker
    thread or an executor the event loop offloads to.  This is also the
    fault plane's application point (PR 8): a ``metadata["fault"]``
    directive stamped by the gateway fires here, on every substrate —
    including inside procpool workers, since the metadata bag rides the
    pickled request across the process boundary.
    """
    directive = request.metadata.get("fault")
    if directive:
        apply_fault_directive(directive)
    return estimator.estimate(request.workload, request.device)


def adopt_chain_cache(
    middlewares: Sequence[ServiceMiddleware], fallback: EstimateCache
) -> EstimateCache:
    """The cache that actually serves hits for this chain.

    ``stats()`` must see the cache the chain's :class:`CacheMiddleware`
    consults; fall back to the service's own when the chain has none
    (hits are then impossible, stats just idle).
    """
    for middleware in middlewares:
        if isinstance(middleware, CacheMiddleware):
            return middleware.cache
    return fallback


class SingleFlight:
    """Fingerprint → in-flight handle, with no synchronization of its own.

    The handle is whatever the driver shares between duplicate callers —
    a ``concurrent.futures.Future`` for threads, an ``asyncio.Future``
    for the event loop.  Drivers must call these methods under their own
    mutual exclusion; the core only defines the bookkeeping.
    """

    __slots__ = ("_inflight",)

    def __init__(self):
        self._inflight: dict[str, Any] = {}

    def get(self, fingerprint: str) -> Optional[Any]:
        return self._inflight.get(fingerprint)

    def claim(self, fingerprint: str, handle: Any) -> None:
        self._inflight[fingerprint] = handle

    def release(self, fingerprint: str) -> None:
        self._inflight.pop(fingerprint, None)

    def __len__(self) -> int:
        return len(self._inflight)


@dataclass(frozen=True)
class Admission:
    """What the request hooks decided for one request.

    ``result`` non-None means the chain short-circuited (cache hit,
    synthetic answer): the result has already passed ``on_result`` for
    the outer layers and been recorded in the metrics — the driver just
    wraps it in its future type.  ``result`` None means the estimator
    must run; ``depth`` is how many layers are owed ``on_result`` /
    ``on_error`` afterwards.
    """

    result: Optional[EstimationResult]
    depth: int


#: How each way a request can end is observed — ``outcome ->
#: (ServiceMetrics recorder, ledger event, root-span status)``.  The
#: service-side sibling of :func:`~repro.service.dispatch.admit_refusal`:
#: every path through :class:`ServiceCore` ends in one
#: :meth:`ServiceCore._emit` reading one row, so counter, ledger and span
#: cannot disagree about an outcome.
OUTCOMES = {
    "cache_hit": ("record_cache_hit", ledger_events.CACHE_HIT, "ok"),
    "short_circuit": ("record_computed", ledger_events.ADMIT, "ok"),
    "computed": ("record_computed", ledger_events.COMPUTED, "ok"),
    "deduplicated": ("record_deduplicated", ledger_events.DEDUP, "ok"),
    "deadline": ("record_rejected", ledger_events.DEADLINE, "deadline"),
    "throttled": ("record_throttled", ledger_events.THROTTLED, "throttled"),
    "rejected": ("record_rejected", ledger_events.REJECTED, "rejected"),
    "error": ("record_error", ledger_events.ERROR, "error"),
}
#: the outcomes that answered the caller: their recorders take the latency
_ANSWERED = ("cache_hit", "short_circuit", "computed")


class ServiceCore:
    """Driver-independent request pipeline for one estimation service.

    Owns the middleware chain, the cache handle, the metrics sink, the
    single-flight table, and the request-id sequence.  The order its
    steps run in — and under which mutual exclusion — is
    :class:`~repro.service.dispatch.ServiceDispatch`'s.
    """

    def __init__(
        self,
        chain: MiddlewareChain,
        cache: EstimateCache,
        metrics: ServiceMetrics,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Optional[Tracer] = None,
        ledger: Optional[AuditLedger] = None,
        shard_id: Optional[int] = None,
    ):
        self.chain = chain
        self.cache = cache
        self.metrics = metrics
        self.clock = clock
        self.tracer = tracer
        self.ledger = ledger
        #: gateway-assigned position in the fleet (None standalone);
        #: stamped onto every ledger event for provenance
        self.shard_id = shard_id
        self.inflight = SingleFlight()
        self._request_ids = itertools.count(1)

    def _record_decision(
        self,
        event: str,
        cause: str,
        ctx: RequestContext,
        worker: Optional[str] = None,
        attributes: Optional[dict] = None,
    ) -> None:
        """Ledger one service-layer policy decision (no-op unledgered)."""
        if self.ledger is None:
            return
        if ctx.attempt > 1:
            # retries/failovers carry their attempt number into the
            # ledger so provenance distinguishes re-dispatched work
            attributes = {**(attributes or {}), "attempt": ctx.attempt}
        self.ledger.record(
            event,
            cause=cause,
            fingerprint=ctx.fingerprint,
            request_id=ctx.request_id,
            shard=self.shard_id,
            worker=worker,
            attributes=attributes,
        )

    def _emit(
        self,
        outcome: str,
        cause: str,
        ctx: RequestContext,
        /,
        worker: Optional[str] = None,
        **span_attributes,
    ) -> None:
        """Observe one request's end on all three channels at once — the
        metrics counter, the ledger event, the root span's status.  The
        only place any of them learns how a request ended."""
        recorder, event, status = OUTCOMES[outcome]
        record = getattr(self.metrics, recorder)
        if outcome in _ANSWERED:
            record(self.clock() - ctx.submitted_at)
        else:
            record()
        self._record_decision(event, cause, ctx, worker=worker)
        if ctx.telemetry is not None:
            ctx.telemetry.close(status, **span_attributes)

    def open_request(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        fingerprint: str,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> tuple[ServiceRequest, RequestContext]:
        """Admit one request into the pipeline and stamp its envelope."""
        self.metrics.record_request()
        request = ServiceRequest(
            workload=workload,
            device=device,
            fingerprint=fingerprint,
            metadata=dict(metadata) if metadata else {},
            tenant=tenant,
            priority=priority,
        )
        ctx = RequestContext(
            request_id=next(self._request_ids),
            submitted_at=self.clock(),
            fingerprint=fingerprint,
            deadline=deadline,
            metadata=dict(metadata) if metadata else {},
        )
        if metadata and "attempt" in metadata:
            # the resilience plane stamps the attempt number into the
            # metadata bag (it survives every substrate boundary); the
            # context carries it from here on
            ctx.attempt = int(metadata["attempt"])
        if self.tracer is not None:
            telemetry = RequestTelemetry.begin(
                self.tracer,
                fingerprint,
                ctx.request_id,
                parent_context=ctx.metadata.get("telemetry"),
            )
            ctx.telemetry = telemetry
            # the JSON-safe span context rides the metadata bags so any
            # transport (the procpool pickle boundary included) can
            # re-parent its own spans under this request
            span_context = telemetry.context()
            request.metadata["telemetry"] = span_context
            ctx.metadata["telemetry"] = span_context
        return request, ctx

    def note_deduplicated(self, ctx: RequestContext) -> None:
        """Record that this caller piggybacked on an in-flight duplicate."""
        ctx.deduplicated = True
        self._emit("deduplicated", "single_flight", ctx, deduplicated=True)

    def check_deadline(self, ctx: RequestContext) -> None:
        """Reject (and count) a request whose deadline already passed.

        Drivers call this right after ``open_request`` — before even the
        single-flight lookup, so an expired caller never piggybacks on an
        in-flight duplicate and never pays for a hook.
        """
        now = self.clock()
        if ctx.expired(now):
            self._emit("deadline", "expired_before_dispatch", ctx)
            raise DeadlineExceededError(now - ctx.deadline)

    def run_request_hooks(
        self, request: ServiceRequest, ctx: RequestContext
    ) -> Admission:
        """``on_request`` hooks + budget check, with metric classification.

        Raises the hook's own exception after recording it (throttled /
        rejected / error); a short-circuit answer is completed through
        ``on_result`` and recorded before it is returned.  Deadlines are
        enforced twice overall: the driver calls :meth:`check_deadline`
        before the dedup lookup (caller-supplied deadlines), and this
        method re-checks after the chain, before admitting a compute
        dispatch — so a budget stamped *by* a hook
        (:class:`~repro.service.middleware.DeadlineMiddleware`) still
        rejects before the estimator is paid for.  A short-circuit
        answer is exempt from the second check: it is already computed
        and costs nothing to hand back.
        """
        try:
            short, depth = self.chain.run_request(request, ctx)
        except RateLimitExceededError:
            self._emit("throttled", "rate_limit", ctx)
            raise
        except RequestRejectedError as error:
            self._emit("rejected", type(error).__name__, ctx)
            raise
        except BaseException as error:
            self._emit("error", type(error).__name__, ctx)
            raise
        if short is not None:
            short = self.chain.run_result(request, short, ctx, depth)
            producer = ctx.short_circuited_by
            if ctx.cache_hit:
                self._emit(
                    "cache_hit", producer or "cache", ctx, cache_hit=True
                )
            else:
                self._emit(
                    "short_circuit",
                    f"short_circuit:{producer or 'unknown'}",
                    ctx,
                    cache_hit=False,
                )
            return Admission(result=short, depth=depth)
        now = self.clock()
        if ctx.expired(now):
            # the budget ran out inside the chain (or a hook stamped one
            # that is already hopeless): unwind the entered layers like
            # any other mid-chain rejection, then refuse the dispatch
            error = DeadlineExceededError(now - ctx.deadline)
            self.chain.run_error(request, error, ctx, depth)
            self._emit("deadline", "budget_exhausted_in_chain", ctx)
            raise error
        self._record_decision(ledger_events.ADMIT, "compute", ctx)
        return Admission(result=None, depth=depth)

    def finish(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        result: EstimationResult,
        depth: int,
    ) -> EstimationResult:
        """Post-estimation completion: ``on_result`` hooks + accounting."""
        result = self.chain.run_result(request, result, ctx, depth)
        stages = getattr(result, "stage_seconds", None)
        sources = getattr(result, "stage_sources", None)
        if stages:
            # staged estimators report where computed time went; recorded
            # alongside the computed outcome (and never for cache hits) so
            # the per-stage counts reconcile with the computed counter
            self.metrics.record_stages(stages, sources)
        if ctx.telemetry is not None:
            ctx.telemetry.finish_estimate(stage_seconds=stages)
        worker = ctx.tags.get("worker")
        self._emit(
            "computed",
            "estimator",
            ctx,
            worker=str(worker) if worker is not None else None,
            cache_hit=False,
        )
        if worker is not None:
            # attribution only once the result is accepted: a result an
            # on_result hook rejects is classified as an error, and the
            # per-worker counts must keep summing to `computed`
            self.metrics.record_worker(worker)
        store_stages = sorted(
            stage
            for stage, source in (sources or {}).items()
            if source == "store"
        )
        if store_stages:
            # stages answered by the persistent artifact store (L2) leave
            # an audit trail: cold processes inheriting warm artifacts is
            # a provenance fact, not just a latency win
            self._record_decision(
                ledger_events.ARTIFACT,
                "store_hit",
                ctx,
                attributes={"stages": store_stages},
            )
        return result

    def fail(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        error: BaseException,
        depth: int,
    ) -> None:
        """Failure after admission — the estimator raised, or the driver
        could not hand the request to its substrate: unwind the entered
        ``on_error`` hooks + count it."""
        self.chain.run_error(request, error, ctx, depth)
        if ctx.telemetry is not None:
            ctx.telemetry.finish_estimate(status="error")
        name = type(error).__name__
        self._emit("error", name, ctx, error=name)

    def refuse(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        error: BaseException,
        depth: int,
        cause: str = "dispatch_refused",
    ) -> None:
        """Refusal after admission but before any estimator ran — the
        driver's substrate turned the dispatch away (e.g. a pool racing
        shutdown): unwind the entered layers + count a rejection."""
        self.chain.run_error(request, error, ctx, depth)
        self._emit("rejected", cause, ctx, cause=cause)


# ----------------------------------------------------------------------
# gateway core
# ----------------------------------------------------------------------


class _ShardState:
    """Gateway-side accounting for one shard (no lock: driver-owned)."""

    __slots__ = ("pending", "routed")

    def __init__(self):
        self.pending = 0  # queued-or-running requests admitted by us
        self.routed = 0  # lifetime requests routed to this shard


class GatewayCore:
    """Admission/shed/drain state machine for a sharded gateway.

    Pure counters and decisions: which shard a fingerprint routes to,
    whether a shard may take one more request or must shed, when the
    fleet is idle.  Mutating methods must run under the driver's
    serialization (the thread gateway's lock / the asyncio event loop);
    the driver supplies the waiting primitive ``drain()`` blocks on.
    """

    def __init__(
        self,
        num_shards: int,
        policy: RoutingPolicy,
        max_queue_depth: int,
        control: Optional[ControlPlane] = None,
    ):
        if num_shards < 1:
            raise ValueError("gateway needs at least one shard")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.policy = policy
        self.max_queue_depth = max_queue_depth
        #: multi-tenant admission policy (quota / fair share / deadline /
        #: QoS reserve — see :mod:`repro.service.control`); None = every
        #: request is admitted on queue depth alone, exactly as before
        self.control = control
        self.shards = [_ShardState() for _ in range(num_shards)]
        self.draining = False
        self.closed = False
        self.requests = 0
        self.shed = 0
        self.rejected = 0
        self.throttled = 0

    # -- intake gate ---------------------------------------------------
    def check_open(self) -> None:
        if self.closed or self.draining:
            raise ServiceClosedError("gateway is closed to new requests")

    def count_request(self) -> None:
        self.check_open()
        self.requests += 1

    # -- routing -------------------------------------------------------
    def loads(self) -> list[int]:
        return [shard.pending for shard in self.shards]

    def route(self, fingerprint: str) -> int:
        """The shard that serves one fingerprint."""
        return self.policy.select(fingerprint, self.loads())

    # -- admission -----------------------------------------------------
    def admit(
        self,
        shard_index: int,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
        deadline_remaining: Optional[float] = None,
    ) -> None:
        """Reserve one slot on a shard, or shed.

        Re-checks the intake gate so a drain/close racing with a submit
        either sees the pending slot or turns the request away — never
        both reports idle and lets the request hit a closed shard.

        With a control plane configured, tenant policy is consulted
        *before* the queue-depth check: a hopeless deadline, an exhausted
        quota, or an overdrawn fair share turns the request away without
        ever burning a queue slot.  The control plane's own determinism
        contract (tick clock, peek-then-commit) means these decisions
        depend only on submission order — never on which substrate runs
        them — so the ledgered decision sequence stays byte-identical
        across all four drivers.  Untenanted traffic (``tenant=""``) on
        a control-less gateway takes exactly the pre-control-plane path.
        """
        self.check_open()
        if self.control is not None:
            try:
                self.control.admit(
                    tenant=tenant,
                    priority=priority,
                    deadline_remaining=deadline_remaining,
                )
            except QuotaExceededError:
                self.shed += 1
                raise
            except RequestRejectedError:
                # hopeless deadline or auth refusal: a rejection, not load
                self.rejected += 1
                raise
        shard = self.shards[shard_index]
        if shard.pending >= self.max_queue_depth:
            self.shed += 1
            raise RateLimitExceededError(
                retry_after_seconds=0.05 * (shard.pending + 1)
            )
        shard.pending += 1
        shard.routed += 1

    def settle(
        self,
        shard_index: int,
        rejected: bool = False,
        throttled: bool = False,
    ) -> bool:
        """Release one reserved slot; True when the fleet just went idle."""
        self.shards[shard_index].pending -= 1
        if rejected:
            self.rejected += 1
        if throttled:
            self.throttled += 1
        return self.idle()

    def idle(self) -> bool:
        return all(shard.pending == 0 for shard in self.shards)

    def pending(self) -> int:
        return sum(shard.pending for shard in self.shards)

    def snapshot(self) -> dict:
        """The gateway-level counter block of ``stats()``."""
        snapshot = {
            "policy": self.policy.name,
            "num_shards": len(self.shards),
            "max_queue_depth": self.max_queue_depth,
            "requests": self.requests,
            "shed": self.shed,
            "rejected": self.rejected,
            "throttled": self.throttled,
            "pending": self.pending(),
            "routed_per_shard": [shard.routed for shard in self.shards],
        }
        if self.control is not None:
            snapshot["control"] = self.control.snapshot()
        return snapshot


def aggregate_shard_stats(
    shard_stats: Sequence[dict],
    latency_samples: Optional[Sequence[float]] = None,
) -> dict:
    """Fold per-shard ``service.stats()`` snapshots into fleet totals.

    Counters sum; the hit rate is recomputed from the summed numerators
    (averaging per-shard rates would weight an idle shard like a busy
    one); latency percentiles are taken over ``latency_samples`` — the
    union of every shard's reservoir — which is exact as long as no
    reservoir overflowed.  Idle shards contribute empty reservoirs, and a
    fully idle fleet yields ``None`` percentiles rather than raising, so
    dashboards can poll a fresh deployment.

    Tolerates *partial* snapshots: a shard whose substrate worker died
    mid-request (or a snapshot truncated in transit from a worker
    process) may be missing counters, the cache block, or whole
    sections — every absent field counts as zero instead of raising
    ``KeyError``, because a fleet dashboard must keep rendering the
    healthy shards while one is broken.
    """
    service_keys = (
        "requests",
        "cache_hits",
        "computed",
        "deduplicated",
        "rejected",
        "throttled",
        "errors",
    )
    cache_keys = ("hits", "misses", "evictions", "size")
    totals = {key: 0 for key in service_keys}
    cache = {key: 0 for key in cache_keys}
    # a shard with an empty (or absent) reservoir must not poison the
    # merge: keep only real samples so the percentile math sees numbers
    samples = [s for s in (latency_samples or ()) if s is not None]
    inflight = 0
    stages: dict[str, dict] = {}
    workers: dict[str, int] = {}
    stage_sources: dict[str, int] = {}
    for snapshot in shard_stats:
        service = snapshot.get("service") or {}
        shard_cache = snapshot.get("cache") or {}
        for key in service_keys:
            totals[key] += service.get(key, 0)
        for key in cache_keys:
            cache[key] += shard_cache.get(key, 0)
        inflight += snapshot.get("inflight", 0)
        for stage, data in (service.get("stages") or {}).items():
            fleet = stages.setdefault(
                stage, {"count": 0, "total_seconds": 0.0}
            )
            fleet["count"] += data.get("count", 0)
            fleet["total_seconds"] += data.get("total_seconds", 0.0)
        for worker, count in (service.get("workers") or {}).items():
            # shards of a process gateway share one pool, so the same
            # PID legitimately shows up under several shards: sum them
            workers[worker] = workers.get(worker, 0) + count
        for key, count in (service.get("stage_sources") or {}).items():
            stage_sources[key] = stage_sources.get(key, 0) + count
    for fleet in stages.values():
        fleet["mean_seconds"] = (
            fleet["total_seconds"] / fleet["count"] if fleet["count"] else None
        )
    answered = totals["cache_hits"] + totals["computed"]
    cache_lookups = cache["hits"] + cache["misses"]
    return {
        **totals,
        "inflight": inflight,
        "cache_hit_rate": (
            totals["cache_hits"] / answered if answered else 0.0
        ),
        "cache": {
            **cache,
            "hit_rate": (
                cache["hits"] / cache_lookups if cache_lookups else 0.0
            ),
        },
        "latency_seconds": {
            "count": len(samples),
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
            "p99": percentile(samples, 99),
            "max": max(samples) if samples else None,
            "histogram": latency_histogram(samples),
        },
        "stages": stages,
        "workers": dict(sorted(workers.items())),
        "stage_sources": dict(sorted(stage_sources.items())),
    }
