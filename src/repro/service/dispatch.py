"""The dispatch machines, each written once (sans-IO).

Two lifecycles live here, one per layer, and every driver runs both:

* :class:`ServiceDispatch` — one estimation service's request: intake
  gate, fingerprint, deadline, single-flight lookup, request hooks,
  short-circuit, the locked gate re-check + claim, launch onto the
  driver's execution substrate, completion hooks, release, settle, and
  the dispatched count ``drain()`` waits on — and how each way it ends
  is observed: one row of :data:`OUTCOMES` (metrics counter, ledger
  event, root-span status), read in one place, ``_emit``.
* :class:`GatewayDispatch` — everything a sharded gateway *decides*:
  one attempt step (admit, ledger, submit-to-shard, breaker, settle a
  slot the shard refused) that both paths take — the plain path around
  it (count, route, span), and the resilient path
  (first dispatch, retry with backoff, drain-time shedding) under one
  gateway-owned future per request, with at most one attempt in
  flight.  It drives :class:`~repro.service.core.GatewayCore`,
  :class:`~repro.service.resilience.ResilienceCore` and
  :class:`~repro.service.faults.FaultInjector`, and it is the only place
  a gateway-layer ledger event is recorded.

What a machine cannot decide — how to exclude other threads, what a
future is, how to run something later, how ``drain()`` sleeps — it asks
of the :class:`Substrate` its driver hands in.  Both are written in
lock-structured form (``with self._lock`` around every core mutation;
in the gateway ``state.lock`` then the gateway lock, never the reverse);
on the event loop the locks are :class:`~repro.service.context.NullLock`
and the structure costs a no-op call pair each.  Like the rest of the
core this module imports neither ``threading`` nor ``asyncio``, so both
lifecycles run in a unit test against inline futures and a manual timer
wheel.

The gateway's two paths share that attempt step and differ only in who
owns the caller's future: the plain path hands out the shard's own, the
resilient path — taken when a
:class:`~repro.service.resilience.ResiliencePolicy` or a
:class:`~repro.service.faults.FaultPlan` was configured — an outer future
that attempts come and go under.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, ContextManager, Optional, Protocol, Sequence

from ..core.base import Estimator
from ..core.estimator import XMemEstimator
from ..core.result import EstimationResult
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
    ShardBlackoutError,
)
from ..workload import DeviceSpec, WorkloadConfig
from .cache import EstimateCache
from .context import LockFactory, RequestContext, ServiceRequest
from .control import DEFAULT_PRIORITY, ControlPlane
from .core import GatewayCore, aggregate_shard_stats, invoke_estimator
from .faults import FaultInjector, FaultPlan
from .fingerprint import fingerprint_request
from .metrics import ServiceMetrics
from .middleware import (
    CacheMiddleware,
    MiddlewareChain,
    ServiceMiddleware,
    default_middlewares,
)
from .resilience import ResilienceCore, ResiliencePolicy, is_transient
from .routing import ConsistentHashRouting, RoutingPolicy
from .telemetry import ledger as ledger_events
from .telemetry.spans import GATEWAY_SPAN, RequestTelemetry

__all__ = ["GatewayDispatch", "ServiceDispatch", "Substrate", "admit_refusal"]


class Substrate(Protocol):
    """The primitives a driver lends a dispatch machine.

    None of them touches the ledger, the cores or the injector: a
    substrate is mechanism only.  Each machine instance gets its own
    substrate (its own ``lock``).  The service machine uses ``lock``,
    ``call_lock``, ``new_future``, ``new_master``, ``share``,
    ``when_done``, ``mark_busy`` and ``notify_idle``; the gateway machine
    everything except ``new_master`` / ``share``.
    """

    #: serializes every mutation of the machine's core: ``GatewayCore`` /
    #: ``ResilienceCore`` / injector, or the single-flight table and the
    #: dispatched count of a service
    lock: ContextManager
    #: locks for state touched off ``lock``: one per resilient call
    #: (settled/inflight), one per cache / stateful middleware
    call_lock: LockFactory
    #: what a cancelled shard future is reported as
    CancelledError: type[BaseException]
    #: what settling an already-cancelled future raises
    InvalidStateError: type[Exception]

    def new_future(self) -> Any:
        """A pending future the machine owns and one caller holds."""

    def new_master(self) -> Any:
        """The future every duplicate of one in-flight request shares.

        Handed out *running* where callers hold it directly (threads),
        so no one caller's ``cancel()`` can resolve it for the others
        while the worker is still estimating."""

    def share(self, master: Any) -> Any:
        """What one caller receives for ``master``: the master itself on
        threads; a chained per-caller child on the loop, where futures
        stay cancellable (``wait_for`` cancels on timeout)."""

    def when_done(self, future: Any, callback: Callable[[Any], None]) -> None:
        """Run ``callback(future)`` once it resolves — *inline* when it
        already has (a cache hit must not leave a phantom pending slot
        behind until some later tick)."""

    def call_later(self, delay: float, fn: Callable, *args: Any) -> Any:
        """Schedule ``fn(*args)``; returns a handle with ``cancel()``."""

    def mark_busy(self) -> None:
        """A slot, an outer future or a dispatch was just opened."""

    def notify_idle(self) -> None:
        """Nothing is open any more: wake ``drain()`` (lock held)."""


#: How each way a request can end is observed — ``outcome ->
#: (ServiceMetrics recorder, ledger event, root-span status)``.  The
#: service-side sibling of :func:`admit_refusal`: every path through
#: :class:`ServiceDispatch` ends in one :meth:`ServiceDispatch._emit`
#: reading one row, so counter, ledger and span cannot disagree about an
#: outcome.
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


class ServiceDispatch:
    """Serves estimation requests through a middleware chain.

    The base of every service driver:
    :class:`~repro.service.engine.EstimationService` and
    :class:`~repro.service.procpool.ProcEstimationService` run it over
    the thread substrate, :class:`~repro.service.aio.AsyncEstimationService`
    over the event loop.  A driver adds its constructor (the executor it
    owns), its substrate, :meth:`_launch`, and the calls that genuinely
    differ (``estimate``, ``drain``, ``close``/``aclose``).
    """

    def __init__(
        self,
        estimator: Optional[Estimator],
        middlewares: Optional[Sequence[ServiceMiddleware]],
        cache: Optional[EstimateCache],
        metrics: Optional[ServiceMetrics],
        telemetry,
        substrate: Substrate,
    ) -> None:
        """``telemetry`` is an optional
        :class:`~repro.service.telemetry.Telemetry` bundle (tracer +
        ledger); ``None`` keeps the request path span-free and
        ledger-free at zero cost."""
        self.estimator = estimator if estimator is not None else XMemEstimator()
        self.cache = cache if cache is not None else EstimateCache()
        if middlewares is None:
            middlewares = default_middlewares(self.cache)
        else:
            # stats() must see the cache that actually serves hits:
            # adopt the chain's, if it has one
            self.cache = next(
                (m.cache for m in middlewares if isinstance(m, CacheMiddleware)),
                self.cache,
            )
        self.chain = MiddlewareChain(middlewares)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # hooks run on caller and worker threads at once under the
        # thread substrate (real locks); the loop serializes them (null)
        self.cache.bind_lock(substrate.call_lock)
        self.chain.bind_lock(substrate.call_lock)
        self.tracer = telemetry.tracer if telemetry is not None else None
        self.ledger = telemetry.ledger if telemetry is not None else None
        #: gateway-assigned position in the fleet (None standalone);
        #: stamped onto every ledger event for provenance
        self.shard_id: Optional[int] = None
        self._sub = substrate
        self._lock = substrate.lock
        #: fingerprint -> the master future its duplicates share
        self._inflight: dict[str, Any] = {}
        self._request_ids = itertools.count(1)
        self._dispatched = 0  # launched estimations not yet settled
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def fingerprint(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> str:
        """The cache/single-flight key this service uses for a request."""
        estimator = self.estimator
        return fingerprint_request(
            workload,
            device,
            estimator_name=estimator.name,
            estimator_version=str(getattr(estimator, "version", "")),
            allocator_config=getattr(estimator, "allocator_config", None),
        )

    def submit(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        fingerprint: Optional[str] = None,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
    ):
        """Enqueue one request; returns a future of the EstimationResult.

        Raises synchronously when the service is draining or closed, an
        ``on_request`` hook rejects the request (validation failure,
        rate limit) or the ``deadline`` — an absolute
        ``time.perf_counter()`` value — has already passed; estimator
        failures (and a launch the substrate refuses) surface through
        the future.  Identical concurrent requests share one estimation:
        their middlewares run once, for the first caller, and every
        duplicate receives the same result object.  ``fingerprint``,
        when given, must equal ``self.fingerprint(...)`` for the pair —
        the gateway passes the one it already routed on so the canonical
        payload is hashed once per request, not twice.
        """
        if self._closed or self._draining:
            raise ServiceClosedError("service is closed")
        if fingerprint is None:
            fingerprint = self.fingerprint(workload, device)
        request, ctx = self._open_request(
            workload, device, fingerprint, deadline, metadata, tenant, priority
        )
        # an already-expired deadline is rejected before the dedup lookup:
        # piggybacking would hand the caller a result it declared useless,
        # and an expired caller never pays for a hook either
        now = time.perf_counter()
        if ctx.expired(now):
            self._emit("deadline", "expired_before_dispatch", ctx)
            raise DeadlineExceededError(now - ctx.deadline)
        with self._lock:
            shared = self._inflight.get(fingerprint)
        if shared is not None:
            return self._piggyback(ctx, shared)
        # hooks run outside the lock: cache/rate-limit state is internally
        # locked, and a hook may call back into stats() without deadlock
        short, depth = self._run_request_hooks(request, ctx)
        if short is not None:
            future = self._sub.new_future()
            future.set_result(short)
            return future
        with self._lock:
            # re-check the intake gate under the lock: a drain() racing
            # with this submit has either already seen our _dispatched
            # slot (and waits for us) or flipped _draining first (and we
            # refuse loudly) — drain can never report quiescence while a
            # gated-in request is still on its way to the substrate
            refused = self._closed or self._draining
            if not refused:
                # another caller may have registered this fingerprint
                # while our hooks ran (it already paid its own trip
                # through the chain, so piggybacking now is safe)
                shared = self._inflight.get(fingerprint)
                if shared is None:
                    master = self._sub.new_master()
                    self._inflight[fingerprint] = master
                    self._dispatched += 1
                    self._sub.mark_busy()
        if refused:
            # the hooks already ran for this request: unwind the entered
            # layers and count a rejection so counters keep reconciling —
            # outside the lock, because hooks must never run under it
            error = ServiceClosedError("service is closed")
            self.chain.run_error(request, error, ctx, depth)
            self._emit("rejected", "drain_race", ctx, cause="drain_race")
            raise error
        if shared is not None:
            return self._piggyback(ctx, shared)
        try:
            inner = self._launch(request, ctx)
        except BaseException as error:
            # the substrate broke or shut down between the gate and here:
            # settle through the future like any failed estimation, so
            # nothing piggybacks on a slot no worker will ever resolve
            # and the entered middleware layers are unwound
            self._resolve(request, ctx, master, depth, error=error)
        else:
            self._sub.when_done(
                inner, partial(self._on_done, request, ctx, master, depth)
            )
        return self._sub.share(master)

    def stats(self) -> dict:
        """Service metrics + cache counters in one JSON-ready snapshot."""
        with self._lock:
            inflight = len(self._inflight)
        return {
            "service": self.metrics.as_dict(),
            "cache": self.cache.stats().as_dict(),
            "inflight": inflight,
        }

    # ------------------------------------------------------------------
    # what the driver supplies
    # ------------------------------------------------------------------
    def _launch(self, request: ServiceRequest, ctx: RequestContext):
        """Start the estimator on the execution substrate; returns the
        substrate's own future of the raw outcome.  May raise."""
        raise NotImplementedError

    def _unpack(self, ctx: RequestContext, outcome):
        """The EstimationResult inside what :meth:`_launch` resolved to."""
        return outcome

    def _recover(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        error: BaseException,
        inner,
    ):
        """A re-launched future when the *substrate* (not the estimator)
        failed and the driver could repair it; None surfaces ``error``."""
        return None

    # ------------------------------------------------------------------
    # the request path (the caller's thread, or the loop)
    # ------------------------------------------------------------------
    def _open_request(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        fingerprint: str,
        deadline: Optional[float],
        metadata: Optional[dict],
        tenant: str,
        priority: int,
    ) -> tuple[ServiceRequest, RequestContext]:
        """Count one request in and stamp its envelope."""
        self.metrics.record_request()
        request = ServiceRequest(
            workload, device, fingerprint, dict(metadata or {}), tenant, priority
        )
        ctx = RequestContext(
            request_id=next(self._request_ids),
            submitted_at=time.perf_counter(),
            fingerprint=fingerprint,
            deadline=deadline,
        )
        if "attempt" in request.metadata:
            # the resilience plane stamps the attempt number into the
            # metadata bag (it survives every substrate boundary); the
            # context carries it from here on
            ctx.attempt = int(request.metadata["attempt"])
        if self.tracer is not None:
            ctx.telemetry = RequestTelemetry.begin(
                self.tracer,
                fingerprint,
                ctx.request_id,
                parent_context=request.metadata.get("telemetry"),
            )
            # the JSON-safe span context rides the metadata bag so any
            # transport (the procpool pickle boundary included) can
            # re-parent its own spans under this request
            request.metadata["telemetry"] = ctx.telemetry.context()
        return request, ctx

    def _piggyback(self, ctx: RequestContext, master):
        """Hand this caller the in-flight duplicate's outcome."""
        ctx.deduplicated = True
        self._emit("deduplicated", "single_flight", ctx, deduplicated=True)
        return self._sub.share(master)

    def _run_request_hooks(
        self, request: ServiceRequest, ctx: RequestContext
    ) -> tuple[Optional[EstimationResult], int]:
        """``on_request`` hooks + budget check, with outcome classification.

        Returns ``(short, depth)``: ``short`` non-None is a short-circuit
        answer (cache hit, synthetic answer) that has already passed
        ``on_result`` for the outer layers and been observed; ``short``
        None means the estimator must run, and ``depth`` is how many
        layers are owed ``on_result`` / ``on_error`` afterwards.

        Raises the hook's own exception after observing it (throttled /
        rejected / error).  Deadlines are enforced twice overall:
        :meth:`submit` checks caller-supplied ones before the dedup
        lookup, and this method re-checks after the chain, before
        admitting a compute dispatch — so a budget stamped *by* a hook
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
            return short, depth
        now = time.perf_counter()
        if ctx.expired(now):
            # the budget ran out inside the chain (or a hook stamped one
            # that is already hopeless): unwind the entered layers like
            # any other mid-chain rejection, then refuse the dispatch
            error = DeadlineExceededError(now - ctx.deadline)
            self.chain.run_error(request, error, ctx, depth)
            self._emit("deadline", "budget_exhausted_in_chain", ctx)
            raise error
        self._record_decision(ledger_events.ADMIT, "compute", ctx)
        return None, depth

    # ------------------------------------------------------------------
    # the completion path (worker / callback thread, or the loop)
    # ------------------------------------------------------------------
    def _estimate(self, request: ServiceRequest, ctx: RequestContext):
        """The CPU-bound step, as an in-process executor runs it."""
        if ctx.telemetry is not None:
            ctx.telemetry.begin_estimate()
        return invoke_estimator(self.estimator, request)

    def _on_done(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        master,
        depth: int,
        inner,
    ) -> None:
        try:
            outcome = inner.result()
        except BaseException as error:
            relaunched = self._recover(request, ctx, error, inner)
            if relaunched is None:
                self._resolve(request, ctx, master, depth, error=error)
            else:
                # the request keeps its single-flight slot, its
                # dispatched count and its caller-facing future — only
                # the substrate underneath changed
                self._sub.when_done(
                    relaunched,
                    partial(self._on_done, request, ctx, master, depth),
                )
            return
        try:
            result = self._finish(
                request, ctx, self._unpack(ctx, outcome), depth
            )
        except BaseException as error:
            self._resolve(request, ctx, master, depth, error=error)
            return
        self._resolve(request, ctx, master, depth, result=result)

    def _finish(
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

    def _resolve(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        master,
        depth: int,
        result=None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Settle one claimed request, exactly once — whatever its hooks
        do: an ``on_error`` hook that raises still leaves the request
        observed, released, resolved with ``error`` and counted down (its
        own exception propagates afterwards, to whoever ran this)."""
        try:
            if error is not None:
                # failure after admission — the estimator raised, an
                # on_result hook did, or the substrate refused the launch
                self.chain.run_error(request, error, ctx, depth)
        finally:
            if error is not None:
                if ctx.telemetry is not None:
                    ctx.telemetry.finish_estimate(status="error")
                name = type(error).__name__
                self._emit("error", name, ctx, error=name)
            # release before resolving: a done-callback that resubmits
            # this fingerprint must find the cache, not a resolved
            # piggyback
            with self._lock:
                self._inflight.pop(request.fingerprint, None)
            if error is not None:
                master.set_exception(error)
            else:
                master.set_result(result)
            # count down after resolving: a drain() that returns True
            # promises every future already handed out is done
            with self._lock:
                self._dispatched -= 1
                if self._dispatched == 0:
                    self._sub.notify_idle()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
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
            record(time.perf_counter() - ctx.submitted_at)
        else:
            record()
        self._record_decision(event, cause, ctx, worker=worker)
        if ctx.telemetry is not None:
            ctx.telemetry.close(status, **span_attributes)


def admit_refusal(error: BaseException) -> tuple[str, str, str]:
    """``(ledger event, cause, span status)`` for a refused admission.

    The one table every path reads when ``GatewayCore.admit`` turns a
    request away; order matters (quota errors are rate-limit errors,
    deadline errors are rejections).
    """
    if isinstance(error, QuotaExceededError):
        return ledger_events.QUOTA, f"{error.scope}:{error.tenant}", "shed"
    if isinstance(error, DeadlineExceededError):
        return ledger_events.DEADLINE, "hopeless_at_gateway", "rejected"
    if isinstance(error, RequestRejectedError):
        # the control plane's auth refusal (strict mode)
        return ledger_events.AUTH, type(error).__name__, "rejected"
    if isinstance(error, RateLimitExceededError):
        return ledger_events.SHED, "queue_full", "shed"
    return ledger_events.SHED, "closed", "shed"


@dataclass(eq=False, slots=True)
class _ResilientCall:
    """Gateway-side state for one request under the resilience plane.

    The caller holds the *outer* future; attempts (first dispatch,
    retries) run one at a time underneath it and it settles exactly
    once.  ``lock`` guards the settled/attempt bookkeeping — lock order
    is always ``state.lock`` -> gateway lock.
    """

    workload: WorkloadConfig
    device: DeviceSpec
    fingerprint: str
    seq: int
    #: global fault-plan submission index (None without an injector)
    index: Optional[int]
    tenant: str
    priority: int
    deadline: Optional[float]
    metadata: Optional[dict]
    outer: Any
    lock: ContextManager
    attempt: int = 1
    settled: bool = False


class GatewayDispatch:
    """Routes estimation requests across N service shards.

    The base of every gateway: :class:`~repro.service.gateway.ServiceGateway`
    and :class:`~repro.service.procpool.ProcServiceGateway` run it over
    the thread substrate, :class:`~repro.service.aio.AsyncServiceGateway`
    over the event loop.  A driver adds its constructor, its substrate,
    and the calls that genuinely differ (``estimate``, ``drain``,
    ``close``/``aclose``).
    """

    def __init__(
        self,
        shards: Sequence,
        policy: Optional[RoutingPolicy],
        max_queue_depth: int,
        substrate: Substrate,
        telemetry=None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        control: Optional[ControlPlane] = None,
    ) -> None:
        self._shard_services = tuple(shards)
        self._sub = substrate
        self._lock = substrate.lock
        # resilience plane: both optional, and with neither configured
        # submit() runs the plain path
        self._resilience = (
            ResilienceCore(len(self._shard_services), resilience)
            if resilience is not None
            else None
        )
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: calls parked in retry backoff -> their timer handle
        self._parked: dict[_ResilientCall, Any] = {}
        self._open_calls = 0
        self.core = GatewayCore(
            num_shards=len(self._shard_services),
            policy=(
                policy
                if policy is not None
                else ConsistentHashRouting(len(self._shard_services))
            ),
            max_queue_depth=max_queue_depth,
            control=control,
        )
        # one Telemetry bundle spans the whole fleet: every shard is
        # stamped with its position and pointed at the shared tracer +
        # ledger (unless the shard was pre-built with its own), so one
        # request yields one trace across gateway and shard layers and
        # the ledger records provenance per shard
        self.telemetry = telemetry
        for index, service in enumerate(self._shard_services):
            if not isinstance(service, ServiceDispatch):
                continue  # a test double answers for itself
            service.shard_id = index
            if telemetry is not None:
                if service.tracer is None:
                    service.tracer = telemetry.tracer
                if service.ledger is None:
                    service.ledger = telemetry.ledger

    # ------------------------------------------------------------------
    # public API (mirrors EstimationService)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> RoutingPolicy:
        return self.core.policy

    @property
    def max_queue_depth(self) -> int:
        return self.core.max_queue_depth

    @property
    def num_shards(self) -> int:
        return len(self._shard_services)

    @property
    def shards(self) -> tuple:
        """The underlying services, for tests and stats."""
        return self._shard_services

    def fingerprint(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> str:
        """The routing/cache key — identical on every shard."""
        return self._shard_services[0].fingerprint(workload, device)

    def shard_for(self, workload: WorkloadConfig, device: DeviceSpec) -> int:
        """The shard the current policy would pick right now."""
        fingerprint = self.fingerprint(workload, device)
        with self._lock:
            return self.core.route(fingerprint)

    def submit(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
    ):
        """Route one request to its shard; returns the shard's future.

        Raises :class:`ServiceClosedError` after ``drain()``/``close()``,
        :class:`RateLimitExceededError` when the target shard's queue is
        full (shed — nothing was enqueued), and passes through the shard
        middleware's own synchronous rejections.  ``deadline`` and
        ``metadata`` are forwarded to the shard service untouched (the
        TCP transport uses them to carry rebased client deadlines and
        caller annotations); a telemetry span context is merged into
        ``metadata`` rather than replacing it.  With a
        :class:`~repro.service.control.ControlPlane` configured on the
        core, ``tenant``/``priority``/``deadline`` are additionally
        subject to quota, fair-share, and hopeless-deadline admission
        (:class:`~repro.errors.QuotaExceededError` and friends) before
        any queue slot is reserved.

        With a :class:`~repro.service.resilience.ResiliencePolicy` or
        :class:`~repro.service.faults.FaultPlan` configured, the future
        returned is gateway-owned: attempts (the first, then retries)
        run one at a time underneath it and it settles exactly once with
        the final result or a typed error.
        """
        if self._resilience is not None or self._injector is not None:
            return self._submit_resilient(
                workload, device, deadline, metadata, tenant, priority
            )
        fingerprint = self.fingerprint(workload, device)
        with self._lock:
            self.core.count_request()
            seq = self.core.requests
            # stateful policies (the seeded RNG) rely on the driver for
            # serialization, so routing happens inside the lock too
            shard = self.core.route(fingerprint)
        span = None
        metadata = dict(metadata) if metadata else None
        if self.telemetry is not None:
            span = self.telemetry.tracer.start_trace(
                f"g{seq:06d}-{fingerprint[:12]}",
                name=GATEWAY_SPAN,
                attributes={
                    "policy": self.core.policy.name,
                    "shard": shard,
                    "fingerprint": fingerprint,
                },
            )
            # the shard-level request span re-parents under this one via
            # the span context riding the metadata bag
            metadata = {
                **(metadata or {}),
                "telemetry": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                },
            }
        future = self._attempt(
            shard,
            workload,
            device,
            fingerprint,
            seq,
            tenant,
            priority,
            deadline,
            metadata,
            "route",
            span,
        )
        self._sub.when_done(
            future, partial(self._settle_dispatched, shard, span)
        )
        return future

    def when_done(self, future, callback: Callable[[Any], None]) -> None:
        """Run ``callback(future)`` once a future ``submit`` returned is
        done — the substrate's primitive, for a transport in front."""
        self._sub.when_done(future, callback)

    def take_connection_drop(self) -> bool:
        """Consume the next fault-plan index iff it is a planned
        ``connection_drop`` (never, without a plan).  A network transport
        asks before it submits a request and, on True, kills the
        connection instead — see
        :meth:`~repro.service.faults.FaultInjector.take_connection_drop`."""
        if self._injector is None:
            return False
        with self._lock:
            return self._injector.take_connection_drop()

    def pending(self) -> int:
        """Requests admitted by the gateway and not yet resolved."""
        with self._lock:
            return self.core.pending()

    def stats(self) -> dict:
        """Gateway counters + per-shard snapshots + fleet aggregate."""
        shard_stats = [service.stats() for service in self._shard_services]
        with self._lock:
            gateway = self.core.snapshot()
            if self._resilience is not None:
                gateway["resilience"] = self._resilience.snapshot()
            if self._injector is not None:
                gateway["faults"] = self._injector.snapshot()
        gateway.update(self._snapshot_extra())
        return {
            "gateway": gateway,
            "aggregate": aggregate_shard_stats(
                shard_stats, self._latency_samples()
            ),
            "shards": shard_stats,
        }

    def _snapshot_extra(self) -> dict:
        """Substrate-specific keys merged into the gateway snapshot."""
        return {}

    def _latency_samples(self) -> list[float]:
        samples: list[float] = []
        for service in self._shard_services:
            samples.extend(service.metrics.latency_samples())
        return samples

    # ------------------------------------------------------------------
    # drain support (the waiting itself is the driver's)
    # ------------------------------------------------------------------
    def _begin_drain(self) -> None:
        """Close intake and shed every request parked in retry backoff.

        A parked request holds no shard slot — it is settled immediately
        as shed with a typed :class:`~repro.errors.CircuitOpenError`
        rather than waited for, so drain never blocks on a circuit that
        may stay open forever.
        """
        with self._lock:
            self.core.draining = True
            parked = list(self._parked.items())
            self._parked.clear()
        for state, timer in parked:
            timer.cancel()
            self._shed_parked_retry(state)

    def _quiescent(self) -> bool:
        """Nothing pending on any shard and no outer future open."""
        return self.core.idle() and self._open_calls == 0

    def _wave_boundary(self) -> None:
        """A wave boundary (idle *and* every outer future settled):
        apply deferred breaker outcomes so transitions depend only on
        the request stream, then wake ``drain()``.  Lock held."""
        self._sync_resilience()
        self._sub.notify_idle()

    def _sync_resilience(self) -> None:
        """Apply deferred breaker outcomes; caller holds the lock."""
        if self._resilience is None:
            return
        for shard, transition in self._resilience.sync():
            self._gateway_decision(
                ledger_events.BREAKER,
                transition,
                "",
                self.core.requests,
                shard,
            )

    # ------------------------------------------------------------------
    # the plain path
    # ------------------------------------------------------------------
    def _gateway_decision(
        self,
        event: str,
        cause: str,
        fingerprint: str,
        seq: Optional[int],
        shard_index: Optional[int],
        attributes: Optional[dict] = None,
    ) -> None:
        """Ledger one gateway-layer decision (no-op unledgered)."""
        if self.telemetry is None:
            return
        attrs = {"layer": "gateway"}
        if attributes:
            attrs.update(attributes)
        self.telemetry.ledger.record(
            event,
            cause=cause,
            fingerprint=fingerprint,
            request_id=seq if seq is not None else 0,
            shard=shard_index,
            attributes=attrs,
        )

    def _close_span(self, span, status: str) -> None:
        if span is not None and self.telemetry is not None:
            self.telemetry.tracer.end(span, status=status)

    def _attempt(
        self,
        shard_index: int,
        workload: WorkloadConfig,
        device: DeviceSpec,
        fingerprint: str,
        seq: int,
        tenant: str,
        priority: int,
        deadline: Optional[float],
        metadata: Optional[dict],
        cause: str,
        span=None,
        attributes: Optional[dict] = None,
    ):
        """Admit one attempt onto a shard, ledger it and submit it;
        returns the shard's future, which the caller settles.

        A refusal is ledgered and raised holding no slot; a ``submit``
        that raises settles its slot here.  Either failure feeds the
        breaker (before the slot settles) and closes ``span``.
        """
        deadline_remaining = (
            None if deadline is None else deadline - time.perf_counter()
        )
        try:
            with self._lock:
                # admit re-checks the gate while reserving the slot: a
                # drain()/close() racing between submit()'s gate and here
                # must either see our pending slot or turn us away — never
                # report idle and then let this request hit a closed shard
                self.core.admit(
                    shard_index,
                    tenant=tenant,
                    priority=priority,
                    deadline_remaining=deadline_remaining,
                )
        except (
            RateLimitExceededError,
            RequestRejectedError,
            ServiceClosedError,
        ) as error:
            event, refusal, status = admit_refusal(error)
            self._gateway_decision(event, refusal, fingerprint, seq, shard_index)
            self._record_breaker(shard_index, seq, error)
            self._close_span(span, status)
            raise
        self._sub.mark_busy()
        self._gateway_decision(
            ledger_events.ADMIT, cause, fingerprint, seq, shard_index, attributes
        )
        try:
            return self._shard_services[shard_index].submit(
                workload,
                device,
                fingerprint=fingerprint,
                deadline=deadline,
                metadata=metadata,
                tenant=tenant,
                priority=priority,
            )
        except BaseException as error:
            throttled = isinstance(error, RateLimitExceededError)
            rejected = isinstance(error, RequestRejectedError)
            self._record_breaker(shard_index, seq, error)
            self._settle(shard_index, rejected=rejected, throttled=throttled)
            self._close_span(
                span,
                "throttled" if throttled else "rejected" if rejected else "error",
            )
            raise

    def _record_breaker(
        self, shard_index: int, seq: int, error: Optional[BaseException]
    ) -> None:
        """Feed one attempt's outcome to its shard's breaker, *before*
        the slot settles: every outcome of a wave is then buffered by the
        time the idle-edge sync runs (determinism of deferred breakers).
        A non-transient error is buffered as no verdict, which frees a
        half-open probe slot and nothing else."""
        res = self._resilience
        if res is None:
            return
        if error is None:
            ok = True
        elif is_transient(error):
            ok = False
        else:
            ok = None
        with self._lock:
            res.record_outcome(shard_index, seq, ok)

    def _settle_dispatched(self, shard_index: int, span, future) -> None:
        self._settle(shard_index)
        if span is not None:
            failed = future.cancelled() or future.exception() is not None
            self._close_span(span, "error" if failed else "ok")

    def _settle(
        self, shard_index: int, rejected: bool = False, throttled: bool = False
    ) -> None:
        with self._lock:
            idle = self.core.settle(
                shard_index, rejected=rejected, throttled=throttled
            )
            if idle and self._open_calls == 0:
                self._wave_boundary()

    # ------------------------------------------------------------------
    # the resilient path (retries, breakers, fault injection)
    # ------------------------------------------------------------------
    def _submit_resilient(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float],
        metadata: Optional[dict],
        tenant: str,
        priority: int,
    ):
        res = self._resilience
        fingerprint = self.fingerprint(workload, device)
        index = directive = None
        with self._lock:
            self.core.count_request()
            seq = self.core.requests
            transitions = res.tick() if res is not None else []
            primary = self.core.route(fingerprint)
            if res is not None:
                target, rerouted = res.choose_shard(primary)
            else:
                target, rerouted = primary, False
            if self._injector is not None:
                # the injector is unlocked state too: walk it in here
                index = self._injector.next_index()
                if target is not None:
                    directive = self._injector.directive_for(index, target)
            if target is None:
                res.counters["shed_open_circuit"] += 1
                self.core.shed += 1
        for shard, transition in transitions:
            self._gateway_decision(
                ledger_events.BREAKER, transition, "", seq, shard
            )
        if target is None:
            self._gateway_decision(
                ledger_events.SHED, "circuit_open", fingerprint, seq, primary
            )
            raise CircuitOpenError("every candidate shard's breaker is open")
        if rerouted:
            self._gateway_decision(
                ledger_events.REROUTE, "circuit_open", fingerprint, seq, target
            )
        if directive is not None:
            self._gateway_decision(
                ledger_events.FAULT, directive["kind"], fingerprint, seq, target
            )
        state = _ResilientCall(
            workload,
            device,
            fingerprint,
            seq,
            index,
            tenant,
            priority,
            deadline,
            metadata,
            outer=self._sub.new_future(),
            lock=self._sub.call_lock(),
        )
        with self._lock:
            self._open_calls += 1
        self._sub.mark_busy()
        self._begin_attempt(state, target, directive, cause="route")
        return state.outer

    def _begin_attempt(
        self,
        state: _ResilientCall,
        shard_index: int,
        directive: Optional[dict],
        cause: str,
    ) -> None:
        with state.lock:
            if state.settled:
                return  # drained/settled while this attempt was scheduled
        if directive is not None and directive.get("kind") == "shard_blackout":
            # a blacked-out shard is *unreachable*: the attempt fails at
            # the gateway without touching the shard (its cache included)
            error = ShardBlackoutError(shard_index)
            self._record_breaker(shard_index, state.seq, error)
            self._attempt_outcome(state, shard_index, None, error)
            return
        metadata: dict = {**(state.metadata or {}), "attempt": state.attempt}
        if directive is not None:
            metadata["fault"] = directive
        try:
            future = self._attempt(
                shard_index,
                state.workload,
                state.device,
                state.fingerprint,
                state.seq,
                state.tenant,
                state.priority,
                state.deadline,
                metadata,
                cause,
                attributes=(
                    {"attempt": state.attempt} if state.attempt > 1 else None
                ),
            )
        except BaseException as error:
            self._attempt_outcome(state, shard_index, None, error)
            return
        self._sub.when_done(
            future,
            partial(self._resilient_dispatched, state, shard_index),
        )

    def _resilient_dispatched(
        self, state: _ResilientCall, shard_index: int, future
    ) -> None:
        if future.cancelled():
            result, error = None, self._sub.CancelledError()
        else:
            error = future.exception()
            result = future.result() if error is None else None
        self._record_breaker(shard_index, state.seq, error)
        self._settle(shard_index)
        self._attempt_outcome(state, shard_index, result, error)

    def _attempt_outcome(
        self,
        state: _ResilientCall,
        shard_index: int,
        result,
        error: Optional[BaseException],
    ) -> None:
        """The call's one attempt ended: settle the outer future, or park
        the call in backoff for a retry (shed instead when draining)."""
        res = self._resilience
        retry_target: Optional[int] = None
        with state.lock:
            if state.settled:
                return  # a call settles once
            if error is not None and res is not None:
                with self._lock:
                    if not self.core.draining and res.should_retry(
                        error, state.attempt
                    ):
                        retry_target = res.retry_target(
                            shard_index, state.attempt + 1
                        )
                        if retry_target is not None:
                            res.spend_retry()
            if retry_target is None:
                state.settled = True
            else:
                state.attempt += 1
        if retry_target is None:
            self._settle_outer(state, result=result, error=error)
            return
        retry_delay = res.policy.retry.delay(state.fingerprint, state.attempt)
        self._gateway_decision(
            ledger_events.RETRY,
            type(error).__name__,
            state.fingerprint,
            state.seq,
            retry_target,
            attributes={
                "attempt": state.attempt,
                "delay": round(retry_delay, 6),
            },
        )
        # re-check the plan against the retry's destination: a retry
        # routed back into a blackout window still fails
        next_directive = (
            self._injector.peek_window(state.index, retry_target)
            if self._injector is not None
            else None
        )
        with self._lock:
            draining = self.core.draining
            if not draining:
                # armed under the lock _fire_retry takes first, so
                # the timer cannot fire before it is registered
                self._parked[state] = self._sub.call_later(
                    retry_delay,
                    self._fire_retry,
                    state,
                    retry_target,
                    next_directive,
                )
        if draining:
            self._shed_parked_retry(state)

    def _fire_retry(
        self, state: _ResilientCall, target: int, directive: Optional[dict]
    ) -> None:
        with self._lock:
            self._parked.pop(state, None)
            draining = self.core.draining
        if draining:
            self._shed_parked_retry(state)
            return
        self._begin_attempt(state, target, directive, cause="retry")

    def _shed_parked_retry(self, state: _ResilientCall) -> None:
        """Settle a request parked in retry backoff as shed (drain path)."""
        with state.lock:
            if state.settled:
                return
            state.settled = True
        with self._lock:
            self.core.shed += 1
            if self._resilience is not None:
                self._resilience.counters["shed_on_drain"] += 1
        self._gateway_decision(
            ledger_events.SHED,
            "drained_during_backoff",
            state.fingerprint,
            state.seq,
            None,
        )
        self._settle_outer(
            state,
            error=CircuitOpenError("gateway drained during retry backoff"),
        )

    def _settle_outer(
        self,
        state: _ResilientCall,
        result=None,
        error: Optional[BaseException] = None,
    ) -> None:
        # bookkeeping first: by the time the caller observes the outer
        # future, the wave-boundary sync has already run, so the next
        # submission sees post-sync breaker state (determinism)
        with self._lock:
            self._open_calls -= 1
            if self._open_calls == 0 and self.core.idle():
                self._wave_boundary()
        try:
            if error is not None:
                state.outer.set_exception(error)
            else:
                state.outer.set_result(result)
        except self._sub.InvalidStateError:
            pass  # the caller cancelled the future; the call is accounted
