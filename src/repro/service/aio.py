"""The asyncio execution driver over the sans-IO service core.

:class:`AsyncEstimationService` and :class:`AsyncServiceGateway` run the
*same* policy core as the thread driver — the middleware onion, the
fingerprint cache, single-flight deduplication, routing, and queue/shed
accounting all come from :mod:`repro.service.core`, and the gateway is
the one :class:`~repro.service.dispatch.GatewayDispatch` machine over a
loop substrate (null locks, ``asyncio`` futures, ``loop.call_later``) —
but on an event loop: cache lookups, hooks, and bookkeeping execute
inline on the loop (serialized by it, so the core's ``NullLock`` slots
stay null), while the CPU-bound estimator call is offloaded to a thread
executor.  Results are byte-identical to the thread driver's and to
direct estimator calls.

Why a second driver instead of wrapping the thread service in
``run_in_executor``?  Because the expensive part of a serving tier under
duplicate-heavy traffic is not the estimation — it is the per-request
locking, future plumbing, and thread handoffs around cache hits and
piggybacked duplicates.  On the loop those are plain function calls: a
hit or a dedup never leaves the event loop at all.

Surface::

    async with AsyncEstimationService() as service:
        result = await service.estimate(workload, device)
        results = await service.estimate_many([(w1, d1), (w2, d2)])

    gateway = AsyncServiceGateway(num_shards=4)
    future = gateway.submit(workload, device)   # asyncio.Future
    result = await future
    await gateway.drain()
    await gateway.aclose()

``submit`` mirrors the thread drivers: it raises synchronously for
validation/rate-limit/shed rejections and returns an awaitable future
otherwise, so :func:`replay_async` can replay the PR 2 traffic scenarios
against either driver with identical accounting.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from ..core.base import Estimator
from ..core.estimator import XMemEstimator
from ..errors import (
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from ..trace.reader import Trace
from ..workload import DeviceSpec, WorkloadConfig
from .batch import plan_shared_traces
from .cache import EstimateCache
from .context import NullLock, RequestContext, ServiceRequest
from .control import DEFAULT_PRIORITY, ControlPlane
from .core import (
    ServiceCore,
    adopt_chain_cache,
    compute_fingerprint,
    estimator_accepts_trace,
    invoke_estimator,
)
from .dispatch import GatewayDispatch
from .engine import DEFAULT_MAX_WORKERS
from .faults import FaultPlan
from .gateway import DEFAULT_MAX_QUEUE_DEPTH, DEFAULT_NUM_SHARDS
from .metrics import ServiceMetrics
from .middleware import (
    MiddlewareChain,
    ServiceMiddleware,
    default_middlewares,
)
from .resilience import ResiliencePolicy
from .routing import RoutingPolicy
from .traffic import ReplayReport, TrafficTrace

__all__ = [
    "AsyncEstimationService",
    "AsyncServiceGateway",
    "estimate_many_async",
    "replay_async",
]


class AsyncEstimationService:
    """Serves estimation requests on an event loop (asyncio driver).

    Construction mirrors :class:`~repro.service.engine.EstimationService`
    exactly; ``max_workers`` sizes the executor that runs the CPU-bound
    estimates.  All public methods must be called from a running event
    loop.  The middleware hooks run on the loop, so they keep their
    sans-IO null locks — except the cache, which gets a real lock because
    the bulk profile planner inspects it from executor threads.
    """

    def __init__(
        self,
        estimator: Optional[Estimator] = None,
        middlewares: Optional[Sequence[ServiceMiddleware]] = None,
        cache: Optional[EstimateCache] = None,
        max_workers: int = DEFAULT_MAX_WORKERS,
        metrics: Optional[ServiceMetrics] = None,
        telemetry=None,
    ):
        if max_workers < 1:
            raise ValueError("service needs at least one worker")
        self.estimator = estimator if estimator is not None else XMemEstimator()
        self.cache = cache if cache is not None else EstimateCache()
        if middlewares is None:
            middlewares = default_middlewares(self.cache)
        else:
            self.cache = adopt_chain_cache(middlewares, self.cache)
        self.chain = MiddlewareChain(middlewares)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # hooks run on the loop (no middleware locks needed), but the
        # shared-profile planner reads the cache from executor threads
        self.cache.bind_lock(threading.Lock)
        self.telemetry = telemetry
        self.core = ServiceCore(
            self.chain,
            self.cache,
            self.metrics,
            tracer=telemetry.tracer if telemetry is not None else None,
            ledger=telemetry.ledger if telemetry is not None else None,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="xmem-aio"
        )
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._closed = False
        self._accepts_trace = estimator_accepts_trace(self.estimator)

    # ------------------------------------------------------------------
    # public API (awaitable mirror of EstimationService)
    # ------------------------------------------------------------------
    @property
    def accepts_trace(self) -> bool:
        """Whether the wrapped estimator can reuse a pre-computed trace."""
        return self._accepts_trace

    def fingerprint(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> str:
        """The cache/single-flight key this service uses for a request."""
        return compute_fingerprint(self.estimator, workload, device)

    def submit(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
        fingerprint: Optional[str] = None,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> "asyncio.Future":
        """Enqueue one request; returns an awaitable of the result.

        Must be called on the event loop.  Raises synchronously when a
        hook rejects the request; identical in-flight requests share one
        estimation.  Because everything up to the executor dispatch runs
        inline on the loop, there is no re-check window: the single-flight
        table cannot change between lookup and claim.

        Every caller receives its *own* future chained off the shared
        in-flight one: asyncio futures are cancellable (``wait_for``
        cancels on timeout), and one caller's cancellation must not
        poison the piggybacked duplicates — matching the thread driver,
        whose running ``concurrent.futures.Future`` cannot be cancelled.
        """
        loop = asyncio.get_running_loop()
        if self._closed or self._draining:
            raise ServiceClosedError("service is closed")
        fp = (
            fingerprint
            if fingerprint is not None
            else self.fingerprint(workload, device)
        )
        request, ctx = self.core.open_request(
            workload,
            device,
            fp,
            trace=trace,
            deadline=deadline,
            metadata=metadata,
            tenant=tenant,
            priority=priority,
        )
        # an already-expired deadline is rejected before the dedup lookup:
        # piggybacking would hand the caller a result it declared useless
        self.core.check_deadline(ctx)
        inflight = self.core.inflight.get(fp)
        if inflight is not None:
            self.core.note_deduplicated(ctx)
            return self._chain_future(loop, inflight)
        admission = self.core.run_request_hooks(request, ctx)
        if admission.result is not None:
            future = loop.create_future()
            future.set_result(admission.result)
            return future
        master = loop.create_future()
        self.core.inflight.claim(fp, master)
        task = loop.create_task(
            self._run(request, ctx, master, admission.depth)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return self._chain_future(loop, master)

    @staticmethod
    def _chain_future(loop, master: "asyncio.Future") -> "asyncio.Future":
        """A per-caller future mirroring the shared in-flight one.

        The master future never leaves the service, so no caller can
        cancel the estimation out from under the other waiters; each
        child just copies the master's outcome (the same result object /
        exception instance, so dedup identity guarantees hold).
        """
        child = loop.create_future()

        def _copy(resolved: "asyncio.Future") -> None:
            if child.done():
                return  # the child was cancelled by its own caller
            if resolved.cancelled():
                child.cancel()
            elif resolved.exception() is not None:
                child.set_exception(resolved.exception())
            else:
                child.set_result(resolved.result())

        if master.done():
            _copy(master)
        else:
            master.add_done_callback(_copy)
        return child

    async def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
    ):
        """Awaitable request — the drop-in for ``estimator.estimate()``."""
        return await self.submit(workload, device, trace=trace)

    async def estimate_many(
        self,
        requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
        share_profiles: bool = True,
        return_exceptions: bool = False,
    ) -> list:
        """Awaitable bulk API; results in request order (see batch)."""
        return await estimate_many_async(
            self,
            requests,
            share_profiles=share_profiles,
            return_exceptions=return_exceptions,
        )

    def stats(self) -> dict:
        """Service metrics + cache counters in one JSON-ready snapshot."""
        return {
            "service": self.metrics.as_dict(),
            "cache": self.cache.stats().as_dict(),
            "inflight": len(self.core.inflight),
        }

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight ones to finish.

        Returns True when every in-flight estimate settled within
        ``timeout`` (None = wait forever).  Idempotent; ``submit`` raises
        afterwards.
        """
        self._draining = True
        pending = {task for task in self._tasks if not task.done()}
        if not pending:
            return True
        _done, rest = await asyncio.wait(pending, timeout=timeout)
        return not rest

    async def aclose(self, wait: bool = True) -> None:
        """Drain (when ``wait``), then release the executor.

        ``wait=False`` mirrors the thread driver's ``close(wait=False)``:
        intake stops and the executor is told to shut down without
        joining its threads — in-flight estimates finish in the
        background, nothing blocks.  Safe to call twice.
        """
        if wait:
            await self.drain()
        self._draining = True
        self._closed = True
        # after a full drain no estimate is running, so joining the idle
        # worker threads cannot block the loop for long; without a drain
        # we must not join at all
        self._executor.shutdown(wait=wait)

    async def __aenter__(self) -> "AsyncEstimationService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # executor side
    # ------------------------------------------------------------------
    async def _run(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        future: "asyncio.Future",
        depth: int,
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            if ctx.telemetry is not None:
                ctx.telemetry.begin_estimate()
            result = await loop.run_in_executor(
                self._executor,
                invoke_estimator,
                self.estimator,
                request,
                self._accepts_trace,
            )
            # back on the loop: completion hooks + accounting are core
            # steps and run serialized, exactly like the thread driver's
            # worker-side _run
            result = self.core.finish(request, ctx, result, depth)
        except BaseException as error:
            self.core.fail(request, ctx, error, depth)
            self.core.inflight.release(request.fingerprint)
            if not future.done():
                future.set_exception(error)
            return
        self.core.inflight.release(request.fingerprint)
        if not future.done():
            future.set_result(result)


class _LoopSubstrate:
    """What the dispatch machine borrows on an event loop: the loop
    already serializes every transition, so both locks are null."""

    CancelledError = asyncio.CancelledError
    InvalidStateError = asyncio.InvalidStateError
    call_lock = NullLock

    def __init__(self):
        self.lock = NullLock()
        #: what ``drain()`` awaits
        self.went_idle = asyncio.Event()
        self.went_idle.set()
        self.mark_busy = self.went_idle.clear
        self.notify_idle = self.went_idle.set

    @staticmethod
    def new_future() -> "asyncio.Future":
        return asyncio.get_running_loop().create_future()

    @staticmethod
    def when_done(future: "asyncio.Future", callback) -> None:
        if future.done():
            # a cache hit or piggyback on an already-resolved future:
            # asyncio would only run the callback on the next loop tick,
            # and `await` on a done future never yields — settle inline
            # (matching concurrent.futures semantics) so hit-dominated
            # waves cannot pile up phantom pending and shed real traffic
            callback(future)
        else:
            future.add_done_callback(callback)

    @staticmethod
    def call_later(delay: float, fn, *args) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, fn, *args)


class AsyncServiceGateway(GatewayDispatch):
    """Routes estimation requests across N async service shards.

    The same :class:`~repro.service.dispatch.GatewayDispatch` machine as
    the thread gateway, driven from the event loop: routing, admission,
    shed and retry/hedge decisions are plain calls (the loop serializes
    them), timers are ``loop.call_later``, and ``drain()`` awaits an
    ``asyncio.Event`` the settle path sets when the fleet goes idle.
    ``submit`` must be called on the running loop.
    """

    def __init__(
        self,
        shards: Optional[Sequence[AsyncEstimationService]] = None,
        num_shards: int = DEFAULT_NUM_SHARDS,
        estimator_factory: Optional[Callable[[], object]] = None,
        policy: Optional[RoutingPolicy] = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_workers_per_shard: int = 2,
        telemetry=None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        control: Optional[ControlPlane] = None,
    ):
        if shards is None:
            if num_shards < 1:
                raise ValueError("gateway needs at least one shard")
            shards = [
                AsyncEstimationService(
                    estimator=(
                        estimator_factory() if estimator_factory else None
                    ),
                    max_workers=max_workers_per_shard,
                )
                for _ in range(num_shards)
            ]
        elif not shards:
            raise ValueError("gateway needs at least one shard")
        super().__init__(
            shards,
            policy,
            max_queue_depth,
            _LoopSubstrate(),
            telemetry=telemetry,
            resilience=resilience,
            fault_plan=fault_plan,
            control=control,
        )

    async def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
    ):
        """Awaitable request — the drop-in for ``service.estimate()``."""
        return await self.submit(workload, device, trace=trace)

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight ones to settle.

        Returns True when the fleet went idle within ``timeout`` (None =
        wait forever).  Idempotent; ``submit`` raises afterwards.
        Requests parked in retry backoff are shed, not waited for.
        """
        self._begin_drain()
        if not self._quiescent():
            try:
                await asyncio.wait_for(self._sub.went_idle.wait(), timeout)
            except asyncio.TimeoutError:
                return False
        self._sync_resilience()
        return True

    async def aclose(self, wait: bool = True) -> None:
        """Drain (when ``wait``) and shut every shard down.

        ``wait=False`` propagates to every shard so a hung estimator
        cannot block shutdown — matching the thread gateway's
        ``close(wait=False)`` semantics.
        """
        if wait:
            await self.drain()
        self.core.draining = True
        self.core.closed = True
        for service in self._shard_services:
            await service.aclose(wait=wait)

    async def __aenter__(self) -> "AsyncServiceGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


# ----------------------------------------------------------------------
# awaitable bulk + replay APIs
# ----------------------------------------------------------------------


async def estimate_many_async(
    service: AsyncEstimationService,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
    share_profiles: bool = True,
    return_exceptions: bool = False,
) -> list:
    """Estimate every (workload, device) pair; results in request order.

    The awaitable mirror of :func:`repro.service.batch.estimate_many`:
    with ``share_profiles`` (and a trace-capable estimator), workloads
    repeated across devices are profiled once up front — the planning
    itself is CPU-bound, so it runs on the service's executor while the
    loop stays responsive.  With ``return_exceptions``, failures come
    back in-place instead of raising on the first bad request.
    """
    traces: dict[tuple, Trace] = {}
    if share_profiles and getattr(service, "accepts_trace", False):
        loop = asyncio.get_running_loop()
        traces = await loop.run_in_executor(
            service._executor, plan_shared_traces, service, requests
        )
    futures: list = []
    for workload, device in requests:
        try:
            futures.append(
                service.submit(
                    workload, device, trace=traces.get(workload.to_key())
                )
            )
        except Exception as error:
            if not return_exceptions:
                raise
            futures.append(error)
    results: list = []
    for item in futures:
        if isinstance(item, Exception):
            results.append(item)
            continue
        try:
            results.append(await item)
        except Exception as error:
            if not return_exceptions:
                raise
            results.append(error)
    return results


async def replay_async(trace: TrafficTrace, target) -> ReplayReport:
    """Replay a traffic trace against an async service or gateway.

    The awaitable mirror of :func:`repro.service.traffic.replay`: each
    wave is submitted back-to-back on the loop and awaited before the
    next begins — bursts stress single-flight and queues, wave boundaries
    let caches matter.  Sheds and validation rejections are counted, not
    raised, with accounting identical to the sync replayer so driver
    comparisons are apples-to-apples.

    Sheds are counted wherever they surface: in-process drivers raise
    :class:`RateLimitExceededError` synchronously from ``submit``, while
    a network client only learns of a shed from the response frame — its
    future fails with the same exception instead.  ``target.stats()`` may
    likewise be a coroutine on network clients (one more round trip).
    """
    report = ReplayReport(scenario=trace.scenario, num_requests=len(trace))
    started = time.perf_counter()
    for wave in trace.waves():
        futures = []
        for request in wave:
            bucket = (
                report.tenant_bucket(request.tenant)
                if request.tenant
                else None
            )
            if bucket is not None:
                bucket["submitted"] += 1
            # kwargs only off their defaults: untenanted traces call
            # submit() exactly as pre-control-plane replays did
            kwargs = {}
            if request.tenant:
                kwargs["tenant"] = request.tenant
            if request.priority != 1:
                kwargs["priority"] = request.priority
            submitted_at = time.perf_counter()
            try:
                futures.append(
                    (
                        request,
                        submitted_at,
                        target.submit(
                            request.workload, request.device, **kwargs
                        ),
                    )
                )
            except QuotaExceededError:
                report.shed += 1
                report.quota_shed += 1
                if bucket is not None:
                    bucket["shed"] += 1
                    bucket["quota_shed"] += 1
            except RateLimitExceededError:
                report.shed += 1
                if bucket is not None:
                    bucket["shed"] += 1
            except RequestRejectedError:
                report.rejected += 1
                if bucket is not None:
                    bucket["rejected"] += 1
        for request, submitted_at, future in futures:
            bucket = (
                report.tenant_bucket(request.tenant)
                if request.tenant
                else None
            )
            try:
                await future
                report.answered += 1
                if bucket is not None:
                    bucket["answered"] += 1
                    report.note_latency(
                        request.tenant,
                        time.perf_counter() - submitted_at,
                    )
            except QuotaExceededError:
                report.shed += 1
                report.quota_shed += 1
                if bucket is not None:
                    bucket["shed"] += 1
                    bucket["quota_shed"] += 1
            except RateLimitExceededError:
                report.shed += 1
                if bucket is not None:
                    bucket["shed"] += 1
            except RequestRejectedError:
                report.rejected += 1
                if bucket is not None:
                    bucket["rejected"] += 1
            except Exception:
                report.errors += 1
                if bucket is not None:
                    bucket["errors"] += 1
    report.elapsed_seconds = time.perf_counter() - started
    stats = target.stats()
    if asyncio.iscoroutine(stats):
        stats = await stats
    report.stats = stats
    return report
