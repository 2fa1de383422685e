"""The asyncio execution driver over the sans-IO dispatch machines.

:class:`AsyncEstimationService` and :class:`AsyncServiceGateway` run the
*same* policy as the thread driver — the middleware onion, the
fingerprint cache, single-flight deduplication, routing, and queue/shed
accounting: service and gateway are the one
:class:`~repro.service.dispatch.ServiceDispatch` /
:class:`~repro.service.dispatch.GatewayDispatch` machines (the latter
over :class:`~repro.service.core.GatewayCore`) on a loop substrate (null
locks, ``asyncio`` futures, ``loop.call_later``): cache lookups, hooks,
and bookkeeping execute inline on the loop (serialized by it, so the
``NullLock`` slots stay null), while the CPU-bound estimator call is
offloaded to a thread executor.  Results are byte-identical to the
thread driver's and to direct estimator calls.

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
otherwise, so :func:`replay_async` — the asyncio shell of
:func:`repro.service.replayer.pace` — replays the traffic scenarios on
the loop with the same accounting as the thread replay.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..core.base import Estimator
from ..workload import DeviceSpec, WorkloadConfig
from .batch import submit_all
from .cache import EstimateCache
from .context import NullLock, RequestContext, ServiceRequest
from .control import ControlPlane
from .dispatch import GatewayDispatch, ServiceDispatch
from .engine import DEFAULT_MAX_WORKERS
from .faults import FaultPlan
from .gateway import DEFAULT_MAX_QUEUE_DEPTH, DEFAULT_NUM_SHARDS
from .metrics import ServiceMetrics
from .middleware import ServiceMiddleware
from .resilience import ResiliencePolicy
from .routing import RoutingPolicy

if TYPE_CHECKING:
    from .replayer import ReplayReport
    from .traffic import TrafficTrace

__all__ = [
    "AsyncEstimationService",
    "AsyncServiceGateway",
    "estimate_many_async",
    "replay_async",
]


class _LoopSubstrate:
    """What a dispatch machine borrows on an event loop: the loop
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

    # the master never leaves the machine (see ``share``), so a plain
    # pending future will do
    new_master = new_future

    @staticmethod
    def share(master: "asyncio.Future") -> "asyncio.Future":
        """A per-caller future mirroring the shared in-flight one.

        asyncio futures are cancellable (``wait_for`` cancels on
        timeout), so the master is never handed out: no caller can
        cancel the estimation out from under the other waiters; each
        child just copies the master's outcome (the same result object /
        exception instance, so dedup identity guarantees hold).
        """
        child = master.get_loop().create_future()

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


class AsyncEstimationService(ServiceDispatch):
    """Serves estimation requests on an event loop (asyncio driver).

    Construction mirrors :class:`~repro.service.engine.EstimationService`
    exactly; ``max_workers`` sizes the executor that runs the CPU-bound
    estimates.  All public methods must be called from a running event
    loop.  The middleware hooks and the cache run on the loop, so they
    keep their sans-IO null locks.

    ``submit`` is :meth:`ServiceDispatch.submit
    <repro.service.dispatch.ServiceDispatch.submit>` and must be called
    on the loop.  Every caller receives its *own* future chained off the
    shared in-flight one (:meth:`_LoopSubstrate.share`): one caller's
    cancellation must not poison the piggybacked duplicates.  The thread
    drivers reach the same guarantee the other way round — they share
    one future object, handed out already *running*, which
    ``concurrent.futures`` refuses to cancel.
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
        super().__init__(
            estimator, middlewares, cache, metrics, telemetry, _LoopSubstrate()
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="xmem-aio"
        )

    def _launch(
        self, request: ServiceRequest, ctx: RequestContext
    ) -> "asyncio.Future":
        # the done-callback runs back on the loop: completion hooks +
        # accounting are serialized there like everything else
        return asyncio.get_running_loop().run_in_executor(
            self._executor, self._estimate, request, ctx
        )

    async def estimate(self, workload: WorkloadConfig, device: DeviceSpec):
        """Awaitable request — the drop-in for ``estimator.estimate()``."""
        return await self.submit(workload, device)

    async def estimate_many(
        self,
        requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
        return_exceptions: bool = False,
    ) -> list:
        """Awaitable bulk API; results in request order (see batch)."""
        return await estimate_many_async(
            self, requests, return_exceptions=return_exceptions
        )

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight ones to finish.

        Returns True when every in-flight estimate settled within
        ``timeout`` (None = wait forever).  Idempotent; ``submit`` raises
        afterwards.
        """
        self._draining = True
        if self._dispatched:
            try:
                await asyncio.wait_for(self._sub.went_idle.wait(), timeout)
            except asyncio.TimeoutError:
                return False
        return True

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


class AsyncServiceGateway(GatewayDispatch):
    """Routes estimation requests across N async service shards.

    The same :class:`~repro.service.dispatch.GatewayDispatch` machine as
    the thread gateway, driven from the event loop: routing, admission,
    shed and retry decisions are plain calls (the loop serializes
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

    async def estimate(self, workload: WorkloadConfig, device: DeviceSpec):
        """Awaitable request — the drop-in for ``service.estimate()``."""
        return await self.submit(workload, device)

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
    return_exceptions: bool = False,
) -> list:
    """Estimate every (workload, device) pair; results in request order.

    The awaitable mirror of :func:`repro.service.batch.estimate_many`:
    every request is submitted at once, so a workload repeated across
    devices is profiled once by the estimator's own stage cache.  With
    ``return_exceptions``, failures come back in-place instead of raising
    on the first bad request.
    """
    results: list = []
    for item in submit_all(service, requests, return_exceptions):
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

    The asyncio shell of :func:`repro.service.replayer.pace`, the policy
    :func:`~repro.service.replayer.replay` runs on threads: the same
    waves, window and outcome table, waiting on an ``asyncio.Event``.
    Nothing settles on a loop the replayer does not yield to, so without
    the window a wave submitted back-to-back would hold every slot it
    took, and a gateway would shed what the thread driver answers.  A
    future settled off the loop (a thread driver's) wakes it through
    ``call_soon_threadsafe``.
    """
    # loaded by the first replay: a process that only serves requests
    # never needs it
    from .replayer import pace

    progress = asyncio.Event()
    loop, home = asyncio.get_running_loop(), threading.get_ident()

    def wake() -> None:
        if threading.get_ident() == home:
            progress.set()
        else:
            loop.call_soon_threadsafe(progress.set)

    report, steps = pace(trace, target, threading.Lock(), wake)
    for ready in steps:
        while not ready():
            progress.clear()
            await progress.wait()
    return report
