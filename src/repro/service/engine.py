"""The thread substrate, and the thread-pool service driver over it.

:class:`EstimationService` wraps any :class:`~repro.core.base.Estimator`
behind the request lifecycle written once in
:class:`~repro.service.dispatch.ServiceDispatch`:

1. the request is fingerprinted (:mod:`repro.service.fingerprint`);
2. if an identical request is already in flight, the caller piggybacks on
   its future (**single-flight deduplication** — concurrent duplicates
   cost one estimation, not N);
3. otherwise the middleware chain's ``on_request`` hooks run in order
   (cache lookup, validation, rate limiting, ...); a short-circuit
   answers immediately;
4. misses dispatch to a ``ThreadPoolExecutor`` worker, which runs the
   estimator and then the ``on_result`` hooks (populating the cache).

Every decision above lives in the machine and the core; this module only
supplies the execution substrate — :class:`ThreadSubstrate` (locks,
``concurrent.futures`` futures, ``threading.Timer``, a condition
variable ``drain()`` blocks on), shared by every synchronous driver:
this service, the process-pool one (:mod:`repro.service.procpool`) and
both their gateways — plus :class:`SyncServiceShell`, the blocking
``estimate`` / ``drain`` / ``close`` the two sync services have in
common.  The asyncio driver (:mod:`repro.service.aio`) runs the same
machine from an event loop instead.

``estimate()`` is the blocking convenience wrapper; ``submit()`` returns
a ``concurrent.futures.Future`` so schedulers can fan out.  Results are
the estimator's own objects, untouched — byte-identical to calling the
estimator directly.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
)
from typing import Optional, Sequence

from ..core.base import Estimator
from ..workload import DeviceSpec, WorkloadConfig
from .cache import EstimateCache
from .context import RequestContext, ServiceRequest
from .dispatch import ServiceDispatch
from .metrics import ServiceMetrics
from .middleware import ServiceMiddleware

DEFAULT_MAX_WORKERS = 4


class ThreadSubstrate:
    """Locks, ``concurrent.futures`` and ``threading.Timer``: what a
    dispatch machine borrows when callers and workers are threads."""

    CancelledError = CancelledError
    InvalidStateError = InvalidStateError
    call_lock = staticmethod(threading.Lock)
    new_future = Future

    def __init__(self):
        self.lock = threading.Lock()
        #: what ``drain()`` blocks on; shares the machine's lock
        self.idle = threading.Condition(self.lock)

    @staticmethod
    def new_master() -> Future:
        master = Future()
        # every duplicate caller holds this very object: a pending
        # future would let any one of them cancel() it for all the
        # others while the worker keeps estimating
        master.set_running_or_notify_cancel()
        return master

    @staticmethod
    def share(master: Future) -> Future:
        return master

    @staticmethod
    def when_done(future: Future, callback) -> None:
        # concurrent.futures runs the callback inline when already done
        future.add_done_callback(callback)

    @staticmethod
    def call_later(delay: float, fn, *args) -> threading.Timer:
        timer = threading.Timer(delay, fn, args=args)
        timer.daemon = True
        timer.start()
        return timer

    def mark_busy(self) -> None:
        pass  # drain() re-checks the idle predicate under the lock

    def notify_idle(self) -> None:
        self.idle.notify_all()


class SyncServiceShell(ServiceDispatch):
    """The thread-substrate service shell, shared by the sync drivers.

    :class:`~repro.service.dispatch.ServiceDispatch` over
    :class:`ThreadSubstrate` — identical whether estimation runs on
    worker threads (:class:`EstimationService`) or in a process pool
    (:class:`~repro.service.procpool.ProcEstimationService`); only the
    executor underneath differs.  Subclasses call this constructor, then
    build their executor, and implement ``_launch`` and
    :meth:`_shutdown_substrate`.
    """

    def __init__(
        self,
        estimator: Optional[Estimator],
        middlewares: Optional[Sequence[ServiceMiddleware]],
        cache: Optional[EstimateCache],
        metrics: Optional[ServiceMetrics],
        telemetry,
    ) -> None:
        super().__init__(
            estimator, middlewares, cache, metrics, telemetry, ThreadSubstrate()
        )

    def _shutdown_substrate(self, wait: bool) -> None:
        """Release the executor, if this service owns it."""
        raise NotImplementedError

    def estimate(self, workload: WorkloadConfig, device: DeviceSpec):
        """Blocking request — the drop-in for ``estimator.estimate()``."""
        return self.submit(workload, device).result()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight estimations.

        Returns True when every dispatched estimation settled within
        ``timeout`` (None = wait forever).  No result is lost: futures
        already handed out resolve normally.  Idempotent; ``submit``
        raises afterwards.
        """
        idle = self._sub.idle
        with idle:
            self._draining = True
            return idle.wait_for(
                lambda: self._dispatched == 0, timeout=timeout
            )

    def close(self, wait: bool = True) -> None:
        """Drain (when ``wait``) and release the executor."""
        if wait:
            self.drain()
        self._draining = True
        self._closed = True
        self._shutdown_substrate(wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EstimationService(SyncServiceShell):
    """Serves estimation requests through a middleware chain and a pool."""

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
        super().__init__(estimator, middlewares, cache, metrics, telemetry)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="xmem-service"
        )

    def _launch(self, request: ServiceRequest, ctx: RequestContext) -> Future:
        return self._executor.submit(self._estimate, request, ctx)

    def _shutdown_substrate(self, wait: bool) -> None:
        self._executor.shutdown(wait=wait)
