"""The process-pool execution driver over the sans-IO service core.

Third substrate, same policy.  The thread driver (:mod:`.engine`) and the
asyncio driver (:mod:`.aio`) both execute estimation under one GIL, so a
CPU-bound estimator — the cold path of the real pipeline, all four
stages pure Python — cannot scale past one core no matter how many
workers the pool has.  :class:`ProcEstimationService` keeps every *policy* step
inline in the parent process (fingerprinting, middleware hooks, cache
lookup and population, single-flight dedup, metrics — all driven through
the identical :class:`~repro.service.dispatch.ServiceDispatch`) and
dispatches only the cache-miss estimator invocation to a pool of worker
processes.

Division of labour:

* **parent** — owns the cache, the chain, the single-flight table, and
  the metrics.  Hooks run on the submitting thread; completion hooks
  (``on_result`` → cache population → accounting) run on the pool's
  callback thread, under the ``threading.Lock`` primitives of the
  thread substrate, exactly like the thread driver's worker side.
* **workers** — each process builds its estimator **once**, via the
  pool initializer (:func:`_init_worker`), from a picklable factory.
  Stage caches (:class:`~repro.core.pipeline.PipelineCache`) therefore
  warm *inside* each worker and persist across requests: a workload is
  profiled at most once per worker, and a store path bound in the
  factory (``partial(XMemEstimator, artifact_store=PATH)``) is how
  workers share one profile.  A worker receives the
  :class:`~repro.service.context.ServiceRequest` itself (it pickles,
  metadata bag included) and returns ``(worker_pid, result, spans)``.

Cross-process metrics: the result objects come back carrying their
``stage_seconds`` breakdown (``compare=False``, so byte-identity with
the other drivers is preserved), and the parent merges them through the
existing :meth:`~repro.service.metrics.ServiceMetrics.record_stages` /
:func:`~repro.service.core.aggregate_shard_stats` path — a fleet
dashboard cannot tell which substrate produced the numbers.  Per-worker
request counts are additionally tracked via
:meth:`~repro.service.metrics.ServiceMetrics.record_worker`.

:class:`ProcServiceGateway` shards the service exactly like the thread
gateway — same :class:`~repro.service.core.GatewayCore` admission/shed/
drain state machine, same routing policies (which stay in the parent and
are never pickled) — but all shards share **one** process pool, so the
process count is bounded by ``pool_workers`` rather than
``shards × workers``.

Start method: ``forkserver`` where the platform offers it (workers fork
from a clean single-threaded server process — the parent here is
multi-threaded by design, so plain ``fork`` risks inheriting a held
lock), then ``fork``, then ``spawn`` — overridable via ``mp_context``.
Except under plain ``fork``, the estimator factory must be picklable: a
module-level function or a :func:`functools.partial` over an importable
callable (``partial(XMemEstimator, iterations=2, curve=False)``), not a
lambda.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Optional, Sequence

from ..core.estimator import XMemEstimator
from .cache import EstimateCache
from .context import RequestContext, ServiceRequest
from .core import invoke_estimator
from .engine import SyncServiceShell
from .faults import FaultPlan
from .gateway import (
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_NUM_SHARDS,
    SyncGatewayShell,
)
from .metrics import ServiceMetrics
from .middleware import ServiceMiddleware
from .resilience import ResiliencePolicy
from .routing import RoutingPolicy
from .telemetry import ledger as ledger_events
from .telemetry.spans import worker_estimate_spans

__all__ = [
    "DEFAULT_POOL_WORKERS",
    "MAX_WORKER_REDISPATCHES",
    "PoolSupervisor",
    "ProcEstimationService",
    "ProcServiceGateway",
    "default_estimator_factory",
]

DEFAULT_POOL_WORKERS = 4

#: How many times one request may be re-dispatched after worker deaths
#: before its failure surfaces to the caller.  A request that kills
#: every worker it touches (a poison pill) must not rebuild pools
#: forever.
MAX_WORKER_REDISPATCHES = 2

#: Factory the drivers fall back to: the real pipeline, curve-less (the
#: serving tier reads peaks; skipping curve materialization keeps the
#: result payload small on the wire).  Module-level so it pickles.
default_estimator_factory = partial(XMemEstimator, curve=False)


# ----------------------------------------------------------------------
# worker side (runs in the pool processes)
# ----------------------------------------------------------------------

#: Per-process estimator, built once by :func:`_init_worker`.  Module
#: globals are the standard idiom for pool-worker state: the initializer
#: runs before any work item, and every subsequent task in this process
#: reuses the same instance — which is what lets stage caches warm.
_WORKER_ESTIMATOR = None


def _init_worker(factory: Callable[[], object]) -> None:
    """Pool initializer: construct this process's estimator exactly once."""
    global _WORKER_ESTIMATOR
    _WORKER_ESTIMATOR = factory()


def _worker_estimate(request: ServiceRequest):
    """Run one cache-miss estimation inside a worker process.

    Returns ``(pid, result, span_payloads)`` so the parent can attribute
    work to workers and re-attach the worker-side spans to the request's
    trace.

    When the request's metadata bag carries a span context (the parent
    had tracing enabled), the worker times the estimate and builds the
    ``estimate`` span plus its ``stage:*`` children locally, shipping
    them back as plain dicts — tracing crosses the pickle boundary the
    same way the request does.  Without a span context this is free.
    """
    fault = request.metadata.get("fault")
    if fault and fault.get("kind") == "worker_kill":
        # the injected fault this substrate can make *real*: die exactly
        # like a segfault/OOM-killed worker would — no cleanup, no
        # exception, just a vanished process.  The parent sees
        # BrokenProcessPool and exercises the recovery path.
        os._exit(1)
    span_context = request.metadata.get("telemetry")
    started = time.perf_counter() if span_context else 0.0
    result = invoke_estimator(_WORKER_ESTIMATOR, request)
    pid = multiprocessing.current_process().pid
    span_payloads = None
    if span_context:
        span_payloads = [
            span.as_dict()
            for span in worker_estimate_spans(
                span_context,
                pid,
                started,
                time.perf_counter(),
                stage_seconds=getattr(result, "stage_seconds", None),
            )
        ]
    return pid, result, span_payloads


def _resolve_context(mp_context: Optional[str]):
    """The multiprocessing context for a pool.

    Default preference: ``forkserver`` (workers fork from a clean,
    single-threaded server — immune to the classic fork-while-threaded
    deadlock, since this driver is multi-threaded by design: caller
    threads plus the pool's callback thread, all holding locks), then
    ``fork`` (platforms without forkserver), then ``spawn``.  Pass
    ``mp_context="fork"`` explicitly to trade that safety for the
    cheapest possible worker start-up on a single-threaded parent.
    """
    if mp_context is not None:
        return multiprocessing.get_context(mp_context)
    methods = multiprocessing.get_all_start_methods()
    for method in ("forkserver", "fork"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context("spawn")


def make_pool(
    max_workers: int,
    estimator_factory: Callable[[], object],
    mp_context: Optional[str] = None,
) -> ProcessPoolExecutor:
    """A worker pool whose processes each own one warmed estimator."""
    if max_workers < 1:
        raise ValueError("process pool needs at least one worker")
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=_resolve_context(mp_context),
        initializer=_init_worker,
        initargs=(estimator_factory,),
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class PoolSupervisor:
    """Owns a process pool and replaces it after a worker death.

    A :class:`~concurrent.futures.process.BrokenProcessPool` condemns the
    whole executor: every queued and in-flight future fails and no new
    work is accepted.  The supervisor is the single place a pool gets
    swapped for a fresh one, so N shards sharing one pool (the gateway
    arrangement) race their recoveries safely: ``replace`` is
    identity-checked under a lock — the first caller rebuilds, the rest
    observe the already-fresh pool and just re-dispatch onto it.
    """

    def __init__(
        self,
        max_workers: int,
        estimator_factory: Callable[[], object],
        mp_context: Optional[str] = None,
    ):
        self.max_workers = max_workers
        self.estimator_factory = estimator_factory
        self.mp_context = mp_context
        self._lock = threading.Lock()
        self._pool = make_pool(max_workers, estimator_factory, mp_context)
        self.generation = 0
        self.rebuilds = 0
        self._closed = False

    def current(self) -> ProcessPoolExecutor:
        """The live pool to dispatch onto."""
        with self._lock:
            return self._pool

    def replace(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Swap ``broken`` for a fresh pool; idempotent per generation.

        Returns the pool to re-dispatch onto.  Only the caller holding
        the *current* broken pool triggers a rebuild — late arrivals
        (other shards whose futures failed off the same dead worker)
        get the replacement that already exists.
        """
        with self._lock:
            if self._closed:
                return self._pool
            if self._pool is broken:
                self._pool = make_pool(
                    self.max_workers, self.estimator_factory, self.mp_context
                )
                self.generation += 1
                self.rebuilds += 1
                broken.shutdown(wait=False)
            return self._pool

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            self._pool.shutdown(wait=wait)

    def snapshot(self) -> dict:
        return {
            "pool_workers": self.max_workers,
            "pool_generation": self.generation,
            "pool_rebuilds": self.rebuilds,
        }


class ProcEstimationService(SyncServiceShell):
    """Serves estimation requests with estimator work in child processes.

    Mirrors :class:`~repro.service.engine.EstimationService`'s surface
    (``submit`` / ``estimate`` / ``stats`` / ``drain`` / ``close`` /
    context manager; bulk requests go through
    :func:`~repro.service.batch.estimate_many` like on any sync driver)
    and its behaviour — byte-identical results, synchronous rejections,
    single-flight dedup; only the cache-miss estimator call crosses the
    process boundary — but takes an ``estimator_factory`` instead of an
    estimator instance: the factory is shipped to each worker process,
    while the parent keeps one *template* instance for fingerprinting.

    ``supervisor`` lets a gateway share one pool across shards; the
    service then does not own (and will not shut down) the pool.
    """

    def __init__(
        self,
        estimator_factory: Optional[Callable[[], object]] = None,
        middlewares: Optional[Sequence[ServiceMiddleware]] = None,
        cache: Optional[EstimateCache] = None,
        max_workers: int = DEFAULT_POOL_WORKERS,
        metrics: Optional[ServiceMetrics] = None,
        mp_context: Optional[str] = None,
        telemetry=None,
        supervisor: Optional[PoolSupervisor] = None,
    ):
        if supervisor is None and max_workers < 1:
            raise ValueError("service needs at least one worker")
        self.estimator_factory = (
            estimator_factory
            if estimator_factory is not None
            else default_estimator_factory
        )
        # the template never estimates; it answers fingerprint inputs
        # (name/version/allocator config).  Completion hooks run on the
        # pool's callback thread while new submissions run hooks on
        # caller threads: the thread substrate's regime
        super().__init__(
            self.estimator_factory(), middlewares, cache, metrics, telemetry
        )
        # a shared supervisor (gateway shards — worker-death recovery
        # coordinated across shards) or an internal one (standalone)
        self._owns_supervisor = supervisor is None
        self._supervisor = (
            supervisor
            if supervisor is not None
            else PoolSupervisor(max_workers, self.estimator_factory, mp_context)
        )

    @property
    def _executor(self) -> ProcessPoolExecutor:
        """The pool to dispatch onto right now (post-recovery aware)."""
        return self._supervisor.current()

    def _shutdown_substrate(self, wait: bool) -> None:
        """A gateway-shared pool is the gateway's to close."""
        if self._owns_supervisor:
            self._supervisor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # what the machine asks of this substrate (the done-callback runs on
    # the pool's callback thread)
    # ------------------------------------------------------------------
    def _launch(self, request: ServiceRequest, ctx: RequestContext) -> Future:
        pool = self._executor
        inner = pool.submit(_worker_estimate, request)
        # _recover must name the pool this attempt ran on: the
        # supervisor's replace() is identity-checked
        inner.pool = pool
        return inner

    def _unpack(self, ctx: RequestContext, outcome):
        worker_pid, result, span_payloads = outcome
        ctx.tags["worker"] = worker_pid
        if ctx.telemetry is not None and span_payloads:
            # re-attach the worker-side estimate/stage spans, translated
            # onto the parent clock (they arrive in the worker's
            # perf_counter domain)
            ctx.telemetry.attach_spans(
                span_payloads, rebase_to=time.perf_counter()
            )
        return result

    def _recover(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        error: BaseException,
        inner: Future,
    ) -> Optional[Future]:
        """Re-run a request whose worker died — the injected
        ``worker_kill`` or a real crash; None surfaces the break.

        Rebuilds the pool (identity-checked: shards sharing it race
        here) unless this request already used up its redispatch budget.
        Any injected fault directive is stripped before the re-run (the
        kill already happened; the directive must not chase the retry),
        and the attempt number is bumped so ledger events carry the
        recovery provenance.
        """
        if not isinstance(error, BrokenProcessPool):
            return None
        hops = ctx.tags.get("worker_redispatches", 0)
        if hops >= MAX_WORKER_REDISPATCHES:
            return None
        self._supervisor.replace(inner.pool)
        ctx.tags["worker_redispatches"] = hops + 1
        ctx.attempt += 1
        request.metadata.pop("fault", None)
        request.metadata["attempt"] = ctx.attempt
        self._record_decision(
            ledger_events.RETRY,
            "worker_death",
            ctx,
            attributes={"layer": "service"},
        )
        try:
            return self._launch(request, ctx)
        except BaseException:
            return None  # the fresh pool refused too; surface the break


class ProcServiceGateway(SyncGatewayShell):
    """Routes estimation requests across N shards over one process pool.

    The gateway shell — routing under the lock, admit/shed/settle,
    condition-variable ``drain()``, fleet ``stats()``
    — is inherited verbatim from
    :class:`~repro.service.gateway.SyncGatewayShell` (the thread
    gateway's shell): the decisions are byte-for-byte the same.  What
    this class adds is the substrate: per-shard parent-side
    caches/metrics over a **single shared pool** of worker processes
    doing the estimator work.  Routing policies and their state stay in
    the parent; nothing about the policy layer is ever pickled.
    """

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        estimator_factory: Optional[Callable[[], object]] = None,
        policy: Optional[RoutingPolicy] = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        pool_workers: int = DEFAULT_POOL_WORKERS,
        mp_context: Optional[str] = None,
        telemetry=None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        control=None,
    ):
        if num_shards < 1:
            raise ValueError("gateway needs at least one shard")
        factory = (
            estimator_factory
            if estimator_factory is not None
            else default_estimator_factory
        )
        self._supervisor = PoolSupervisor(pool_workers, factory, mp_context)
        self.pool_workers = pool_workers
        try:
            shards = tuple(
                ProcEstimationService(
                    estimator_factory=factory, supervisor=self._supervisor
                )
                for _ in range(num_shards)
            )
        except BaseException:
            self._supervisor.shutdown(wait=False)
            raise
        super().__init__(
            shards,
            policy,
            max_queue_depth,
            telemetry=telemetry,
            resilience=resilience,
            fault_plan=fault_plan,
            control=control,
        )

    @property
    def _executor(self) -> ProcessPoolExecutor:
        """The shared pool right now (changes after worker-death rebuilds)."""
        return self._supervisor.current()

    def _shutdown_substrate(self, wait: bool) -> None:
        """The shards share the pool, so the gateway owns its shutdown."""
        self._supervisor.shutdown(wait=wait)

    def _snapshot_extra(self) -> dict:
        return self._supervisor.snapshot()
