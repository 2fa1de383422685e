"""The process-pool execution driver over the sans-IO service core.

Third substrate, same policy.  The thread driver (:mod:`.engine`) and the
asyncio driver (:mod:`.aio`) both execute estimation under one GIL, so a
CPU-bound estimator — the simulate-stage-dominated cold path of the real
pipeline — cannot scale past one core no matter how many workers the
pool has.  :class:`ProcEstimationService` keeps every *policy* step
inline in the parent process (fingerprinting, middleware hooks, cache
lookup and population, single-flight dedup, metrics — all driven through
the identical :class:`~repro.service.core.ServiceCore`) and dispatches
only the cache-miss estimator invocation to a pool of worker processes.

Division of labour:

* **parent** — owns the cache, the chain, the single-flight table, and
  the metrics.  Hooks run on the submitting thread; completion hooks
  (``on_result`` → cache population → accounting) run on the pool's
  callback thread, under the ``threading.Lock`` primitives this driver
  binds onto the core, exactly like the thread driver's worker side.
* **workers** — each process builds its estimator **once**, via the
  pool initializer (:func:`_init_worker`), from a picklable factory.
  Stage caches (:class:`~repro.core.pipeline.PipelineCache`) therefore
  warm *inside* each worker and persist across requests.  A worker only
  ever sees the pickle-safe request payload
  (:meth:`~repro.service.context.ServiceRequest.as_dict` + the optional
  shared trace) and returns ``(worker_pid, result)``.

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

import inspect
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Optional, Sequence

from ..core.estimator import XMemEstimator
from ..errors import ServiceClosedError
from ..trace.reader import Trace
from ..workload import DeviceSpec, WorkloadConfig
from .batch import estimate_many as _estimate_many
from .cache import EstimateCache
from .context import RequestContext, ServiceRequest
from .core import (
    ServiceCore,
    adopt_chain_cache,
    compute_fingerprint,
    estimator_accepts_trace,
    invoke_estimator,
)
from .faults import FaultPlan
from .gateway import (
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_NUM_SHARDS,
    SyncGatewayShell,
)
from .metrics import ServiceMetrics
from .middleware import (
    MiddlewareChain,
    ServiceMiddleware,
    default_middlewares,
)
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
    "with_artifact_store",
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


def with_artifact_store(
    factory: Callable[[], object], artifact_store
) -> Callable[[], object]:
    """Bind a persistent artifact-store *path* into a picklable factory.

    The store itself holds a sqlite connection and cannot cross the
    process boundary — the path (a plain string) can, riding the
    ``initargs`` pickle into :func:`_init_worker`, where each worker's
    estimator opens its own connection to the shared file.  Raises
    ``TypeError`` up front when the factory cannot accept the knob
    (e.g. the synthetic loadtest estimator), rather than failing inside
    every worker process.
    """
    if artifact_store is None:
        return factory
    path = os.fspath(artifact_store)
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        parameters = None  # builtins/opaque callables: let it ride
    if parameters is not None:
        accepts = "artifact_store" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        if not accepts:
            raise TypeError(
                f"estimator factory {factory!r} does not accept "
                "artifact_store="
            )
    return partial(factory, artifact_store=path)


# ----------------------------------------------------------------------
# worker side (runs in the pool processes)
# ----------------------------------------------------------------------

#: Per-process estimator, built once by :func:`_init_worker`.  Module
#: globals are the standard idiom for pool-worker state: the initializer
#: runs before any work item, and every subsequent task in this process
#: reuses the same instance — which is what lets stage caches warm.
_WORKER_ESTIMATOR = None
_WORKER_ACCEPTS_TRACE = False


def _init_worker(factory: Callable[[], object]) -> None:
    """Pool initializer: construct this process's estimator exactly once."""
    global _WORKER_ESTIMATOR, _WORKER_ACCEPTS_TRACE
    _WORKER_ESTIMATOR = factory()
    _WORKER_ACCEPTS_TRACE = estimator_accepts_trace(_WORKER_ESTIMATOR)


def _worker_estimate(payload: dict, trace: Optional[Trace]):
    """Run one cache-miss estimation inside a worker process.

    ``payload`` is the pickle-safe envelope
    (:meth:`ServiceRequest.as_dict`); the trace rides alongside because
    it is a large out-of-band artifact, not request identity.  Returns
    ``(pid, result, span_payloads)`` so the parent can attribute work to
    workers and re-attach the worker-side spans to the request's trace.

    When the envelope's metadata bag carries a span context (the parent
    had tracing enabled), the worker times the estimate and builds the
    ``estimate`` span plus its ``stage:*`` children locally, shipping
    them back as plain dicts — tracing crosses the pickle boundary the
    same way the request does.  Without a span context this is free.
    """
    request = ServiceRequest.from_dict(payload, trace=trace)
    fault = request.metadata.get("fault")
    if fault and fault.get("kind") == "worker_kill":
        # the injected fault this substrate can make *real*: die exactly
        # like a segfault/OOM-killed worker would — no cleanup, no
        # exception, just a vanished process.  The parent sees
        # BrokenProcessPool and exercises the recovery path.
        os._exit(1)
    span_context = request.metadata.get("telemetry")
    started = time.perf_counter() if span_context else 0.0
    result = invoke_estimator(
        _WORKER_ESTIMATOR, request, _WORKER_ACCEPTS_TRACE
    )
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


class ProcEstimationService:
    """Serves estimation requests with estimator work in child processes.

    Mirrors :class:`~repro.service.engine.EstimationService`'s surface
    (``submit`` / ``estimate`` / ``estimate_many`` / ``stats`` /
    ``drain`` / ``close`` / context manager) and its behaviour —
    byte-identical results, synchronous rejections, single-flight
    dedup — but takes an ``estimator_factory`` instead of an estimator
    instance: the factory is shipped to each worker process, while the
    parent keeps one *template* instance for fingerprinting and the bulk
    planner's shared-profile work.

    ``executor`` lets a gateway share one pool across shards; the
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
        executor: Optional[ProcessPoolExecutor] = None,
        telemetry=None,
        supervisor: Optional[PoolSupervisor] = None,
        artifact_store=None,
    ):
        if executor is None and supervisor is None and max_workers < 1:
            raise ValueError("service needs at least one worker")
        self.estimator_factory = (
            estimator_factory
            if estimator_factory is not None
            else default_estimator_factory
        )
        if artifact_store is not None:
            # every worker (and the parent template) opens the same store
            # file: a 4-worker sweep warms one cache instead of four
            self.estimator_factory = with_artifact_store(
                self.estimator_factory, artifact_store
            )
        # the template never estimates; it answers fingerprint inputs
        # (name/version/allocator config), `accepts_trace`, and the bulk
        # planner's profile calls — all parent-side concerns
        self.estimator = self.estimator_factory()
        self.cache = cache if cache is not None else EstimateCache()
        if middlewares is None:
            middlewares = default_middlewares(self.cache)
        else:
            self.cache = adopt_chain_cache(middlewares, self.cache)
        self.chain = MiddlewareChain(middlewares)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # completion hooks run on the pool's callback thread while new
        # submissions run hooks on caller threads: bind real locks, the
        # same regime as the thread driver
        self.cache.bind_lock(threading.Lock)
        self.chain.bind_lock(threading.Lock)
        self.telemetry = telemetry
        self.core = ServiceCore(
            self.chain,
            self.cache,
            self.metrics,
            tracer=telemetry.tracer if telemetry is not None else None,
            ledger=telemetry.ledger if telemetry is not None else None,
        )
        # three substrate arrangements, in precedence order: a shared
        # supervisor (gateway shards — worker-death recovery enabled and
        # coordinated across shards), a bare executor (caller-owned, no
        # recovery: the service cannot rebuild a pool it does not own),
        # or an internal supervisor (standalone service, recovery on)
        self._raw_executor = executor if supervisor is None else None
        self._supervisor = supervisor
        self._owns_executor = executor is None and supervisor is None
        if self._owns_executor:
            self._supervisor = PoolSupervisor(
                max_workers, self.estimator_factory, mp_context
            )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._dispatched = 0  # estimator invocations in flight in the pool
        self._draining = False
        self._closed = False
        self._accepts_trace = estimator_accepts_trace(self.estimator)

    # ------------------------------------------------------------------
    # public API (mirrors EstimationService)
    # ------------------------------------------------------------------
    @property
    def _executor(self) -> ProcessPoolExecutor:
        """The pool to dispatch onto right now (post-recovery aware)."""
        if self._supervisor is not None:
            return self._supervisor.current()
        return self._raw_executor

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
        priority: int = 1,
    ) -> Future:
        """Enqueue one request; returns a future of the EstimationResult.

        Same contract as the thread driver: synchronous raise on hook
        rejection or an already-expired deadline, shared future for
        identical in-flight requests, estimator failures through the
        future.  Only the cache-miss estimator call crosses the process
        boundary.
        """
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
        with self._lock:
            inflight = self.core.inflight.get(fp)
        if inflight is not None:
            self.core.note_deduplicated(ctx)
            return inflight
        # hooks run outside the lock: cache/rate-limit state is internally
        # locked, and a hook may call back into stats() without deadlock
        admission = self.core.run_request_hooks(request, ctx)
        if admission.result is not None:
            future: Future = Future()
            future.set_result(admission.result)
            return future
        refused = False
        with self._lock:
            # re-check the intake gate under the lock: a drain() racing
            # with this submit has either already seen our _dispatched
            # slot (and waits for us) or flipped _draining first (and we
            # refuse loudly) — drain can never report quiescence while a
            # gated-in request is still on its way to the pool
            if self._closed or self._draining:
                refused = True
            else:
                # another thread may have registered this fingerprint
                # while our hooks ran
                inflight = self.core.inflight.get(fp)
                if inflight is not None:
                    self.core.note_deduplicated(ctx)
                    return inflight
                future = Future()
                self.core.inflight.claim(fp, future)
                self._dispatched += 1
        if refused:
            # the hooks already ran for this request: unwind the entered
            # layers and classify the outcome (core.refuse = on_error
            # hooks + the rejected counter + the ledger entry) so
            # counters keep reconciling — outside the lock, because
            # hooks must never run under it
            error = ServiceClosedError("service is closed")
            self.core.refuse(
                request, ctx, error, admission.depth, cause="drain_race"
            )
            raise error
        pool = self._executor
        try:
            inner = pool.submit(
                _worker_estimate, request.as_dict(), request.trace
            )
        except BaseException as error:
            # the pool broke or shut down between the gate and here:
            # release the single-flight slot so nothing piggybacks on a
            # future no worker will ever resolve, and unwind the entered
            # middleware layers (core.fail = on_error hooks + the error
            # counter) so the audit trail and counters keep reconciling
            with self._idle:
                self.core.inflight.release(fp)
                self._dispatched -= 1
                self._idle.notify_all()
            self.core.fail(request, ctx, error, admission.depth)
            future.set_exception(error)
            return future
        inner.add_done_callback(
            partial(self._on_done, request, ctx, future, admission.depth, pool)
        )
        return future

    def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
    ):
        """Blocking request — the drop-in for ``estimator.estimate()``."""
        return self.submit(workload, device, trace=trace).result()

    def estimate_many(
        self,
        requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
        share_profiles: bool = True,
        return_exceptions: bool = False,
    ) -> list:
        """Bulk API; results in request order (see :mod:`.batch`).

        Shared-profile planning (:func:`~repro.service.batch.plan_shared_traces`)
        runs in the parent — one profile per repeated workload — and the
        trace is shipped to whichever worker handles each request.
        """
        return _estimate_many(
            self,
            requests,
            share_profiles=share_profiles,
            return_exceptions=return_exceptions,
        )

    def stats(self) -> dict:
        """Service metrics + cache counters in one JSON-ready snapshot."""
        with self._lock:
            inflight = len(self.core.inflight)
        return {
            "service": self.metrics.as_dict(),
            "cache": self.cache.stats().as_dict(),
            "inflight": inflight,
        }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight estimations.

        Returns True when every dispatched estimation settled within
        ``timeout`` (None = wait forever).  No result is lost: futures
        already handed out resolve normally.  Idempotent; ``submit``
        raises afterwards.
        """
        with self._idle:
            self._draining = True
            return self._idle.wait_for(
                lambda: self._dispatched == 0, timeout=timeout
            )

    def close(self, wait: bool = True) -> None:
        """Drain (when ``wait``) and release the pool, if this service
        owns it (a gateway-shared pool is the gateway's to close)."""
        if wait:
            self.drain()
        self._draining = True
        self._closed = True
        if self._owns_executor:
            self._supervisor.shutdown(wait=wait)

    def __enter__(self) -> "ProcEstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # completion (runs on the pool's callback thread)
    # ------------------------------------------------------------------
    def _on_done(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        future: Future,
        depth: int,
        pool: ProcessPoolExecutor,
        inner: Future,
    ) -> None:
        redispatched = False
        try:
            try:
                worker_pid, result, span_payloads = inner.result()
            except BrokenProcessPool as error:
                # a worker died mid-request — the injected ``worker_kill``
                # or a real crash.  Rebuild the pool (identity-checked:
                # shards sharing it race here) and re-dispatch, unless
                # this request already used up its redispatch budget
                if self._redispatch(request, ctx, future, depth, pool):
                    redispatched = True
                    return
                self.core.fail(request, ctx, error, depth)
                with self._idle:
                    self.core.inflight.release(request.fingerprint)
                future.set_exception(error)
                return
            try:
                ctx.tags["worker"] = worker_pid
                if ctx.telemetry is not None and span_payloads:
                    # re-attach the worker-side estimate/stage spans,
                    # translated onto the parent clock (they arrive in
                    # the worker's perf_counter domain)
                    ctx.telemetry.attach_spans(
                        span_payloads, rebase_to=self.core.clock()
                    )
                result = self.core.finish(request, ctx, result, depth)
                # attribution only after finish: a result an on_result
                # hook rejects is classified as an error, and the
                # per-worker counts must keep summing to `computed`
                self.metrics.record_worker(worker_pid)
            except BaseException as error:
                self.core.fail(request, ctx, error, depth)
                with self._idle:
                    self.core.inflight.release(request.fingerprint)
                future.set_exception(error)
                return
            with self._idle:
                self.core.inflight.release(request.fingerprint)
            future.set_result(result)
        finally:
            if not redispatched:
                with self._idle:
                    self._dispatched -= 1
                    if self._dispatched == 0:
                        self._idle.notify_all()

    def _redispatch(
        self,
        request: ServiceRequest,
        ctx: RequestContext,
        future: Future,
        depth: int,
        broken: ProcessPoolExecutor,
    ) -> bool:
        """Re-run a request whose worker died; True when re-dispatched.

        The in-flight bookkeeping is untouched on success: the request
        keeps its single-flight slot, its ``_dispatched`` count, and its
        caller-facing future — only the substrate underneath changed.
        Any injected fault directive is stripped before the re-run (the
        kill already happened; the directive must not chase the retry),
        and the attempt number is bumped so ledger events carry the
        recovery provenance.
        """
        if self._supervisor is None:
            return False  # caller-owned pool: not ours to rebuild
        hops = ctx.tags.get("worker_redispatches", 0)
        if hops >= MAX_WORKER_REDISPATCHES:
            return False
        pool = self._supervisor.replace(broken)
        ctx.tags["worker_redispatches"] = hops + 1
        ctx.attempt += 1
        request.metadata.pop("fault", None)
        request.metadata["attempt"] = ctx.attempt
        if self.core.ledger is not None:
            self.core.ledger.record(
                ledger_events.RETRY,
                cause="worker_death",
                fingerprint=request.fingerprint,
                request_id=ctx.request_id,
                shard=self.core.shard_id,
                attributes={"layer": "service", "attempt": ctx.attempt},
            )
        try:
            inner = pool.submit(
                _worker_estimate, request.as_dict(), request.trace
            )
        except BaseException:
            return False  # the fresh pool refused too; surface the break
        inner.add_done_callback(
            partial(self._on_done, request, ctx, future, depth, pool)
        )
        return True


class ProcServiceGateway(SyncGatewayShell):
    """Routes estimation requests across N shards over one process pool.

    The gateway shell — routing under the lock, admit/shed/settle,
    warm-up replicas, condition-variable ``drain()``, fleet ``stats()``
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
        artifact_store=None,
        control=None,
    ):
        if num_shards < 1:
            raise ValueError("gateway needs at least one shard")
        factory = (
            estimator_factory
            if estimator_factory is not None
            else default_estimator_factory
        )
        if artifact_store is not None:
            factory = with_artifact_store(factory, artifact_store)
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
