"""The service middleware chain: request/response interception (sans-IO).

Every estimation request flows through an ordered chain of
:class:`ServiceMiddleware` objects with three hooks:

* ``on_request(request, ctx)`` — before estimation, in chain order.
  Returning a non-None result **short-circuits**: later middlewares never
  see the request, the estimator is not invoked, and ``on_result`` runs
  only for the middlewares *before* the producer (in reverse order).
  Raising rejects the request; ``on_error`` then runs for the middlewares
  already entered, in reverse order.
* ``on_result(request, result, ctx)`` — after estimation, in reverse
  chain order.  Returning a non-None value replaces the result (used for
  enrichment; the built-ins never mutate the estimate itself).
* ``on_error(request, error, ctx)`` — when estimation or a hook raised.
  For unwinding what ``on_request`` set up; it cannot swallow the error,
  which propagates afterwards.

This mirrors the onion model of HTTP/MCP middleware stacks: the first
middleware in the list is the outermost layer — first to see the request,
last to see the result.

The chain is part of the sans-IO core: it never imports a concurrency
substrate.  Middlewares that mutate shared state (the cache, the rate
limiter's token bucket in :mod:`repro.service.control`) declare a
:class:`~repro.service.context.NullLock` slot; a concurrent driver
*binds* a real primitive via ``bind_lock`` (the thread driver passes
``threading.Lock``; the asyncio driver binds nothing because its hooks
all run on the event loop).

The chain carries **policy only** — validate, answer from cache, stamp a
budget, throttle, authorize.  What happened to a request is observed in
one place, :meth:`ServiceDispatch._emit
<repro.service.dispatch.ServiceDispatch._emit>` (metrics window, ledger,
root span), so a middleware instance shared by every request keeps no
per-request state.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from ..core.result import EstimationResult
from ..errors import ModelNotFoundError, RequestRejectedError
from ..framework.optim import optimizer_names
from ..models.registry import get_model_spec
from .cache import EstimateCache
from .context import LockFactory, RequestContext, ServiceRequest

__all__ = [
    "CacheMiddleware",
    "DeadlineMiddleware",
    "MiddlewareChain",
    "RequestContext",
    "ServiceMiddleware",
    "ServiceRequest",
    "ValidationMiddleware",
    "default_middlewares",
]


class ServiceMiddleware:
    """Base middleware: override any subset of the three hooks."""

    name = "middleware"

    def on_request(
        self, request: ServiceRequest, ctx: RequestContext
    ) -> Optional[EstimationResult]:
        return None

    def on_result(
        self,
        request: ServiceRequest,
        result: EstimationResult,
        ctx: RequestContext,
    ) -> Optional[EstimationResult]:
        return None

    def on_error(
        self, request: ServiceRequest, error: BaseException, ctx: RequestContext
    ) -> None:
        return None

    def bind_lock(self, lock_factory: LockFactory) -> None:
        """Adopt a driver-supplied lock for shared mutable state.

        The sans-IO default is a no-op: stateless middlewares ignore it,
        stateful ones replace their :class:`NullLock` slot (idempotent —
        a lock already bound is kept, so two drivers sharing a middleware
        agree on one primitive).
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class MiddlewareChain:
    """Runs hooks in onion order and tracks how deep a request got."""

    def __init__(self, middlewares: Sequence[ServiceMiddleware]):
        self.middlewares = tuple(middlewares)

    def bind_lock(self, lock_factory: LockFactory) -> None:
        """Bind a driver's lock primitive to every stateful middleware."""
        for middleware in self.middlewares:
            middleware.bind_lock(lock_factory)

    def run_request(
        self, request: ServiceRequest, ctx: RequestContext
    ) -> tuple[Optional[EstimationResult], int]:
        """Run ``on_request`` hooks in order.

        Returns ``(result, depth)`` where ``depth`` is the number of
        middlewares whose ``on_request`` completed *without* producing the
        result — i.e. the layers that must later see ``on_result``.  On a
        hook exception, runs ``on_error`` for the layers already entered
        and re-raises.

        When the request carries a live tracing handle (the service
        attached one) and the tracer runs at ``detail="full"``, every
        ``on_request`` hook is followed by its own ``middleware:<name>``
        span — the per-layer cost breakdown the span tree exists to
        show.  Untraced (or standard-detail) requests pay one check per
        hook and nothing else.
        """
        telemetry = ctx.telemetry
        clock = None
        if telemetry is not None and telemetry.tracer.detail == "full":
            clock = telemetry.tracer.clock
        for index, middleware in enumerate(self.middlewares):
            started = clock() if clock else None
            try:
                result = middleware.on_request(request, ctx)
            except BaseException as error:
                if clock:
                    telemetry.hook_span(middleware.name, started, error)
                self.run_error(request, error, ctx, depth=index)
                raise
            if clock:
                telemetry.hook_span(middleware.name, started)
            if result is not None:
                ctx.short_circuited_by = middleware.name
                return result, index
        return None, len(self.middlewares)

    def run_result(
        self,
        request: ServiceRequest,
        result: EstimationResult,
        ctx: RequestContext,
        depth: Optional[int] = None,
    ) -> EstimationResult:
        """Run ``on_result`` for the first ``depth`` layers, innermost first."""
        layers = self.middlewares[: len(self.middlewares) if depth is None else depth]
        for middleware in reversed(layers):
            replacement = middleware.on_result(request, result, ctx)
            if replacement is not None:
                result = replacement
        return result

    def run_error(
        self,
        request: ServiceRequest,
        error: BaseException,
        ctx: RequestContext,
        depth: Optional[int] = None,
    ) -> None:
        layers = self.middlewares[: len(self.middlewares) if depth is None else depth]
        for middleware in reversed(layers):
            middleware.on_error(request, error, ctx)


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------


class CacheMiddleware(ServiceMiddleware):
    """Serves repeated fingerprints from an :class:`EstimateCache`."""

    name = "cache"

    def __init__(self, cache):
        self.cache = cache

    def bind_lock(self, lock_factory: LockFactory) -> None:
        self.cache.bind_lock(lock_factory)

    def on_request(self, request, ctx):
        result = self.cache.get(request.fingerprint)
        if result is not None:
            ctx.cache_hit = True
        return result

    def on_result(self, request, result, ctx):
        self.cache.put(request.fingerprint, result)
        return None


class ValidationMiddleware(ServiceMiddleware):
    """Rejects malformed requests before they cost a profiling run."""

    name = "validation"

    def __init__(self, max_batch_size: int = 65536):
        self.max_batch_size = max_batch_size

    def on_request(self, request, ctx):
        workload, device = request.workload, request.device
        try:
            get_model_spec(workload.model)
        except ModelNotFoundError as error:
            raise RequestRejectedError(str(error)) from None
        if workload.optimizer.lower() not in optimizer_names():
            raise RequestRejectedError(
                f"unknown optimizer {workload.optimizer!r}; "
                f"known: {optimizer_names()}"
            )
        if workload.batch_size > self.max_batch_size:
            raise RequestRejectedError(
                f"batch size {workload.batch_size} exceeds service limit "
                f"{self.max_batch_size}"
            )
        try:
            device.job_budget()
        except ValueError as error:
            raise RequestRejectedError(str(error)) from None
        return None


class DeadlineMiddleware(ServiceMiddleware):
    """Tags every request with a relative deadline (``budget_seconds``).

    Caller-supplied absolute deadlines are enforced by the core before
    any hook (or dedup piggyback) runs; this middleware is for stacks
    where the *service* imposes a serving budget on callers that did not
    set one themselves.  The stamped budget is enforced by the core's
    second deadline check — after the chain, before the estimator is
    dispatched — so a request that exhausts its budget queueing through
    the hooks is rejected instead of occupying a worker.
    """

    name = "deadline"

    def __init__(
        self,
        budget_seconds: float,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if budget_seconds <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_seconds = budget_seconds
        self._clock = clock

    def on_request(self, request, ctx):
        if ctx.deadline is None:
            ctx.deadline = self._clock() + self.budget_seconds
        return None


def default_middlewares(cache: EstimateCache) -> tuple[ServiceMiddleware, ...]:
    """The standard stack: validation outermost, then the cache."""
    return (ValidationMiddleware(), CacheMiddleware(cache))
