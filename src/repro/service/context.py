"""The transport-agnostic request envelope (sans-IO core).

The service stack is split sans-IO style: every *policy* decision —
middleware interception, cache lookup, single-flight dedup, routing,
queue accounting — is expressed as pure steps over the envelope types in
this module, while the *execution substrate* (threads + locks, or an
asyncio event loop) lives in a thin driver (:mod:`repro.service.engine`,
:mod:`repro.service.aio`).  The core modules therefore never import
``threading`` or ``asyncio``; where shared state needs mutual exclusion
under a concurrent driver, the core declares a :class:`NullLock` slot and
the driver *binds* a real primitive via ``bind_lock`` (see
:class:`~repro.service.cache.EstimateCache` and the locking middlewares).

:class:`ServiceRequest` is the immutable request; :class:`RequestContext`
is the mutable per-request state threaded through every hook: identity
(``request_id``, ``fingerprint``), budget (``deadline``, ``attempt``),
and outcome flags the drivers and middlewares fill in as the request
advances.  A request crosses a process boundary as itself (the process
pool pickles it, metadata bag included); a context never leaves the
process that opened it — the TCP wire ships a deadline as remaining
budget and the server opens a fresh context around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Optional

from ..workload import DeviceSpec, WorkloadConfig

#: ``() -> context manager`` — what drivers pass to ``bind_lock`` (e.g.
#: ``threading.Lock``).  The asyncio driver binds nothing: its hooks run
#: on the event loop, which already serializes them.
LockFactory = Callable[[], ContextManager]


class NullLock:
    """No-op lock: the sans-IO default until a driver binds a real one.

    Single-threaded drivers (and the asyncio driver, whose hooks all run
    on the event loop) never need more; the thread driver replaces every
    ``NullLock`` slot with a ``threading.Lock`` at construction time.
    """

    __slots__ = ()

    def __enter__(self) -> "NullLock":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullLock()"


@dataclass(frozen=True)
class ServiceRequest:
    """One estimation request as seen by the middleware chain."""

    workload: WorkloadConfig
    device: DeviceSpec
    fingerprint: str
    metadata: dict = field(default_factory=dict)
    #: the submitting tenant ("" = untenanted traffic; see service.control)
    tenant: str = ""
    #: QoS class (0 interactive / 1 standard / 2 batch)
    priority: int = 1


@dataclass
class RequestContext:
    """Mutable per-request state threaded through the hooks.

    ``tags`` is the middlewares' scratchpad (e.g. timing start stamps);
    the caller's annotation bag is the request's ``metadata``.
    """

    request_id: int
    submitted_at: float
    #: the cache/single-flight/routing key (empty until the driver sets it)
    fingerprint: str = ""
    #: absolute clock value after which the request is not worth serving
    deadline: Optional[float] = None
    #: 1 on first submission; >1 when the resilience plane re-dispatched
    #: this request (gateway retries stamp it via ``metadata["attempt"]``,
    #: procpool worker-death recovery bumps it in place) — ledger events
    #: for attempt > 1 carry it as provenance
    attempt: int = 1
    cache_hit: bool = False
    deduplicated: bool = False
    short_circuited_by: Optional[str] = None
    tags: dict = field(default_factory=dict)
    #: live tracing handle (:class:`~repro.service.telemetry.RequestTelemetry`)
    #: attached by the service when a tracer is configured.  Never
    #: serialized: the JSON-safe span context travels in the request's
    #: ``metadata["telemetry"]`` instead, and the receiving side re-opens
    #: its own spans against it.
    telemetry: Optional[Any] = field(
        default=None, compare=False, repr=False
    )

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at clock value ``now``."""
        return self.deadline is not None and now >= self.deadline
