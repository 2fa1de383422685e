"""The multi-tenant admission control plane (sans-IO core).

Admission so far has been policy-free: a bounded queue per shard treats
a hostile tenant and a paying one identically.  This module adds the
policy layer — per-tenant token-bucket quotas, weighted fair-share
admission, deadline-aware shedding, and a token-based auth shim — as
pure, substrate-free objects every driver (threads, asyncio, procpool,
TCP) consults at the same point: the gateway's admission step, under the
driver's serialization primitive.  The mechanism core
(:class:`~repro.service.core.GatewayCore`) stays policy-free; the
control plane is pluggable above it, exactly the split the
adaptive-middleware literature argues for.

**Determinism.**  Decision sequences must be byte-identical across all
four drivers for the same seeded traffic, so nothing here may depend on
wall-clock time or completion interleaving.  The default clock is a
*submission tick*: every :meth:`ControlPlane.admit` call advances it by
one, and token buckets refill per tick.  Because every driver serializes
gateway admission (the thread gateway's lock, the asyncio/TCP event
loop, the procpool parent lock) and submits replayed traffic in the same
order, tick-driven decisions are identical everywhere.  Pass a real
clock (``time.monotonic``) for wall-time quotas when determinism is not
required.

QoS classes map priorities to names::

    interactive = 0   # latency-sensitive; full access to the fair share
    standard    = 1   # the default
    batch       = 2   # only admitted while the share bucket stays above
                      # a reserve kept for the classes above it

See ``docs/control_plane.md`` for the fair-share math and the grant
model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from ..errors import (
    AuthenticationError,
    AuthorizationError,
    DeadlineExceededError,
    QuotaExceededError,
    RateLimitExceededError,
)
from .context import LockFactory, NullLock
from .middleware import ServiceMiddleware

__all__ = [
    "DEFAULT_PRIORITY",
    "MAX_LAZY_TENANTS",
    "OVERFLOW_TENANT",
    "QOS_CLASSES",
    "QOS_RESERVE",
    "AuthShimMiddleware",
    "ControlPlane",
    "RateLimitMiddleware",
    "TenantConfig",
    "TenantGrant",
    "TokenBucket",
    "qos_class",
    "qos_priority",
]

#: QoS class name -> priority integer (lower = more important).
QOS_CLASSES = {"interactive": 0, "standard": 1, "batch": 2}

#: priority -> class name (unknown priorities clamp to ``batch``).
_QOS_NAMES = {value: name for name, value in QOS_CLASSES.items()}

DEFAULT_PRIORITY = QOS_CLASSES["standard"]

#: Fraction of a tenant's share-bucket burst that must *remain* after
#: admitting a request of this class — batch work may never drain the
#: share below the reserve kept for interactive/standard traffic, which
#: is what prevents priority inversion inside one tenant.
QOS_RESERVE = {0: 0.0, 1: 0.0, 2: 0.5}

#: How many unregistered tenants a plane with a ``default_config`` gives
#: a state of their own.  Tenant names arrive off the wire, so the table
#: they materialize must be bounded: the last slot is one shared state,
#: :data:`OVERFLOW_TENANT`, that every further stranger admits against.
MAX_LAZY_TENANTS = 1024
OVERFLOW_TENANT = "(overflow)"


def qos_class(priority: int) -> str:
    """The QoS class name for a priority integer (clamped to batch)."""
    if priority <= 0:
        return _QOS_NAMES[0]
    return _QOS_NAMES.get(priority, "batch")


def qos_priority(name: str) -> int:
    """The priority integer for a QoS class name."""
    try:
        return QOS_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown QoS class {name!r}; known: {sorted(QOS_CLASSES)}"
        ) from None


class TokenBucket:
    """A deterministic token bucket over an injectable clock.

    ``capacity`` tokens at most; refilled at ``rate`` tokens per clock
    unit.  The clock is any monotone float source — the control plane
    feeds it submission ticks, wall-time users pass ``time.monotonic``.
    Edge cases are pinned by the property tests:

    * **zero capacity** never grants a token, whatever the rate;
    * **exact refill boundary**: after exactly ``cost / rate`` clock
      units a drained bucket grants again (``>=``, not ``>``);
    * **clock skew**: a clock that steps backwards mints nothing —
      negative elapsed time is clamped to zero, and the refill stamp
      only ever moves forward.
    """

    __slots__ = ("capacity", "rate", "_tokens", "_stamp")

    def __init__(self, capacity: float, rate: float, now: float = 0.0):
        if capacity < 0 or rate < 0:
            raise ValueError("capacity and rate must be non-negative")
        self.capacity = float(capacity)
        self.rate = float(rate)
        self._tokens = float(capacity)
        self._stamp = now

    def refill(self, now: float) -> None:
        """Advance the bucket to clock value ``now``."""
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.rate
            )
            self._stamp = now

    @property
    def tokens(self) -> float:
        """Tokens available as of the last :meth:`refill`."""
        return self._tokens

    def peek(self, cost: float = 1.0, reserve: float = 0.0) -> bool:
        """Whether ``cost`` tokens could be taken leaving ``reserve``."""
        return self._tokens - cost >= reserve - 1e-9

    def take(self, cost: float = 1.0) -> None:
        """Remove ``cost`` tokens (caller peeked first)."""
        self._tokens -= cost

    def deficit_time(self, cost: float = 1.0) -> float:
        """Clock units until ``cost`` tokens accumulate (0 if ready)."""
        missing = cost - self._tokens
        if missing <= 0:
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return missing / self.rate


@dataclass(frozen=True)
class TenantGrant:
    """What one auth token entitles its bearer to.

    ``models`` of None grants every model; ``min_priority`` is the best
    (numerically lowest) QoS class the tenant may request — a grant of
    ``min_priority=1`` refuses ``interactive`` submissions.
    """

    tenant: str
    models: Optional[frozenset] = None
    min_priority: int = 0

    def allows_model(self, model: str) -> bool:
        return self.models is None or model in self.models

    def allows_priority(self, priority: int) -> bool:
        return priority >= self.min_priority


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant admission policy knobs.

    ``quota_rate``/``quota_burst`` parameterize the tenant's own token
    bucket (tokens per clock unit / instantaneous burst); ``weight`` its
    slice of the fleet's fair-share admission rate.
    """

    #: "" is the untenanted pseudo-tenant: requests that carry no tenant
    #: admit against this entry when the plane has a ``default_config``
    name: str
    quota_rate: float = 1.0
    quota_burst: float = 8.0
    weight: float = 1.0

    def __post_init__(self):
        if self.quota_rate < 0 or self.quota_burst < 0:
            raise ValueError("quota rate/burst must be non-negative")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")


@dataclass
class _TenantState:
    config: TenantConfig
    quota: TokenBucket
    share: TokenBucket
    admitted: int = 0
    quota_shed: int = 0
    share_shed: int = 0
    hopeless_shed: int = 0


class ControlPlane:
    """Tenant-aware admission policy, consulted at the gateway boundary.

    One :meth:`admit` call per gateway submission, under the driver's
    serialization point.  The decision order is fixed:

    1. **hopeless deadline** — a request whose remaining budget is
       already gone is shed *first*, before it spends quota tokens or a
       queue slot (:class:`~repro.errors.DeadlineExceededError`);
    2. **authentication** — in strict mode an unknown tenant is refused
       (:class:`~repro.errors.AuthenticationError`); otherwise it is
       admitted under ``default_config`` (at most
       :data:`MAX_LAZY_TENANTS` stranger states, the last of them shared
       by every stranger past the cap — still a pure function of
       submission order);
    3. **quota** — the tenant's own token bucket
       (:class:`~repro.errors.QuotaExceededError`, ``scope="quota"``);
    4. **fair share** — the tenant's weighted slice of the fleet
       admission rate, with a per-QoS reserve so batch traffic cannot
       starve the interactive classes
       (:class:`~repro.errors.QuotaExceededError`, ``scope="fair_share"``).

    Quota and share are peeked before either is taken, so a denial never
    burns tokens from the other bucket.

    Fair-share math: the plane admits at most ``admit_rate`` requests
    per tick fleet-wide, split across tenants in proportion to their
    weights — tenant *i*'s share bucket refills at
    ``admit_rate * w_i / Σw`` and holds at most
    ``admit_burst * w_i / Σw`` tokens.  A flooder's sustained admission
    rate is therefore capped at its weight fraction regardless of how
    fast it submits, while every tick it spends flooding refills the
    other tenants' buckets.
    """

    def __init__(
        self,
        tenants: Iterable[TenantConfig],
        admit_rate: float = 1.0,
        admit_burst: float = 32.0,
        clock: Optional[Callable[[], float]] = None,
        default_config: Optional[TenantConfig] = None,
        strict: bool = False,
    ):
        configs = list(tenants)
        if not configs and default_config is None:
            raise ValueError("control plane needs at least one tenant")
        self.admit_rate = float(admit_rate)
        self.admit_burst = float(admit_burst)
        self.strict = strict
        self.default_config = default_config
        self._clock = clock  # None -> submission-tick clock
        self._tick = 0
        self._tenants: dict[str, _TenantState] = {}
        total_weight = sum(config.weight for config in configs) or 1.0
        self._total_weight = total_weight
        for config in configs:
            if config.name == OVERFLOW_TENANT:
                raise ValueError(f"{OVERFLOW_TENANT!r} is a reserved name")
            self._register(config, total_weight)
        self._registered = len(self._tenants)

    def _register(
        self, config: TenantConfig, total_weight: float
    ) -> _TenantState:
        fraction = config.weight / total_weight
        state = _TenantState(
            config=config,
            quota=TokenBucket(
                config.quota_burst, config.quota_rate, now=self._now()
            ),
            share=TokenBucket(
                max(1.0, self.admit_burst * fraction),
                self.admit_rate * fraction,
                now=self._now(),
            ),
        )
        self._tenants[config.name] = state
        return state

    def _now(self) -> float:
        return float(self._tick) if self._clock is None else self._clock()

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            if self.strict or self.default_config is None:
                raise AuthenticationError(
                    f"unknown tenant {tenant!r}"
                )
            if len(self._tenants) - self._registered >= MAX_LAZY_TENANTS - 1:
                # the stranger table is full: everyone past the cap
                # shares one state, so a peer minting tenant names
                # cannot grow the plane (or its snapshot) without bound
                tenant = OVERFLOW_TENANT
            # lazily materialize an unregistered tenant under the default
            # knobs; its weight joins the pool already priced into the
            # default's share fraction (no re-normalization — admitting a
            # stranger must not silently shrink paying tenants' shares)
            state = self._tenants.get(tenant) or self._register(
                replace(self.default_config, name=tenant), self._total_weight
            )
        return state

    def admit(
        self,
        tenant: str = "",
        priority: int = DEFAULT_PRIORITY,
        deadline_remaining: Optional[float] = None,
    ) -> str:
        """Decide one admission; returns the cause string for the ledger.

        Raises the typed denial otherwise (see the class docstring for
        the order).  Advances the submission tick exactly once per call.
        """
        self._tick += 1
        now = self._now()
        if deadline_remaining is not None and deadline_remaining <= 0:
            state = self._tenants.get(tenant)
            if state is not None:
                state.hopeless_shed += 1
            raise DeadlineExceededError(
                late_by_seconds=-deadline_remaining
            )
        state = self._state(tenant or "")
        state.quota.refill(now)
        state.share.refill(now)
        reserve = state.share.capacity * QOS_RESERVE.get(
            priority if priority >= 0 else 0,
            QOS_RESERVE[2],
        )
        if not state.quota.peek():
            state.quota_shed += 1
            raise QuotaExceededError(
                state.config.name,
                retry_after_seconds=state.quota.deficit_time(),
                scope="quota",
            )
        if not state.share.peek(reserve=reserve):
            state.share_shed += 1
            raise QuotaExceededError(
                state.config.name,
                retry_after_seconds=state.share.deficit_time(1.0 + reserve),
                scope="fair_share",
            )
        state.quota.take()
        state.share.take()
        state.admitted += 1
        return f"tenant:{state.config.name}"

    def snapshot(self) -> dict:
        """JSON-ready per-tenant admission counters."""
        return {
            "admit_rate": self.admit_rate,
            "admit_burst": self.admit_burst,
            "tick": self._tick,
            "tenants": {
                name: {
                    "weight": state.config.weight,
                    "quota_rate": state.config.quota_rate,
                    "quota_burst": state.config.quota_burst,
                    "admitted": state.admitted,
                    "quota_shed": state.quota_shed,
                    "share_shed": state.share_shed,
                    "hopeless_shed": state.hopeless_shed,
                }
                for name, state in sorted(self._tenants.items())
            },
        }


class AuthShimMiddleware(ServiceMiddleware):
    """Token-based tenant authn/authz as an interception layer.

    The auth-shim pattern: enterprise policy lives in a middleware that
    never touches the mechanism core.  Each request must carry its
    bearer token in ``request.metadata["auth_token"]``; the shim maps
    the token to a :class:`TenantGrant` (authentication), checks the
    grant covers the request's claimed tenant, model, and QoS class
    (authorization), and otherwise stays out of the way.  Stateless
    after construction, so no lock binding is needed; ``bind_lock`` is
    inherited as a no-op.
    """

    name = "auth_shim"

    def __init__(self, grants: Iterable[TenantGrant] = (), tokens=None):
        """``tokens`` maps bearer token -> :class:`TenantGrant`.

        When only ``grants`` is given, each grant's token defaults to
        ``"token-<tenant>"`` — convenient for tests and demos.
        """
        if tokens is None:
            tokens = {
                f"token-{grant.tenant}": grant for grant in grants
            }
        self._grants = dict(tokens)

    def on_request(self, request, ctx):
        token = request.metadata.get("auth_token")
        if token is None:
            raise AuthenticationError("request carries no auth_token")
        grant = self._grants.get(token)
        if grant is None:
            raise AuthenticationError("unknown auth token")
        if request.tenant != grant.tenant:
            raise AuthenticationError(
                f"token is for tenant {grant.tenant!r}, "
                f"request claims {request.tenant!r}"
            )
        if not grant.allows_model(request.workload.model):
            raise AuthorizationError(
                f"tenant {grant.tenant!r} has no grant for model "
                f"{request.workload.model!r}"
            )
        if not grant.allows_priority(request.priority):
            raise AuthorizationError(
                f"tenant {grant.tenant!r} may not submit at QoS "
                f"{qos_class(request.priority)!r} (grant floor: "
                f"{qos_class(grant.min_priority)!r})"
            )
        return None


class RateLimitMiddleware(ServiceMiddleware):
    """A wall-clock :class:`TokenBucket` in front of one service: at most
    ``burst`` requests instantly, refilled at ``rate_per_second``.
    Placed before :class:`~repro.service.middleware.CacheMiddleware` it
    meters every request that reaches the chain (cache hits included);
    placed after, only computation.  Note the engine's single-flight
    deduplication answers identical *in-flight* requests before any
    middleware runs, so piggybacked duplicates consume no tokens.
    """

    name = "rate_limit"

    def __init__(
        self,
        rate_per_second: float,
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_second <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self._clock = clock
        self._bucket = TokenBucket(burst, rate_per_second, now=clock())
        self._lock = NullLock()

    def bind_lock(self, lock_factory: LockFactory) -> None:
        if isinstance(self._lock, NullLock):
            self._lock = lock_factory()

    def on_request(self, request, ctx):
        with self._lock:
            self._bucket.refill(self._clock())
            if not self._bucket.peek():
                raise RateLimitExceededError(self._bucket.deficit_time())
            self._bucket.take()
        return None
