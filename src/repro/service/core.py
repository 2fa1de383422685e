"""The sans-IO gateway core, and the estimator call every substrate makes.

:class:`GatewayCore` is what a sharded gateway *is*, as counters and
decisions: which shard a fingerprint routes to, whether a shard may take
one more request or must shed, when the fleet is idle — plain method
calls with no threads, no event loop and no blocking.
:class:`~repro.service.dispatch.GatewayDispatch` owns *when* they run;
its mutating methods (``admit`` / ``settle`` / ``count_request`` /
lifecycle flags) must run under the driver's serialization — a lock for
the thread drivers, the event loop itself for asyncio.

Beside it: :func:`invoke_estimator`, the one CPU-bound step (run on a
worker thread, an executor, or inside a procpool worker process), and
:func:`aggregate_shard_stats`, the fleet fold of per-shard ``stats()``.
One service's request lifecycle — fingerprint, hooks, single-flight,
how an outcome is observed — is
:class:`~repro.service.dispatch.ServiceDispatch`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import (
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from .context import ServiceRequest
from .control import DEFAULT_PRIORITY, ControlPlane
from .faults import apply_fault_directive
from .metrics import latency_histogram, percentile
from .routing import RoutingPolicy


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
