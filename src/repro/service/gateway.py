"""The thread-driven sharded gateway over replicated estimation services.

One :class:`~repro.service.engine.EstimationService` is a single worker
pool behind a single cache; cluster-rate traffic needs N of them.  The
:class:`ServiceGateway` fans requests across replicated service *shards*
and owns the three policies a serving tier needs:

* **Routing** (:class:`~repro.service.routing.RoutingPolicy`) — which
  shard answers a request.  The default
  :class:`~repro.service.routing.ConsistentHashRouting` keys on the
  request fingerprint, so every repeat of a workload lands on the same
  shard and per-shard caches stay hot (the whole point of sharding a
  cache).
* **Backpressure** — each shard accepts at most ``max_queue_depth``
  queued-or-running requests; beyond that the gateway *sheds*, raising
  :class:`~repro.errors.RateLimitExceededError` so callers can retry
  with the usual hint.  Validation/rate-limit rejections from the shard's
  own middleware chain pass through unchanged.
* **Lifecycle** — ``drain()`` stops intake and waits for in-flight work;
  ``close()`` drains then shuts every shard down.

All three are decided by the sans-IO
:class:`~repro.service.dispatch.GatewayDispatch` machine (over
:class:`~repro.service.core.GatewayCore`); this module adds only the
thread substrate (:class:`~repro.service.engine.ThreadSubstrate` — a
lock serializing the core's mutations, a condition variable ``drain()``
blocks on, ``concurrent.futures`` futures and ``threading.Timer``) and
the blocking ``estimate``/``drain``/``close``.  The asyncio driver
(:class:`~repro.service.aio.AsyncServiceGateway`) runs the same machine
from an event loop.

``stats()`` aggregates every shard's metrics into one fleet-level
snapshot (summed counters, recomputed hit rate, percentiles over the
union of latency samples) next to the per-shard breakdown, so dashboards
see both the fleet and its skew.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..workload import DeviceSpec, WorkloadConfig
from .control import ControlPlane
from .dispatch import GatewayDispatch
from .engine import EstimationService, ThreadSubstrate
from .faults import FaultPlan
from .resilience import ResiliencePolicy
from .routing import RoutingPolicy

__all__ = [
    "DEFAULT_MAX_QUEUE_DEPTH",
    "DEFAULT_NUM_SHARDS",
    "ServiceGateway",
    "SyncGatewayShell",
]

DEFAULT_NUM_SHARDS = 4
DEFAULT_MAX_QUEUE_DEPTH = 64


class SyncGatewayShell(GatewayDispatch):
    """The thread-substrate gateway shell, shared by the sync drivers.

    :class:`~repro.service.dispatch.GatewayDispatch` over
    :class:`~repro.service.engine.ThreadSubstrate` — identical whether
    the shards run estimation on worker threads
    (:class:`ServiceGateway`) or in a process pool (:class:`~repro.service.procpool.ProcServiceGateway`);
    only shard construction and substrate teardown differ.  Subclasses
    build their shards, then call this constructor, and override
    :meth:`_shutdown_substrate` / :meth:`_snapshot_extra` as needed.
    """

    def __init__(
        self,
        shards: Sequence,
        policy: Optional[RoutingPolicy],
        max_queue_depth: int,
        telemetry=None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        control: Optional[ControlPlane] = None,
    ) -> None:
        super().__init__(
            shards,
            policy,
            max_queue_depth,
            ThreadSubstrate(),
            telemetry=telemetry,
            resilience=resilience,
            fault_plan=fault_plan,
            control=control,
        )

    def _shutdown_substrate(self, wait: bool) -> None:
        """Tear down any substrate the subclass owns beyond the shards."""
        return None

    def estimate(self, workload: WorkloadConfig, device: DeviceSpec):
        """Blocking request — the drop-in for ``service.estimate()``."""
        return self.submit(workload, device).result()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting requests and wait for in-flight ones to finish.

        Returns True when the fleet went idle within ``timeout`` (None =
        wait forever).  Idempotent; ``submit`` raises afterwards.
        Requests parked in retry backoff are shed, not waited for.
        """
        self._begin_drain()
        idle = self._sub.idle
        with idle:
            done = idle.wait_for(self._quiescent, timeout=timeout)
            if done:
                self._sync_resilience()
            return done

    def close(self, wait: bool = True) -> None:
        """Drain (when ``wait``), shut every shard down, then release
        whatever substrate the subclass owns."""
        if wait:
            self.drain()
        with self._lock:
            self.core.draining = True
            self.core.closed = True
        for service in self._shard_services:
            service.close(wait=wait)
        self._shutdown_substrate(wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceGateway(SyncGatewayShell):
    """Routes estimation requests across N thread-driven service shards.

    Construct either from explicit ``shards`` (pre-built services, e.g.
    with custom middleware stacks) or from ``num_shards`` plus an
    ``estimator_factory`` — each shard then gets its *own* estimator
    instance and its own cache, which is what process-per-shard
    deployments will look like.

    The gateway mirrors the single-service surface (``submit`` /
    ``estimate`` / ``stats`` / context manager), so anything written
    against :class:`EstimationService` — the admission controller, the
    batch helpers' caller side — can point at a gateway unchanged.
    """

    def __init__(
        self,
        shards: Optional[Sequence[EstimationService]] = None,
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
                EstimationService(
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
            telemetry=telemetry,
            resilience=resilience,
            fault_plan=fault_plan,
            control=control,
        )
