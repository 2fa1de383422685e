"""Deterministic, seeded fault-injection plane (chaos as data).

Resilience code that is only exercised by real outages is untested code.
This module makes failure *schedulable*: a :class:`FaultPlan` is an
immutable table of :class:`FaultSpec` entries keyed by the global
request-submission index, and a :class:`FaultInjector` walks that table
as the gateway admits traffic.  Because the plan is pure data derived
from a seed, every chaos run is exactly reproducible — the property the
determinism tests and :mod:`benchmarks.bench_chaos` assert.

The plane is sans-IO like the rest of the stack: the injector only
*decides* (``next_index`` + ``directive_for``); each substrate *applies*
the decision where its failure mode physically lives:

``estimator_error`` / ``latency_spike`` / ``shard_blackout``
    Stamped into ``request.metadata["fault"]`` by the gateway and applied
    inside :func:`repro.service.core.invoke_estimator` — the one
    estimator-invocation point shared by all drivers, including the
    procpool worker processes (the directive rides the pickled metadata
    bag across the process boundary).
``worker_kill``
    Applied in the procpool worker before estimation (``os._exit``); on
    substrates without killable workers it degrades to an
    :class:`~repro.errors.InjectedFaultError`.
``connection_drop``
    Applied by the TCP server's :class:`~repro.service.wire.ServerProtocol`,
    which consumes the planned index (``gateway.take_connection_drop()``)
    *before* the request reaches the gateway and has its shell abort
    the connection; on in-process substrates there is no
    connection to drop, so the directive is a planned no-op (the index is
    still consumed, keeping plans aligned across drivers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import InjectedFaultError, ShardBlackoutError

__all__ = [
    "CHAOS_SCENARIOS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "apply_fault_directive",
    "chaos_plan",
]

#: Fault vocabulary.  Point faults hit one submission index; window
#: faults (``shard_blackout``) cover ``[start, stop)`` on one shard.
FAULT_KINDS = (
    "estimator_error",
    "latency_spike",
    "shard_blackout",
    "worker_kill",
    "connection_drop",
)

#: Chaos scenario catalog (``loadtest --chaos``): each name maps to a
#: seeded :class:`FaultPlan` shape (:func:`chaos_plan`) — traffic says
#: *what* arrives, chaos says *what breaks* while it does.
CHAOS_SCENARIOS = (
    "shard-kill",
    "worker-massacre",
    "flapping-network",
    "latency-storm",
)

_POINT_KINDS = frozenset(
    {"estimator_error", "latency_spike", "worker_kill", "connection_drop"}
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Point faults set ``index``; ``shard_blackout`` sets the half-open
    submission-index window ``[start, stop)`` plus the target ``shard``.
    """

    kind: str
    index: Optional[int] = None
    start: Optional[int] = None
    stop: Optional[int] = None
    shard: Optional[int] = None
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.kind in _POINT_KINDS:
            if self.index is None or self.index < 0:
                raise ValueError(f"{self.kind} needs a submission index >= 0")
        else:  # shard_blackout
            if self.start is None or self.stop is None or self.shard is None:
                raise ValueError("shard_blackout needs start, stop and shard")
            if not 0 <= self.start < self.stop:
                raise ValueError("blackout window must satisfy 0 <= start < stop")
        if self.kind == "latency_spike" and self.latency_seconds <= 0.0:
            raise ValueError("latency_spike needs latency_seconds > 0")

    def as_dict(self) -> dict:
        payload: dict = {"kind": self.kind}
        for key in ("index", "start", "stop", "shard"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.latency_seconds:
            payload["latency_seconds"] = self.latency_seconds
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(
            kind=payload["kind"],
            index=payload.get("index"),
            start=payload.get("start"),
            stop=payload.get("stop"),
            shard=payload.get("shard"),
            latency_seconds=payload.get("latency_seconds", 0.0),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Immutable fault schedule over the global submission-index stream.

    Pure data, cheap to hash/compare, JSON round-trippable, and — when
    built via :meth:`seeded` — fully determined by the seed.  Lookups
    are O(1) per request via the precomputed point-fault table.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    #: index -> point spec (built in __post_init__; later specs win)
    _points: dict = field(default_factory=dict, repr=False, compare=False)
    _blackouts: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        points: dict[int, FaultSpec] = {}
        blackouts = []
        for spec in self.specs:
            if spec.kind in _POINT_KINDS:
                points[spec.index] = spec
            else:
                blackouts.append(spec)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_blackouts", tuple(blackouts))

    def __len__(self) -> int:
        return len(self.specs)

    def directive_for(self, index: int, shard: int) -> Optional[dict]:
        """The fault directive for submission ``index`` landing on ``shard``.

        Blackout windows dominate point faults: a shard that is down is
        down regardless of what else was planned for the request.  The
        returned dict is JSON/pickle-safe — it travels in the request
        metadata bag across any substrate.
        """
        for spec in self._blackouts:
            if spec.shard == shard and spec.start <= index < spec.stop:
                return {"kind": "shard_blackout", "shard": shard}
        spec = self._points.get(index)
        if spec is None or spec.kind == "connection_drop":
            # connection drops are consumed at the transport layer, never
            # inside a dispatched request
            return None
        if spec.shard is not None and spec.shard != shard:
            return None
        directive: dict = {"kind": spec.kind}
        if spec.latency_seconds:
            directive["latency_seconds"] = spec.latency_seconds
        return directive

    def window_directive(self, index: int, shard: int) -> Optional[dict]:
        """Only the *window* faults (blackouts) covering this dispatch.

        Retries consult this instead of :meth:`directive_for`:
        point faults are one-shot (they fired at first dispatch and do
        not chase the request across attempts), but a blackout window is
        a property of the destination shard — a retry routed back into
        it still fails.
        """
        for spec in self._blackouts:
            if spec.shard == shard and spec.start <= index < spec.stop:
                return {"kind": "shard_blackout", "shard": shard}
        return None

    def is_connection_drop(self, index: int) -> bool:
        spec = self._points.get(index)
        return spec is not None and spec.kind == "connection_drop"

    def blackout_windows(self) -> tuple[FaultSpec, ...]:
        return self._blackouts

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec.from_dict(item) for item in payload.get("specs", ())
            ),
            seed=payload.get("seed", 0),
        )

    @classmethod
    def from_specs(
        cls, specs: Iterable[FaultSpec], seed: int = 0
    ) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_requests: int,
        num_shards: int,
        *,
        error_rate: float = 0.02,
        latency_rate: float = 0.02,
        latency_seconds: float = 0.02,
        worker_kills: int = 0,
        connection_drops: int = 0,
        blackouts: int = 0,
        blackout_span: int = 0,
    ) -> "FaultPlan":
        """Generate a reproducible plan from a seed.

        Point faults are drawn per-index with the given rates; blackout
        windows are placed at seeded offsets.  Two calls with the same
        arguments yield identical plans on every platform (only
        ``random.Random`` — never OS entropy — is consulted).
        """
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for index in range(num_requests):
            roll = rng.random()
            if roll < error_rate:
                specs.append(FaultSpec(kind="estimator_error", index=index))
            elif roll < error_rate + latency_rate:
                specs.append(
                    FaultSpec(
                        kind="latency_spike",
                        index=index,
                        latency_seconds=latency_seconds,
                    )
                )
        taken = {spec.index for spec in specs}
        free = [i for i in range(num_requests) if i not in taken]
        rng.shuffle(free)
        for _ in range(worker_kills):
            if not free:
                break
            specs.append(FaultSpec(kind="worker_kill", index=free.pop()))
        for _ in range(connection_drops):
            if not free:
                break
            specs.append(FaultSpec(kind="connection_drop", index=free.pop()))
        span = blackout_span or max(1, num_requests // 4)
        for _ in range(blackouts):
            if num_requests <= span:
                start = 0
            else:
                start = rng.randrange(0, num_requests - span)
            specs.append(
                FaultSpec(
                    kind="shard_blackout",
                    start=start,
                    stop=start + span,
                    shard=rng.randrange(num_shards),
                )
            )
        specs.sort(key=lambda s: (s.kind, s.index or 0, s.start or 0))
        return cls(specs=tuple(specs), seed=seed)


def chaos_plan(
    scenario: str,
    num_requests: int,
    num_shards: int,
    seed: int = 0,
) -> FaultPlan:
    """Materialize one named chaos scenario into a seeded fault plan.

    Deterministic in its arguments, like
    :func:`~repro.service.traffic.generate_traffic` — a (traffic seed,
    chaos seed) pair pins an entire chaos run, which is what lets
    ``bench_chaos`` replay a blackout twice and demand identical
    resilience decisions.

    * ``shard-kill`` — one seeded shard goes dark for the middle half of
      the request stream (the breaker/re-route drill).
    * ``worker-massacre`` — scattered ``worker_kill`` faults; real
      worker deaths on the procpool driver, injected estimator failures
      (and gateway retries) elsewhere.
    * ``flapping-network`` — scattered connection drops plus a trickle
      of estimator errors; drops are real RSTs on the TCP driver and
      planned no-ops in-process, so plan indices stay aligned.
    * ``latency-storm`` — a third of requests eat a latency spike; no
      errors at all (the deadline drill, not the retry drill).
    """
    if scenario not in CHAOS_SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; "
            f"choose from {CHAOS_SCENARIOS}"
        )
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if scenario == "shard-kill":
        rng = random.Random(seed)
        span = max(1, num_requests // 2)
        start = num_requests // 4
        return FaultPlan.from_specs(
            [
                FaultSpec(
                    kind="shard_blackout",
                    start=start,
                    stop=start + span,
                    shard=rng.randrange(num_shards),
                )
            ],
            seed=seed,
        )
    if scenario == "worker-massacre":
        return FaultPlan.seeded(
            seed,
            num_requests,
            num_shards,
            error_rate=0.0,
            latency_rate=0.0,
            worker_kills=max(1, num_requests // 16),
        )
    if scenario == "flapping-network":
        return FaultPlan.seeded(
            seed,
            num_requests,
            num_shards,
            error_rate=0.01,
            latency_rate=0.0,
            connection_drops=max(1, num_requests // 12),
        )
    # latency-storm
    return FaultPlan.seeded(
        seed,
        num_requests,
        num_shards,
        error_rate=0.0,
        latency_rate=0.34,
        latency_seconds=0.01,
    )


class FaultInjector:
    """Walks a :class:`FaultPlan` as traffic arrives; owns the index.

    One injector serves one gateway run.  ``next_index`` must be called
    under whatever already serializes request admission (the gateway
    lock, the event loop) — the injector adds no locking of its own, in
    keeping with the sans-IO discipline.  ``counts`` tallies what
    actually fired, for chaos reports.
    """

    __slots__ = ("plan", "counts", "_cursor")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counts: dict[str, int] = {}
        self._cursor = 0

    @property
    def cursor(self) -> int:
        return self._cursor

    def next_index(self) -> int:
        """Consume and return the next global submission index."""
        index = self._cursor
        self._cursor += 1
        return index

    def directive_for(self, index: int, shard: int) -> Optional[dict]:
        directive = self.plan.directive_for(index, shard)
        if directive is not None:
            self.counts[directive["kind"]] = (
                self.counts.get(directive["kind"], 0) + 1
            )
        return directive

    def peek_window(self, index: int, shard: int) -> Optional[dict]:
        """Blackout coverage of a retry destination (no counting).

        Point faults are one-shot and already counted at first dispatch;
        only window faults follow the request across attempts.
        """
        if index is None:
            return None
        return self.plan.window_directive(index, shard)

    def take_connection_drop(self) -> bool:
        """Consume the next index iff it is a planned connection drop.

        Called (through ``GatewayDispatch.take_connection_drop``) by
        the TCP server's protocol *before* handing a request to the
        gateway, so dropped requests still consume exactly one plan
        index — keeping index streams aligned with in-process drivers,
        where the gateway consumes the same index as a no-op.
        """
        if self.plan.is_connection_drop(self._cursor):
            self._cursor += 1
            self.counts["connection_drop"] = (
                self.counts.get("connection_drop", 0) + 1
            )
            return True
        return False

    def snapshot(self) -> dict:
        return {
            "seed": self.plan.seed,
            "planned": len(self.plan),
            "cursor": self._cursor,
            "injected": dict(sorted(self.counts.items())),
        }


def apply_fault_directive(directive: Optional[dict]) -> None:
    """Apply an in-request fault directive at the estimator boundary.

    Called from :func:`repro.service.core.invoke_estimator` on every
    substrate (including inside procpool workers).  ``latency_spike``
    sleeps then proceeds; error kinds raise; transport-level kinds that
    slipped through are ignored.
    """
    if not directive:
        return
    kind = directive.get("kind")
    if kind == "latency_spike":
        import time

        time.sleep(float(directive.get("latency_seconds", 0.0)))
    elif kind == "shard_blackout":
        raise ShardBlackoutError(int(directive.get("shard", -1)))
    elif kind in ("estimator_error", "worker_kill"):
        # worker_kill only reaches here on substrates without killable
        # workers; it degrades to a plain injected estimator failure
        raise InjectedFaultError(kind)
