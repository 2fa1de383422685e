"""Durable audit/provenance ledger for policy decisions.

Every admit/shed/dedup/cache-hit/throttle/deadline/reject decision the
serving stack takes is recorded as one immutable :class:`LedgerEvent`
with its *cause*, request fingerprint, shard id, and (when a process
worker computed the answer) worker pid.  The ledger answers the two
questions the ad-hoc audit middleware could not: "what happened to
request X" (``events(fingerprint=...)``) and "did two drivers make the
same decisions" (:meth:`AuditLedger.decision_sequence`).

Durability is JSON-lines: pass ``path=`` and every event is appended as
it is recorded, and :meth:`AuditLedger.load` rebuilds a ledger from the
capture after the process is gone.

Determinism: global ``seq`` numbers are assigned in arrival order, which
is substrate-dependent (thread completions interleave with admissions).
``decision_sequence`` therefore canonicalises: it groups by shard and
layer and orders by per-request causality, under which all three drivers
produce *identical* sequences for the same seeded scenario — the
cross-driver identity tests and the telemetry benchmark assert exactly
that.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = [
    "LedgerEvent",
    "AuditLedger",
    "ADMIT",
    "SHED",
    "DEDUP",
    "CACHE_HIT",
    "COMPUTED",
    "THROTTLED",
    "DEADLINE",
    "REJECTED",
    "ERROR",
    "QUOTA",
    "AUTH",
    "RETRY",
    "BREAKER",
    "REROUTE",
    "FAULT",
    "ARTIFACT",
    "RESILIENCE_EVENTS",
]

#: Shared by every attribute-less event — never mutate.
_NO_ATTRS: dict = {}

#: Event names — the closed vocabulary of policy decisions.
ADMIT = "admit"
SHED = "shed"
DEDUP = "dedup"
CACHE_HIT = "cache_hit"
COMPUTED = "computed"
THROTTLED = "throttled"
DEADLINE = "deadline"
REJECTED = "rejected"
ERROR = "error"
#: Control-plane decisions (PR 10): a tenant's quota or fair share shed
#: the request, or the auth shim refused it — recorded at the gateway
#: layer with the deterministic gateway submission sequence as
#: ``request_id`` (quota) or at the service layer (auth middleware).
QUOTA = "quota"
AUTH = "auth"
#: Resilience-plane decisions (PR 8): recorded at the gateway layer with
#: the deterministic gateway submission sequence as ``request_id``.
RETRY = "retry"
BREAKER = "breaker"
REROUTE = "reroute"
FAULT = "fault"
#: A pipeline stage was answered by the persistent artifact store (PR 9):
#: provenance for results assembled from cross-process cached artifacts.
ARTIFACT = "artifact"

#: Every resilience-plane event: their canonical order is asserted
#: replay-deterministic — see :meth:`AuditLedger.resilience_sequence`.
RESILIENCE_EVENTS = frozenset({RETRY, BREAKER, REROUTE, FAULT})


@dataclass(slots=True)
class LedgerEvent:
    """One policy decision, with provenance.

    Treat as immutable once recorded — not declared ``frozen`` because a
    frozen dataclass pays ``object.__setattr__`` per field on every
    construction, and the ledger records on the request hot path.
    """

    seq: int
    ts: float
    event: str
    cause: str
    fingerprint: str
    request_id: int
    shard: Optional[int] = None
    worker: Optional[str] = None
    attributes: dict[str, Any] = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        """JSON-ready wire format (round-trips via :meth:`from_dict`)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "event": self.event,
            "cause": self.cause,
            "fingerprint": self.fingerprint,
            "request_id": self.request_id,
            "shard": self.shard,
            "worker": self.worker,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEvent":
        """Inverse of :meth:`as_dict` (round-trips exactly)."""
        return cls(
            seq=payload["seq"],
            ts=payload["ts"],
            event=payload["event"],
            cause=payload["cause"],
            fingerprint=payload["fingerprint"],
            request_id=payload["request_id"],
            shard=payload.get("shard"),
            worker=payload.get("worker"),
            attributes=dict(payload.get("attributes", {})),
        )

    @property
    def layer(self) -> str:
        """Which stack layer decided: ``gateway`` or ``service``."""
        return self.attributes.get("layer", "service")


class AuditLedger:
    """Append-only, thread-safe record of every policy decision.

    ``max_events`` bounds memory (oldest evicted first, like the old
    audit middleware's ring); ``path`` additionally appends each event
    to a JSON-lines file as it is recorded, making the ledger durable
    across process exit.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        path: Optional[str] = None,
        clock=time.perf_counter,
    ):
        self._lock = threading.Lock()
        self._events: deque[LedgerEvent] = deque(maxlen=max_events)
        self._clock = clock
        # itertools.count: lock-free unique seq under the GIL; the lock
        # only guards the optional file handle (see record)
        self._seqs = itertools.count(1)
        self.path = path
        self._handle = None

    def record(
        self,
        event: str,
        *,
        cause: str,
        fingerprint: str,
        request_id: int,
        shard: Optional[int] = None,
        worker: Optional[str] = None,
        attributes: Optional[dict] = None,
    ) -> LedgerEvent:
        """Append one decision; returns the sealed event.

        The ledger takes ownership of ``attributes`` (no defensive
        copy) — callers pass fresh literals on the hot path.  Events
        without attributes share one empty dict (events are
        treat-as-immutable, and a fresh dict per event is measurable GC
        pressure at request rates).
        """
        entry = LedgerEvent(
            seq=next(self._seqs),
            ts=self._clock(),
            event=event,
            cause=cause,
            fingerprint=fingerprint,
            request_id=request_id,
            shard=shard,
            worker=worker,
            attributes=attributes if attributes is not None else _NO_ATTRS,
        )
        # deque.append is GIL-atomic; only the file tail needs the lock
        self._events.append(entry)
        if self.path is not None:
            line = json.dumps(entry.as_dict(), sort_keys=True) + "\n"
            with self._lock:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(line)
        return entry

    def events(
        self,
        fingerprint: Optional[str] = None,
        event: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> list[LedgerEvent]:
        """Query the ledger, oldest-first, on any provenance axis."""
        with self._lock:
            snapshot = list(self._events)
        return [
            entry
            for entry in snapshot
            if (fingerprint is None or entry.fingerprint == fingerprint)
            and (event is None or entry.event == event)
            and (shard is None or entry.shard == shard)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def resilience_sequence(self) -> list[tuple]:
        """Canonical order of resilience-plane decisions only.

        Retry/breaker/re-route/fault events are keyed by the gateway
        submission sequence (assigned under the driver's serialization
        point), so — unlike the full ledger, whose shard-level request
        ids depend on completion interleaving once retries re-dispatch —
        this filtered sequence is identical across runs of the same
        seeded fault plan.  The determinism property test and
        ``bench_chaos`` assert on exactly this view.  Returns
        ``(event, cause, request_id, shard)`` tuples.
        """
        with self._lock:
            snapshot = list(self._events)
        ordered = sorted(
            (e for e in snapshot if e.event in RESILIENCE_EVENTS),
            key=lambda entry: (
                entry.request_id,
                entry.event,
                entry.shard if entry.shard is not None else -1,
                entry.seq,
            ),
        )
        return [
            (entry.event, entry.cause, entry.request_id, entry.shard)
            for entry in ordered
        ]

    def decision_sequence(self) -> list[tuple]:
        """The canonical, substrate-independent decision order.

        Sorted by (shard, layer, request_id, seq): within one request on
        one shard, events are causally ordered by ``seq`` (admission
        before completion); across requests the ordering is by the
        deterministic per-shard request id.  Arrival-interleaving — the
        only thing that differs between thread, asyncio, and process
        execution — is factored out, so identical policy behaviour
        yields identical sequences.  Returns
        ``(event, cause, fingerprint, shard)`` tuples.
        """
        with self._lock:
            snapshot = list(self._events)
        ordered = sorted(
            snapshot,
            key=lambda entry: (
                entry.shard if entry.shard is not None else -1,
                entry.layer,
                entry.request_id,
                entry.seq,
            ),
        )
        return [
            (entry.event, entry.cause, entry.fingerprint, entry.shard)
            for entry in ordered
        ]

    def summary(self) -> dict:
        """Event counts by name — the report's decision table."""
        with self._lock:
            snapshot = list(self._events)
        counts: dict[str, int] = {}
        for entry in snapshot:
            counts[entry.event] = counts.get(entry.event, 0) + 1
        return dict(sorted(counts.items()))

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    @classmethod
    def load(cls, path: str) -> "AuditLedger":
        """Rebuild a (read-only) ledger from a JSON-lines capture."""
        ledger = cls()
        events: list[LedgerEvent] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(LedgerEvent.from_dict(json.loads(line)))
        with ledger._lock:
            ledger._events.extend(events)
            top = max((entry.seq for entry in events), default=0)
            ledger._seqs = itertools.count(top + 1)
        return ledger

    def extend(self, events: Iterable[LedgerEvent]) -> None:
        """Bulk-append pre-sealed events (merging captures for reports)."""
        with self._lock:
            top = 0
            for entry in events:
                self._events.append(entry)
                if entry.seq > top:
                    top = entry.seq
            if top:
                self._seqs = itertools.count(top + 1)
