"""Observability for the serving stack: spans, ledger, reporting.

Three cooperating pieces, all stdlib-only:

- **Tracing** (:mod:`.spans`, :mod:`.exporters`) — every request yields
  a tree of named, timed spans (middleware hooks, estimator invocation,
  pipeline stages, gateway routing) exported through an
  OpenTelemetry-flavored :class:`~.exporters.SpanExporter`.
- **Audit ledger** (:mod:`.ledger`) — every policy decision
  (admit/shed/dedup/cache-hit/throttle/deadline) is recorded durably
  with its cause and provenance, queryable after the fact.
- **Reporting** (:mod:`.report`) — renders latency histograms,
  shard-heat tables, ledger summaries, and CI benchmark trends.

:class:`Telemetry` bundles one tracer + one ledger for handing to a
service or gateway: pass paths to capture durably, nothing to keep
everything in memory, and leave drivers telemetry-free (the default)
for zero overhead.

The package exports :class:`Telemetry` only; every other name is
imported from the module that defines it (``.spans``, ``.exporters``,
``.ledger``, ``.report``).
"""

from __future__ import annotations

from typing import Optional

from .exporters import (
    InMemorySpanExporter,
    JsonLinesSpanExporter,
    SpanExporter,
)
from .ledger import AuditLedger
from .spans import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """One tracer + one ledger, ready to hand to a service or gateway.

    The default captures both in memory (tests, reports); pass
    ``spans_path`` / ``ledger_path`` for durable JSON-lines capture.
    A single instance is safely shared by a gateway and all its shards —
    both primitives are thread-safe — which is what makes fleet-wide
    traces and a fleet-wide decision ledger possible.
    """

    def __init__(
        self,
        spans_path: Optional[str] = None,
        ledger_path: Optional[str] = None,
        exporter: Optional[SpanExporter] = None,
        max_ledger_events: Optional[int] = None,
        detail: str = "standard",
    ):
        """``detail="full"`` adds a span per middleware hook (see
        :class:`~.spans.Tracer`); the ``standard`` default keeps the
        per-request span count at the level the overhead gate covers."""
        if exporter is None:
            exporter = (
                JsonLinesSpanExporter(spans_path)
                if spans_path
                else InMemorySpanExporter()
            )
        self.exporter = exporter
        self.tracer = Tracer(exporter, detail=detail)
        self.ledger = AuditLedger(
            max_events=max_ledger_events, path=ledger_path
        )

    def spans(self):
        """In-memory spans, when the exporter keeps them (else [])."""
        return getattr(self.exporter, "spans", [])

    def close(self) -> None:
        """Flush and close any file-backed capture (idempotent)."""
        self.exporter.shutdown()
        self.ledger.close()
