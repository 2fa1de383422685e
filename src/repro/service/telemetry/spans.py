"""Span-style structured tracing for the serving stack.

A :class:`Span` is one named, timed operation inside one request: the
request itself (the *root* span), each middleware ``on_request`` hook,
the estimator invocation, a pipeline stage, a gateway routing decision.
Spans form a tree per *trace* (one trace = one request as the caller saw
it, gateway hops included) via ``trace_id``/``parent_id``, mirroring the
OpenTelemetry data model without the dependency: plain objects, a
:class:`Tracer` that numbers and exports them, and a JSON-ready
``as_dict``/``from_dict`` wire format that survives the same pickle
boundary as the request envelope.

Clock domains: span times come from the clock of the process that opened
the span (``time.perf_counter`` by default), so *durations* are always
meaningful while absolute values are only comparable within one process.
The process-pool driver re-bases worker-side spans onto the parent clock
when it re-attaches them (:meth:`RequestTelemetry.attach_spans`), so an
exported trace is monotone even across the pickle boundary.

Determinism: span *names and nesting* are pure functions of the policy
decisions taken for a request — the cross-driver tests assert the same
scenario yields the same :func:`canonical_trace_trees` under threads,
asyncio, and processes.  Ids and timestamps are substrate-dependent and
excluded from those comparisons.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "RequestTelemetry",
    "canonical_trace_trees",
    "stage_spans",
    "worker_estimate_spans",
]

#: Root-span name every driver uses for one service-level request.
REQUEST_SPAN = "request"
#: Span name for the estimator invocation (any substrate).
ESTIMATE_SPAN = "estimate"
#: Span-name prefix for pipeline stages (``stage:profile`` ...).
STAGE_PREFIX = "stage:"
#: Span-name prefix for middleware ``on_request`` hooks.
MIDDLEWARE_PREFIX = "middleware:"
#: Root-span name for one gateway-level request (routing + queueing).
GATEWAY_SPAN = "gateway"


@dataclass(slots=True)
class Span:
    """One named, timed operation; a node of a per-request trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds between open and close (None while still open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def shift(self, delta: float) -> None:
        """Translate this span into another clock domain (see module doc)."""
        self.start += delta
        if self.end is not None:
            self.end += delta

    def as_dict(self) -> dict:
        """JSON-ready wire format (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Inverse of :meth:`as_dict` (round-trips exactly)."""
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start=payload.get("start", 0.0),
            end=payload.get("end"),
            status=payload.get("status", "ok"),
            attributes=dict(payload.get("attributes", {})),
        )


class Tracer:
    """Opens, closes, and exports spans for one service or fleet.

    Thread-safe (the id counter and the exporter hand-off are locked), so
    one tracer can be shared by a gateway and all its shards — which is
    exactly how a fleet gets one coherent span stream.  ``exporter`` is
    any :class:`~repro.service.telemetry.exporters.SpanExporter`; spans
    are exported when they *close*.
    """

    def __init__(
        self,
        exporter=None,
        clock: Callable[[], float] = time.perf_counter,
        detail: str = "standard",
    ):
        if detail not in ("standard", "full"):
            raise ValueError(
                f"detail={detail!r}; choose 'standard' or 'full'"
            )
        if exporter is None:
            from .exporters import InMemorySpanExporter

            exporter = InMemorySpanExporter()
        self.exporter = exporter
        self.clock = clock
        #: ``standard`` traces request/estimate/gateway spans; ``full``
        #: adds a span per middleware hook.  Standard is the default
        #: because hook spans triple the span count on the hot path —
        #: the overhead benchmark gates the standard configuration.
        self.detail = detail
        # itertools.count: next() is a single bytecode under the GIL, so
        # ids stay unique across threads without a lock on the hot path
        self._ids = itertools.count(1)

    def _new_id(self) -> str:
        # zero-padded so lexicographic order == creation order
        return f"s{next(self._ids):08d}"

    def start_trace(
        self,
        trace_id: str,
        name: str = REQUEST_SPAN,
        parent_id: Optional[str] = None,
        attributes: Optional[dict] = None,
    ) -> Span:
        """Open the root span of a new trace (or join ``parent_id``).

        The tracer takes ownership of ``attributes`` (no defensive copy)
        — callers pass fresh literals on the hot path.
        """
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start=self.clock(),
            attributes=attributes if attributes is not None else {},
        )

    def start_span(
        self, name: str, parent: Span, attributes: Optional[dict] = None
    ) -> Span:
        """Open a child span of ``parent``.

        Takes ownership of ``attributes``, like :meth:`start_trace`.
        """
        return Span(
            name=name,
            trace_id=parent.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id,
            start=self.clock(),
            attributes=attributes if attributes is not None else {},
        )

    def end(self, span: Span, status: str = "ok", **attributes) -> Span:
        """Close a span (idempotent) and hand it to the exporter."""
        if span.end is not None:
            return span
        span.end = self.clock()
        span.status = status
        if attributes:
            span.attributes.update(attributes)
        self.exporter.export(span)
        return span

    def export(self, span: Span) -> None:
        """Export an already-closed span (worker-side re-attachment)."""
        self.exporter.export(span)


class RequestTelemetry:
    """The live tracing handle threaded through one request's context.

    Carried on :attr:`~repro.service.context.RequestContext.telemetry`
    (never serialized — the JSON-safe *span context* travels in the
    ``metadata`` bag instead, see :meth:`context`).  Owns the root span
    and the optional estimate span, and is the one place that knows how
    to lay pipeline-stage spans under the estimate — parent-side for the
    thread/asyncio drivers, re-attached from the worker for processes.
    """

    __slots__ = ("tracer", "root", "estimate", "stages_attached")

    def __init__(self, tracer: Tracer, root: Span):
        self.tracer = tracer
        self.root = root
        self.estimate: Optional[Span] = None
        self.stages_attached = False

    @classmethod
    def begin(
        cls,
        tracer: Tracer,
        fingerprint: str,
        request_id: int,
        parent_context: Optional[dict] = None,
    ) -> "RequestTelemetry":
        """Open the root request span, joining a caller's trace if the
        metadata bag shipped one (``{"trace_id", "span_id"}``)."""
        if parent_context:
            trace_id = parent_context["trace_id"]
            parent_id = parent_context.get("span_id")
        else:
            trace_id = f"{fingerprint[:12]}-{request_id}"
            parent_id = None
        # built in one shot (not via start_trace) — this runs on every
        # traced request, so skip the helper-call chain
        root = Span(
            name=REQUEST_SPAN,
            trace_id=trace_id,
            span_id=tracer._new_id(),
            parent_id=parent_id,
            start=tracer.clock(),
            attributes={"fingerprint": fingerprint, "request_id": request_id},
        )
        return cls(tracer, root)

    def context(self) -> dict:
        """The JSON/pickle-safe span context for the metadata bag."""
        return {"trace_id": self.root.trace_id, "span_id": self.root.span_id}

    def hook_span(
        self,
        name: str,
        started: float,
        error: Optional[BaseException] = None,
    ) -> None:
        """Export the ``middleware:<name>`` span of one ``on_request``
        hook that just returned (or raised ``error``).

        Hooks are synchronous, so the span is built in one shot at hook
        exit (one clock read + one alloc) instead of going through the
        open/close helper chain — at ``detail="full"`` these sit on
        every request and dominate the span count.
        """
        tracer = self.tracer
        span = Span(
            name=MIDDLEWARE_PREFIX + name,
            trace_id=self.root.trace_id,
            span_id=tracer._new_id(),
            parent_id=self.root.span_id,
            start=started,
            end=tracer.clock(),
        )
        if error is not None:
            span.status = "error"
            span.attributes["error"] = type(error).__name__
        tracer.exporter.export(span)

    def begin_estimate(self, **attributes) -> Span:
        """Open the estimator-invocation span (thread/asyncio drivers)."""
        self.estimate = self.tracer.start_span(
            ESTIMATE_SPAN, self.root, attributes or None
        )
        return self.estimate

    def finish_estimate(
        self, stage_seconds: Optional[dict] = None, status: str = "ok"
    ) -> None:
        """Close the estimate span and lay stage spans under it.

        No-op for requests whose estimate never ran parent-side (cache
        hits; the process driver, whose worker ships its own spans).
        """
        if self.estimate is None:
            return
        self.tracer.end(self.estimate, status=status)
        if stage_seconds and not self.stages_attached:
            for span in stage_spans(
                stage_seconds,
                trace_id=self.estimate.trace_id,
                parent_id=self.estimate.span_id,
                end=self.estimate.end,
                make_id=self.tracer._new_id,
            ):
                self.tracer.export(span)
            self.stages_attached = True

    def attach_spans(
        self, payloads: Sequence[dict], rebase_to: Optional[float] = None
    ) -> None:
        """Re-attach spans that crossed a process boundary as dicts.

        ``rebase_to`` translates the foreign clock domain so the latest
        worker timestamp lands at the given parent-clock value (the
        moment the result arrived) — durations are preserved exactly.
        """
        spans = [Span.from_dict(payload) for payload in payloads]
        if rebase_to is not None and spans:
            latest = max(
                span.end if span.end is not None else span.start
                for span in spans
            )
            delta = rebase_to - latest
            for span in spans:
                span.shift(delta)
        for span in spans:
            self.tracer.export(span)
        self.stages_attached = True

    def close(self, status: str = "ok", **attributes) -> None:
        """Close the root span (idempotent — first outcome wins)."""
        self.tracer.end(self.root, status=status, **attributes)


def stage_spans(
    stage_seconds: dict,
    trace_id: str,
    parent_id: str,
    end: float,
    make_id: Callable[[], str],
) -> list[Span]:
    """Pipeline-stage spans laid back-to-back, ending at ``end``.

    Staged estimators report per-stage wall-clock as bare floats
    (:attr:`~repro.core.result.EstimationResult.stage_seconds`); this
    reconstructs contiguous child spans from those durations so every
    driver — and the process-pool worker — produces the same
    ``stage:<name>`` children under the estimate span.
    """
    total = sum(stage_seconds.values())
    cursor = end - total
    spans = []
    for stage, seconds in stage_seconds.items():
        spans.append(
            Span(
                name=f"{STAGE_PREFIX}{stage}",
                trace_id=trace_id,
                span_id=make_id(),
                parent_id=parent_id,
                start=cursor,
                end=cursor + seconds,
                attributes={"seconds": seconds},
            )
        )
        cursor += seconds
    return spans


def worker_estimate_spans(
    span_context: dict,
    worker_pid: Optional[int],
    start: float,
    end: float,
    stage_seconds: Optional[dict] = None,
) -> list[Span]:
    """The estimate span (+ stage children) built *inside* a pool worker.

    Ids are namespaced by PID so two workers can never collide within a
    trace; the parent re-bases the clock domain on re-attachment.
    """
    counter = iter(range(10_000))

    def make_id() -> str:
        return f"w{worker_pid}-{next(counter):04d}"

    estimate = Span(
        name=ESTIMATE_SPAN,
        trace_id=span_context["trace_id"],
        span_id=make_id(),
        parent_id=span_context.get("span_id"),
        start=start,
        end=end,
        attributes={"worker": str(worker_pid)},
    )
    spans = [estimate]
    if stage_seconds:
        spans.extend(
            stage_spans(
                stage_seconds,
                trace_id=estimate.trace_id,
                parent_id=estimate.span_id,
                end=end,
                make_id=make_id,
            )
        )
    return spans


def canonical_trace_trees(spans: Sequence[Span]) -> list[tuple]:
    """Name-only nesting of every trace, in deterministic order.

    Returns one ``(name, (children...))`` tuple per trace root, traces
    sorted by ``trace_id`` and siblings by start time — the form the
    cross-driver tests compare, because names and nesting are policy
    decisions while ids and timestamps are substrate accidents.
    """
    by_parent: dict[tuple[str, Optional[str]], list[Span]] = {}
    ids = {(span.trace_id, span.span_id) for span in spans}
    for span in spans:
        parent = span.parent_id
        if parent is not None and (span.trace_id, parent) not in ids:
            parent = None  # orphan (parent not exported): treat as root
        by_parent.setdefault((span.trace_id, parent), []).append(span)

    def subtree(span: Span) -> tuple:
        children = sorted(
            by_parent.get((span.trace_id, span.span_id), ()),
            key=lambda child: (child.start, child.span_id),
        )
        return (span.name, tuple(subtree(child) for child in children))

    roots = sorted(
        (
            span
            for span in spans
            if span.parent_id is None
            or (span.trace_id, span.parent_id) not in ids
        ),
        key=lambda span: (span.trace_id, span.start, span.span_id),
    )
    return [subtree(root) for root in roots]
