"""Framed wire codec and the two connection protocols (sans-IO).

The byte-level contract of the TCP transport (:mod:`repro.service.tcp`)
— and of any future transport that ships the envelope between hosts.
Like the rest of the policy core this module is sans-IO: it converts
between bytes and messages and never touches a socket; the transport
owns reading, writing, and connection lifecycle.

Frame format (see docs/wire.md for the full spec)::

    +----------------------+----------------------------+
    | 4-byte big-endian    | UTF-8 JSON object,         |
    | unsigned body length | exactly `length` bytes     |
    +----------------------+----------------------------+

Strictness is the point: a frame longer than ``max_frame_bytes``, a
zero-length frame, a body that is not valid UTF-8 JSON (``NaN`` and the
infinities are not JSON), or a body that is not a JSON *object* all
raise :class:`WireProtocolError` — the transport answers with a
protocol-error frame and closes the connection rather than guessing.
:class:`FrameDecoder` handles the TCP reality that frames arrive split
and coalesced arbitrarily: feed it whatever ``recv`` returned and it
yields exactly the completed messages — those ahead of a violation
included, on the error it raises.

What travels inside frames:

* **request messages** — an ``op`` from :data:`OPS` plus op-specific
  fields, validated by :func:`validate_request_message` (unknown ops
  are rejected);
* **responses** — ``{"id": ..., "ok": true, ...}`` payloads or
  ``{"id": ..., "ok": false, "error": {...}}`` built by
  :func:`ok_response` / :func:`error_response`;
* **results** — :class:`~repro.core.result.EstimationResult` via
  :func:`result_to_wire` / :func:`result_from_wire`.  Memory-usage
  curves are *not* transported (a curve is a large diagnostic artifact;
  serving-tier estimators run ``curve=False``) — everything else,
  including the ``compare=False`` stage diagnostics, round-trips
  exactly;
* **errors** — the service exception taxonomy via
  :func:`error_to_wire` / :func:`error_from_wire`, so a client-side
  replay classifies remote rejections/sheds/deadline misses exactly
  like local ones.

Both sides of a connection are written here too, once each.
:class:`ClientProtocol` owns everything a client decides — message ids,
the pending table, the frame of every op, which response settles which
future with what, and when the connection counts as lost — as bytes in,
frames and settled futures out.  :class:`ServerProtocol` owns everything
the server decides — which op does what, which error ends the connection
and which only the request, the deadline rebase, when a planned
connection drop is consumed, how an ``estimate_many`` answer is
assembled — as bytes in, four effects out (*write these bytes*, *close
once what is outstanding has been answered*, *abort now*, *run the
gateway's drain*).  The classes in :mod:`repro.service.tcp` are shells
around them that own a socket and the thread, task or loop that reads
it; the frame format is known to this module only.  Time never crosses
the wire as an
absolute stamp: a deadline travels as *remaining budget* and
:class:`ServerProtocol` rebases it onto the server's clock.

Each distinct frame costs one codec pass.  A canonical body is a fixed
*head*, the message id, and a *rest* whose meaning does not depend on
the id.  So a client's estimate request with no deadline and no
metadata, and a server's answer with a result object it has answered
before, are spliced from head, id and a memoised rest.  A server's
estimate request with ``deadline_remaining: null`` and no metadata, and
a client's ``ok`` estimate answer, are looked up by their rest: a hit
skips the JSON decoder, the schema check and ``from_dict``.  A rest is
learned on its second sighting, and only from a body whose id is in
canonical spelling and which re-encodes to itself, so a hit is exactly
what the strict decoder returns.  Errors are never memoised.  Each
table holds at most :data:`MEMO_ENTRIES` entries; a client has its own,
and the connections of one server share the server's.  A memoised
:class:`~repro.core.result.EstimationResult` is one object shared by
every future it settles, as the in-process gateways share cached
results.
"""

from __future__ import annotations

import json
import struct
import weakref
from functools import lru_cache, partial
from typing import Any, Callable, ContextManager, Optional, Sequence

from ..core.result import EstimationResult
from ..errors import (
    AuthenticationError,
    AuthorizationError,
    ConnectionLostError,
    DeadlineExceededError,
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
    ServiceError,
)
from ..workload import DeviceSpec, WorkloadConfig
from .cache import DEFAULT_MAX_ENTRIES

__all__ = [
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MEMO_ENTRIES",
    "OPS",
    "ClientProtocol",
    "FrameDecoder",
    "RemoteServiceError",
    "ServerProtocol",
    "WireProtocolError",
    "encode_frame",
    "error_from_wire",
    "error_response",
    "error_to_wire",
    "ok_response",
    "result_from_wire",
    "result_to_wire",
    "validate_request_message",
]

#: Frame header: 4-byte big-endian unsigned body length.
_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: Default ceiling on one frame's JSON body.  Generous for any envelope
#: (requests are a few hundred bytes, results a few KiB) while bounding
#: what a hostile peer can make the server buffer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Bound of every memo table of the wire: as many distinct frames as a
#: default :class:`~.cache.EstimateCache` keeps answers.
MEMO_ENTRIES = DEFAULT_MAX_ENTRIES

#: The closed vocabulary of request operations.
OP_PING = "ping"
OP_ESTIMATE = "estimate"
OP_ESTIMATE_MANY = "estimate_many"
OP_STATS = "stats"
OP_DRAIN = "drain"
OPS = (OP_PING, OP_ESTIMATE, OP_ESTIMATE_MANY, OP_STATS, OP_DRAIN)

#: Wire error codes — the response-side taxonomy.
ERROR_REJECTED = "rejected"
ERROR_RATE_LIMITED = "rate_limited"
ERROR_QUOTA = "quota_exceeded"
ERROR_AUTH = "auth"
ERROR_DEADLINE = "deadline"
ERROR_CLOSED = "closed"
ERROR_PROTOCOL = "protocol"
ERROR_INTERNAL = "internal"


class WireProtocolError(ServiceError):
    """A peer violated the framing or message schema.

    Transports treat this as fatal for the connection: answer with a
    protocol-error frame when the socket still works, then close.
    """

    #: the messages :meth:`FrameDecoder.feed` had completed, from the same
    #: bytes, before the violation: they are not lost with it
    completed: Sequence[dict] = ()


class RemoteServiceError(ServiceError):
    """A server-side failure with no more specific local exception type.

    ``remote_type`` preserves the server's exception class name so logs
    on the client side still say what actually went wrong over there.
    """

    def __init__(self, message: str, remote_type: str = "Exception"):
        self.remote_type = remote_type
        super().__init__(message)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


#: built once — ``json.dumps`` with these options builds one per call
_CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
)


def encode_frame(
    payload: dict, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """One wire frame: length prefix + canonical JSON body.

    Canonical means sorted keys and minimal separators, so identical
    messages are identical bytes — which is what lets the benchmarks
    assert byte-level identity across transports.  ``allow_nan=False``:
    NaN/Infinity are not JSON, and a strict decoder on the other side
    would (rightly) drop the connection.
    """
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"frame payload must be a dict, got {type(payload).__name__}"
        )
    try:
        body = _CANONICAL_JSON.encode(payload).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireProtocolError(
            f"payload is not JSON-encodable: {error}"
        ) from error
    return _framed(body, max_frame_bytes)


def _framed(body: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    if len(body) > max_frame_bytes:
        raise WireProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def _reject_constant(name: str) -> None:
    raise ValueError(f"the constant {name} is not JSON")


#: ``json.loads`` would let ``NaN`` / ``Infinity`` / ``-Infinity`` through;
#: built once — passing ``parse_constant`` per frame builds one per call
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


class FrameDecoder:
    """Incremental frame reassembler for a TCP byte stream.

    Feed it every chunk the socket yields; it buffers partial frames and
    returns each completed message exactly once, in order.  Any protocol
    violation — oversized or zero-length header, non-JSON body (``NaN``
    and the infinities included), non-object body — raises
    :class:`WireProtocolError`, which carries as ``completed`` the
    messages decoded before it, so what a peer gets to say ahead of a
    bad frame does not depend on how TCP chunked the two.  The decoder
    is then poisoned and the connection must be closed (there is no way
    to resynchronize a length-prefixed stream after a bad header).
    :meth:`bodies` reassembles without decoding: the protocols decode a
    body only when their memo does not know it.
    """

    __slots__ = ("max_frame_bytes", "_buffer")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every message it completed."""
        bodies, failure = self.bodies(data)
        messages: list[dict] = []
        try:
            for body in bodies:
                messages.append(_decode_body(body))
        except WireProtocolError as error:
            failure = error
        if failure is not None:
            failure.completed = messages
            raise failure
        return messages

    def bodies(self, data: bytes) -> tuple[list, Optional[Exception]]:
        """Absorb ``data``; return the body of every frame it completed,
        not yet decoded, and — returned, not raised — the violation of
        the framing that followed them, if one did.  Both protocols act
        on the bodies before they fail the connection for the
        violation."""
        self._buffer.extend(data)
        bodies: list[bytes] = []
        try:
            while (body := self._next_body()) is not None:
                bodies.append(body)
        except WireProtocolError as error:
            return bodies, error
        return bodies, None

    def _next_body(self) -> Optional[bytes]:
        if len(self._buffer) < HEADER_BYTES:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length == 0:
            raise WireProtocolError("zero-length frame")
        if length > self.max_frame_bytes:
            raise WireProtocolError(
                f"frame header announces {length} bytes, over the "
                f"{self.max_frame_bytes}-byte limit"
            )
        end = HEADER_BYTES + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[HEADER_BYTES:end])
        del self._buffer[:end]
        return body


def _decode_body(body: bytes) -> dict:
    """The strict decode of one frame body: a JSON object, or
    :class:`WireProtocolError`."""
    try:
        message = _STRICT_JSON.decode(body.decode("utf-8"))
    # bad UTF-8, bad JSON or a constant; or nested deeper than the
    # decoder recurses
    except (RecursionError, ValueError) as error:
        raise WireProtocolError(
            f"frame body is not valid JSON: {error}"
        ) from error
    if not isinstance(message, dict):
        raise WireProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# memo: one codec pass per distinct frame
# ----------------------------------------------------------------------


#: what every memoised body starts with, up to its id
_REQUEST_HEAD = b'{"deadline_remaining":null,"id":'
_RESPONSE_HEAD = b'{"id":'


def _splice(head: bytes, msg_id: int, rest: bytes) -> bytes:
    """The frame of the body ``head`` + ``msg_id`` + ``rest``."""
    return _framed(b"%s%d%s" % (head, msg_id, rest))


def _remember(table: dict, key: Any, value: Any) -> None:
    """Insert into a memo table; past :data:`MEMO_ENTRIES` the oldest
    entry goes."""
    if len(table) >= MEMO_ENTRIES:
        del table[next(iter(table))]
    table[key] = value


class _Memo:
    """What keys mean, learned on their second sighting.  The bodies
    that start with ``head`` are keyed by the bytes after their id,
    which mean the same whatever the id; the server's answers, by the
    id of their result object."""

    def __init__(self, head: bytes = b""):
        self._head = head
        self.meanings: dict[Any, Any] = {}
        #: hashes of the keys sighted once and not learned since: a key
        #: seen once pins nothing (a collision only learns a key early)
        self._seen: dict[int, bool] = {}

    def sighted_before(self, key: Any) -> bool:
        """Note a sighting of ``key``; True at the second, which spends
        the note."""
        if self._seen.pop(hash(key), False):
            return True
        _remember(self._seen, hash(key), True)
        return False

    def recall(self, body: bytes) -> tuple[Optional[tuple[int, bytes]], Any]:
        """``(id, rest)`` of a body that starts with the head and an id
        in canonical spelling (else None), and what the rest was learned
        to mean (else None)."""
        start = len(self._head)
        end = body.find(b",", start)
        digits = body[start:end]
        # an id in canonical spelling: digits without a leading zero, and
        # at most 18 of them — far fewer than ``int`` refuses to parse
        canonical = digits.isdigit() and (digits[0] != 48 or end == start + 1)
        if not (canonical and end - start <= 18 and body.startswith(self._head)):
            return None, None
        rest = body[end:]
        return (int(digits), rest), self.meanings.get(rest)

    def second_sighting(self, split, message: dict) -> bool:
        """Note the sighting of a body, strictly decoded to ``message``,
        whose id is the one spelled; True at its second."""
        return split is not None and message.get("id") == split[0] and self.sighted_before(split[1])

    def learn(self, split, body: bytes, message: dict, meaning: Any) -> None:
        """``body``, strictly decoded to ``message`` and sighted a second
        time, means ``meaning``.  Its rest is learned if the body
        re-encodes to itself: then the same rest after any id decodes
        the same."""
        try:
            if _CANONICAL_JSON.encode(message).encode("utf-8") == body:
                _remember(self.meanings, split[1], meaning)
        # a number the decoder read as an infinity (``1e400``) is no JSON
        except (RecursionError, TypeError, ValueError):
            pass


# ----------------------------------------------------------------------
# request messages
# ----------------------------------------------------------------------


def _require(message: dict, field: str, kinds: tuple, op: str) -> Any:
    value = message.get(field)
    if not isinstance(value, kinds):
        raise WireProtocolError(
            f"op {op!r} needs {field!r} of type "
            f"{'/'.join(k.__name__ for k in kinds)}, got "
            f"{type(value).__name__}"
        )
    return value


#: the types of a number of seconds or null (not ``bool``, an int
#: subclass: ``true`` is no number of seconds), and the field of each op
#: that holds one
_SECONDS_OR_NULL = (int, float, type(None))
_SECONDS_FIELDS = {OP_ESTIMATE: "deadline_remaining", OP_DRAIN: "timeout"}


def _message_id(message: dict, sender: str) -> int:
    """A frame's ``id``; :class:`WireProtocolError` unless it is an
    integer (a boolean, though an ``int`` to Python, is not), the one
    rule both ends of a connection apply."""
    if type(message.get("id")) is not int:
        raise WireProtocolError(f"{sender} needs an integer 'id'")
    return message["id"]


def validate_request_message(message: dict) -> tuple[str, int]:
    """Schema-check one client→server message; returns ``(op, id)``.

    Raises :class:`WireProtocolError` for an unknown op, a missing or
    non-integer ``id``, or op-specific fields of the wrong shape — all
    fatal for the connection, matching the strict-decode contract.
    """
    op = message.get("op")
    if op not in OPS:
        raise WireProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    msg_id = _message_id(message, f"op {op!r}")
    if op == OP_ESTIMATE:
        _require(message, "request", (dict,), op)
    elif op == OP_ESTIMATE_MANY:
        requests = _require(message, "requests", (list,), op)
        for index, item in enumerate(requests):
            if not isinstance(item, dict):
                raise WireProtocolError(
                    f"op {op!r} request #{index} must be an object, "
                    f"got {type(item).__name__}"
                )
    seconds = _SECONDS_FIELDS.get(op)
    if seconds and type(message.get(seconds)) not in _SECONDS_OR_NULL:
        raise WireProtocolError(f"{seconds!r} must be a number or null")
    return op, msg_id


def ok_response(msg_id: int, **fields: Any) -> dict:
    """A success response frame payload."""
    return {"id": msg_id, "ok": True, **fields}


def error_response(msg_id: Optional[int], error: BaseException) -> dict:
    """A failure response frame payload (``id`` None = connection-level)."""
    return {"id": msg_id, "ok": False, "error": error_to_wire(error)}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def result_to_wire(result: EstimationResult) -> dict:
    """JSON-ready form of one estimation result (curve excluded)."""
    return {
        "estimator": result.estimator,
        "workload": result.workload.as_dict(),
        "device": result.device.as_dict(),
        "peak_bytes": result.peak_bytes,
        "runtime_seconds": result.runtime_seconds,
        "supported": result.supported,
        "detail": dict(result.detail),
        "stage_seconds": dict(result.stage_seconds),
        "stage_cached": dict(result.stage_cached),
        "stage_sources": dict(result.stage_sources),
    }


def result_from_wire(payload: dict) -> EstimationResult:
    """Inverse of :func:`result_to_wire` (``curve`` is always None)."""
    try:
        return EstimationResult(
            estimator=payload["estimator"],
            workload=WorkloadConfig.from_dict(payload["workload"]),
            device=DeviceSpec.from_dict(payload["device"]),
            peak_bytes=payload["peak_bytes"],
            runtime_seconds=payload["runtime_seconds"],
            supported=payload.get("supported", True),
            curve=None,
            detail=dict(payload.get("detail", {})),
            stage_seconds=dict(payload.get("stage_seconds", {})),
            stage_cached=dict(payload.get("stage_cached", {})),
            stage_sources=dict(payload.get("stage_sources", {})),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise WireProtocolError(
            f"malformed result payload: {error!r}"
        ) from error


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------


def error_to_wire(error: BaseException) -> dict:
    """Map one service exception onto the wire error taxonomy.

    Ordering matters: :class:`DeadlineExceededError` *is a*
    :class:`RequestRejectedError`, so the more specific code is chosen
    first and the client reconstructs the exact class — replay
    accounting must classify remote outcomes like local ones.
    """
    payload: dict[str, Any] = {"message": str(error)}
    if isinstance(error, DeadlineExceededError):
        payload["type"] = ERROR_DEADLINE
        payload["late_by_seconds"] = error.late_by_seconds
    elif isinstance(error, (AuthenticationError, AuthorizationError)):
        payload["type"] = ERROR_AUTH
        payload["auth_kind"] = (
            "authentication"
            if isinstance(error, AuthenticationError)
            else "authorization"
        )
    elif isinstance(error, RequestRejectedError):
        payload["type"] = ERROR_REJECTED
    elif isinstance(error, QuotaExceededError):
        payload["type"] = ERROR_QUOTA
        payload["tenant"] = error.tenant
        payload["scope"] = error.scope
        payload["retry_after_seconds"] = error.retry_after_seconds
    elif isinstance(error, RateLimitExceededError):
        payload["type"] = ERROR_RATE_LIMITED
        payload["retry_after_seconds"] = error.retry_after_seconds
    elif isinstance(error, ServiceClosedError):
        payload["type"] = ERROR_CLOSED
    elif isinstance(error, WireProtocolError):
        payload["type"] = ERROR_PROTOCOL
    else:
        payload["type"] = ERROR_INTERNAL
        payload["remote_type"] = type(error).__name__
    return payload


def error_from_wire(payload: dict) -> Exception:
    """Reconstruct the typed exception a wire error payload describes."""
    if not isinstance(payload, dict):
        return RemoteServiceError(f"malformed error payload: {payload!r}")
    kind = payload.get("type")
    message = payload.get("message", "")
    if kind == ERROR_DEADLINE:
        error: Exception = DeadlineExceededError(
            payload.get("late_by_seconds", 0.0)
        )
    elif kind == ERROR_AUTH:
        auth_class = (
            AuthorizationError
            if payload.get("auth_kind") == "authorization"
            else AuthenticationError
        )
        error = auth_class(message)
    elif kind == ERROR_REJECTED:
        error = RequestRejectedError(message)
    elif kind == ERROR_QUOTA:
        error = QuotaExceededError(
            payload.get("tenant", ""),
            retry_after_seconds=payload.get("retry_after_seconds", 0.0),
            scope=payload.get("scope", "quota"),
        )
    elif kind == ERROR_RATE_LIMITED:
        error = RateLimitExceededError(
            payload.get("retry_after_seconds", 0.0)
        )
    elif kind == ERROR_CLOSED:
        error = ServiceClosedError(message)
    elif kind == ERROR_PROTOCOL:
        error = WireProtocolError(message)
    else:
        error = RemoteServiceError(
            message, remote_type=payload.get("remote_type", "Exception")
        )
    return error


# ----------------------------------------------------------------------
# the client side of one connection
# ----------------------------------------------------------------------


#: op -> what a successful response frame resolves the caller's future to
#: (an op not listed resolves to ``True``)
_RESPONSE_VALUE = {
    OP_ESTIMATE: lambda message: result_from_wire(message["result"]),
    OP_ESTIMATE_MANY: lambda message: [
        _outcome(OP_ESTIMATE, entry) for entry in message["results"]
    ],
    OP_STATS: lambda message: message["stats"],
    OP_DRAIN: lambda message: message.get("drained", False),
}


def _outcome(op: str, message: dict) -> Any:
    """What one response frame carries: the op's value, or its typed
    error — returned, not raised.  An ``estimate_many`` entry has the
    shape of an ``estimate`` response and is decoded as one."""
    try:
        if not message.get("ok"):
            return error_from_wire(message.get("error", {}))
        decode = _RESPONSE_VALUE.get(op)
        return True if decode is None else decode(message)
    # a missing or mistyped field, or a number an error message formats
    # that is none (``"soon"``) or too large for a float: a malformed
    # response fails its own request, never the read it came in
    except Exception as error:
        return WireProtocolError(f"malformed {op} response: {error!r}")


def _deliver(future, outcome: Any) -> None:
    """Resolve ``future`` with a value, or fail it with a typed error."""
    if future.done():
        # the caller cancelled it: resolving would raise InvalidStateError
        # out of the read loop and strand every later request
        return
    if isinstance(outcome, Exception):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


def _estimate_fields(workload, device, tenant, priority, metadata=None) -> dict:
    """The ``request`` object of an estimate message."""
    request = {"workload": workload.as_dict(), "device": device.as_dict()}
    if metadata:
        request["metadata"] = dict(metadata)
    # tenant/priority ride only off their defaults so untenanted
    # frames stay byte-identical to pre-control-plane clients
    if tenant:
        request["tenant"] = tenant
    if priority != 1:
        request["priority"] = priority
    return request


@lru_cache(maxsize=MEMO_ENTRIES, typed=True)
def _estimate_rest(workload, device, tenant: str, priority: int) -> bytes:
    """The body of an estimate request with no deadline and no metadata,
    after its id.  Keyed by value: ``require_types`` makes equal
    workloads and devices encode identically, as
    :func:`~.fingerprint.fingerprint_request` relies on too."""
    message = {"deadline_remaining": None, "id": 0, "op": OP_ESTIMATE}
    message["request"] = _estimate_fields(workload, device, tenant, priority)
    # what follows the id 0
    return encode_frame(message)[HEADER_BYTES + len(_REQUEST_HEAD) + 1 :]


def _fail(pending: dict, error: Exception) -> None:
    for _op, future in pending.values():
        _deliver(future, error)


class ClientProtocol:
    """What a client of the wire decides, for one connection at a time.

    Bytes in, frames and settled futures out.  A shell owns the socket
    and whatever reads it; it hands every chunk it read to
    :meth:`receive`, reports a failed write with :meth:`send_failed`
    and the end of the stream with :meth:`connection_ended`, and writes
    the frames the ``*_request`` methods return.  It supplies ``lock``
    (a ``threading.Lock`` when requests and reads run on different
    threads, a :class:`~repro.service.context.NullLock` on an event
    loop), ``new_future`` (what a request returns) and the ``clock``
    deadlines are expressed in.  Futures are resolved outside the lock,
    so a done-callback may send the next request.

    Connections are numbered from 0; :meth:`reconnected` starts the next
    one.  Whatever is read from a connection — bytes or its end — says
    which connection it came from, and is dropped when that is no longer
    the current one: a reader left over from before a redial must not
    fail the requests sent on the socket that replaced its own.
    """

    def __init__(
        self,
        lock: ContextManager,
        new_future: Callable[[], Any],
        clock: Callable[[], float],
    ):
        self._lock = lock
        self._new_future = new_future
        self._clock = clock
        self._decoder = FrameDecoder()
        #: ``ok`` estimate answers, by the bytes after their id
        self._results = _Memo(_RESPONSE_HEAD)
        self._pending: dict[int, tuple[str, Any]] = {}
        self._next_id = 0
        self._connection = 0
        self._closed = False
        self._lost: Optional[Exception] = None

    @property
    def lost(self) -> Optional[Exception]:
        """Why the current connection is unusable; None while it works
        (and after :meth:`close`, when there is nothing to re-dial)."""
        with self._lock:
            return None if self._closed else self._lost

    # ------------------------------------------------------------------
    # requests: (message id, frame to write, future of the response)
    # ------------------------------------------------------------------
    def request(self, op: str, **fields: Any) -> tuple[int, bytes, Any]:
        """Frame one message and register the future of its response.

        The frame is encoded before anything is registered: a message
        that does not frame raises :class:`WireProtocolError` and leaves
        no pending entry behind.
        """
        return self._register(op, lambda msg_id: encode_frame({"op": op, "id": msg_id, **fields}))

    def _register(self, op: str, frame_of: Callable) -> tuple[int, bytes, Any]:
        with self._lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            if self._lost is not None:
                raise ConnectionLostError(
                    (),
                    f"connection lost and reconnect is off: {self._lost}",
                )
            msg_id = self._next_id
            frame = frame_of(msg_id)
            future = self._new_future()
            self._next_id += 1
            self._pending[msg_id] = (op, future)
        return msg_id, frame, future

    def estimate_request(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = 1,
    ) -> tuple[int, bytes, Any]:
        """``deadline`` is absolute on this side's clock; what is sent is
        the budget left at framing time, which the server rebases."""
        if deadline is None and not metadata:
            rest = _estimate_rest(workload, device, tenant, priority)
            return self._register(OP_ESTIMATE, partial(_splice, _REQUEST_HEAD, rest=rest))
        request = _estimate_fields(workload, device, tenant, priority, metadata)
        remaining = None if deadline is None else deadline - self._clock()
        return self.request(
            OP_ESTIMATE, request=request, deadline_remaining=remaining
        )

    def estimate_many_request(
        self, requests: Sequence[tuple[WorkloadConfig, DeviceSpec]]
    ) -> tuple[int, bytes, Any]:
        """One frame for the batch; the future resolves to a list, in
        request order, of results and (per failed entry) typed errors."""
        entries = [
            {"workload": w.as_dict(), "device": d.as_dict()}
            for w, d in requests
        ]
        return self.request(OP_ESTIMATE_MANY, requests=entries)

    def stats_request(self) -> tuple[int, bytes, Any]:
        return self.request(OP_STATS)

    def ping_request(self) -> tuple[int, bytes, Any]:
        return self.request(OP_PING)

    def drain_request(
        self, timeout: Optional[float]
    ) -> tuple[int, bytes, Any]:
        return self.request(OP_DRAIN, timeout=timeout)

    def send_failed(
        self, msg_id: int, error: Exception
    ) -> ConnectionLostError:
        """The frame of ``msg_id`` was not written: forget exactly that
        request and return the typed error its caller gets instead."""
        lost = ConnectionLostError((msg_id,), f"send failed: {error}")
        with self._lock:
            self._pending.pop(msg_id, None)
            if self._lost is None:
                self._lost = lost
        return lost

    # ------------------------------------------------------------------
    # responses and the end of a connection
    # ------------------------------------------------------------------
    def receive(self, data: bytes, connection: int = 0) -> bool:
        """Absorb bytes read from ``connection``; False = stop reading it.

        A response settles the request whose id it echoes; an id nothing
        waits on (unknown, or answered twice) is ignored.  ``id: null``
        is the server's connection-level error; an unframeable stream and
        an id that is no integer (``true``, ``1.0``, ``"1"``, ``[0]``:
        the server's own rule) are ours.  Each ends the connection for
        every pending request.
        """
        # (op, future), and the result recalled or the message to decode
        # it from, with (split, body) at the answer's second sighting
        answered: list[tuple[tuple[str, Any], Any, Optional[dict], Any]] = []
        with self._lock:
            if self._closed or connection != self._connection:
                return False
            bodies, failure = self._decoder.bodies(data)
            for body in bodies:
                split, result = self._results.recall(body)
                # a learned answer settles only a request that is an estimate
                if result is not None and self._pending.get(split[0], ("",))[0] == OP_ESTIMATE:
                    answered.append((self._pending.pop(split[0]), result, None, None))
                    continue
                try:
                    message = _decode_body(body)
                    if message.get("id") is None:  # connection-level error
                        failure = error_from_wire(message.get("error", {}))
                        break
                    msg_id = _message_id(message, "a response")
                except WireProtocolError as error:
                    failure = error
                    break
                entry = self._pending.pop(msg_id, None)
                if entry is not None:
                    second = self._results.second_sighting(split, message)
                    answered.append((entry, None, message, second and (split, body)))
        for (op, future), outcome, message, learn in answered:
            if message is not None:  # decoded outside the lock
                outcome = _outcome(op, message)
                if learn and isinstance(outcome, EstimationResult):
                    with self._lock:
                        self._results.learn(*learn, message, outcome)
            _deliver(future, outcome)
        if failure is not None:
            self.connection_ended(failure, connection)
        return failure is None

    def connection_ended(
        self, error: Optional[Exception] = None, connection: int = 0
    ) -> None:
        """``connection`` is over: fail what was in flight on it.

        With no ``error`` (end of stream, reset) the failure is a
        :class:`~repro.errors.ConnectionLostError` naming, sorted, the
        ids now in limbo.  A no-op after :meth:`close` and for any
        connection but the current one.
        """
        with self._lock:
            if self._closed or connection != self._connection:
                return
            pending, self._pending = self._pending, {}
            if error is None:
                error = ConnectionLostError(
                    tuple(sorted(pending)), "server closed connection"
                )
            if self._lost is None:
                self._lost = error
        _fail(pending, error)

    def reconnected(self) -> int:
        """A fresh connection replaced the lost one; returns its number."""
        # a failed write can condemn a connection before its reader sees
        # the end: nothing will read the answers still waited for on it
        self.connection_ended(connection=self._connection)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            self._decoder = FrameDecoder()
            self._lost = None
            self._connection += 1
            return self._connection

    def close(self) -> None:
        """Deliberate close: outstanding futures fail with a plain
        ``ConnectionError`` (not the typed loss), later requests with
        :class:`~repro.errors.ServiceClosedError`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending, self._pending = self._pending, {}
        _fail(pending, ConnectionError("client closed"))


# ----------------------------------------------------------------------
# the server side of one connection
# ----------------------------------------------------------------------


#: metadata keys only the gateway stamps — a fault directive, the retry
#: attempt — so a peer's request carrying one is refused, not applied
_GATEWAY_METADATA = frozenset(("fault", "attempt"))


def _decode_estimate_payload(message: dict, now: float) -> tuple:
    """Pull (workload, device, rebased deadline, metadata, tenant,
    priority) out of one op.

    Raises :class:`WireProtocolError` on a structurally bad payload, one
    whose metadata claims what only the gateway may stamp, or one whose
    ``telemetry`` span context is not ``{"trace_id": str[, "span_id":
    str]}`` — the caller answers it *per request* (the frame itself was
    valid, so the connection is not poisoned).  ``tenant``/``priority`` are
    optional on the wire (absent = untenanted standard traffic), so
    pre-control-plane clients keep working unchanged.
    """
    request = message["request"]
    try:
        workload = WorkloadConfig.from_dict(request["workload"])
        device = DeviceSpec.from_dict(request["device"])
    except (KeyError, TypeError, ValueError) as error:
        raise WireProtocolError(
            f"malformed estimate payload: {error!r}"
        ) from error
    metadata = request.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise WireProtocolError("'metadata' must be an object or null")
    if metadata and not _GATEWAY_METADATA.isdisjoint(metadata):
        stamped = sorted(_GATEWAY_METADATA.intersection(metadata))
        raise WireProtocolError(
            f"'metadata' carries gateway-only keys {stamped}"
        )
    if metadata and "telemetry" in metadata:
        context = metadata["telemetry"]
        if not (
            isinstance(context, dict)
            and isinstance(context.get("trace_id"), str)
            and isinstance(context.get("span_id", ""), str)
        ):
            raise WireProtocolError(
                "'metadata.telemetry' must be an object with a string "
                "'trace_id' and, if present, a string 'span_id'"
            )
    tenant = request.get("tenant", "")
    if not isinstance(tenant, str):
        raise WireProtocolError("'tenant' must be a string")
    priority = request.get("priority", 1)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise WireProtocolError("'priority' must be an integer")
    remaining = message.get("deadline_remaining")
    # rebase: the client sent budget-left on *its* clock; the deadline
    # the core enforces must live on *this* host's clock
    deadline = None if remaining is None else now + remaining
    return workload, device, deadline, metadata or None, tenant, priority


def _settled(future: Any) -> Any:
    """What a done future holds: its result, or — returned, not raised —
    the error it ended in.  (Reading a cancelled future raises inside
    the completion callback, and the request would never be answered.)"""
    if future.cancelled():
        return ServiceError("the request was cancelled on the server")
    error = future.exception()
    return future.result() if error is None else error


def _estimate_response(outcome: Any, **ident: Any) -> dict:
    """The answer to one estimate: a result or the error it ended in.
    With ``id=`` it is a response frame, without one an entry of an
    ``estimate_many`` response — the two have the same shape."""
    if isinstance(outcome, BaseException):
        return {**ident, "ok": False, "error": error_to_wire(outcome)}
    return {**ident, "ok": True, "result": result_to_wire(outcome)}


#: the memos of a server, by its gateway: every connection of a server
#: shares them, and the one loop they all run on, so what the memos hold
#: is bounded per server and not per connection
_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class ServerProtocol:
    """What the server of the wire decides, for one connection.

    Bytes in, effects out.  A shell owns the connection and the loop
    that reads it; it hands every chunk it read to :meth:`receive` and
    reports the end of the peer's stream (or its reset) with
    :meth:`connection_ended`.  The protocol tells it four things, each
    a callable the shell supplies: ``write(frame)`` — put these bytes on
    the stream, whole and in call order; ``close()`` — called exactly
    once, when nothing more will be read and every request that was has
    been answered (or its answer dropped): now close the stream;
    ``abort()`` — reset the connection at once; ``drain(timeout,
    verdict)`` — the one op whose gateway call is awaitable: run
    ``gateway.drain(timeout)`` and call ``verdict`` with what it
    returned.

    ``gateway`` is asked for ``submit``, ``when_done``, ``stats`` and
    ``take_connection_drop``.  ``submit`` runs inline, frame by frame in
    arrival order, so admission, routing and ledger decisions are made
    in exactly the order the requests were written; every answer is
    written from the completion callback of its future, so answers
    leave in completion order and are matched by id.  Everything runs on
    the shell's one thread or loop: there is no lock.
    """

    def __init__(
        self,
        gateway: Any,
        clock: Callable[[], float],
        write: Callable[[bytes], None],
        close: Callable[[], None],
        abort: Callable[[], None],
        drain: Callable[[Optional[float], Callable[[bool], None]], None],
    ):
        self._gateway = gateway
        self._clock = clock
        self._write = write
        self._close = close
        self._abort = abort
        self._drain = drain
        self._decoder = FrameDecoder()
        #: estimate requests, by the bytes after their id, and answers:
        #: id(result) -> (result, answer body after the id), holding the
        #: result so that its id is not reused while the entry lives
        self._requests, self._answers = _MEMOS.setdefault(gateway, (_Memo(_REQUEST_HEAD), _Memo()))
        #: requests read and not yet answered
        self.outstanding = 0
        #: nothing more is read: close once nothing is outstanding
        self._closing = False
        #: the peer is gone (its end of stream, or our abort): an answer
        #: that settles now still counts down, it is just not written
        self._gone = False
        #: framing / schema violations answered ``id: null`` (0 or 1)
        self.protocol_errors = 0
        #: planned ``connection_drop`` faults carried out (0 or 1)
        self.injected_drops = 0

    def receive(self, data: bytes) -> bool:
        """Absorb bytes the peer sent; False = stop reading.

        Frames are dispatched in arrival order.  A frame that is no
        valid request — unknown op, bad id, a field of the wrong type —
        and a stream that cannot be framed at all (there is no
        resynchronizing after a bad header) are answered once at
        connection level, ``id: null``; the requests before it stand.
        """
        bodies, failure = self._decoder.bodies(data)
        for body in bodies:
            if self._closing:
                break
            split, request = self._requests.recall(body)
            if request is not None:
                self._serve_estimate(split[0], request)
                continue
            try:
                message = _decode_body(body)
                op, msg_id = validate_request_message(message)
            except WireProtocolError as error:
                failure = error
                break
            if op != OP_ESTIMATE:
                self._serve(op, msg_id, message)
                continue
            request = self._payload(message)
            if isinstance(request, tuple) and request[3] is None:
                if self._requests.second_sighting(split, message):
                    self._requests.learn(split, body, message, request)
            self._serve_estimate(msg_id, request)
        if failure is not None and not self._closing:
            self.protocol_errors += 1
            self._write(encode_frame(error_response(None, failure)))
            self._stop_reading()
        return not self._closing

    def connection_ended(self) -> None:
        """The peer's stream ended or was reset: what is still
        outstanding settles its accounting, but is written nowhere."""
        self._gone = True
        self._stop_reading()

    # ------------------------------------------------------------------
    # one request
    # ------------------------------------------------------------------
    def _serve_estimate(self, msg_id: int, request: Any) -> None:
        """``request`` is what :meth:`_payload` returned."""
        if self._gateway.take_connection_drop():
            # the fault plan scheduled a drop at this submission index:
            # the index is consumed *before* the gateway sees the request
            # (in-process drivers consume the same index as a no-op, so
            # plan indices stay aligned), and the connection dies the
            # hard way — the peer sees a reset, not an orderly close
            self.injected_drops += 1
            self._abort()
            self.connection_ended()
            return
        self.outstanding += 1
        self._begin_estimate(request, partial(self._answer_estimate, msg_id))

    def _serve(self, op: str, msg_id: int, message: dict) -> None:
        self.outstanding += 1
        if op == OP_PING:
            self._answer(ok_response(msg_id))
        elif op == OP_STATS:
            self._answer(ok_response(msg_id, stats=self._gateway.stats()))
        elif op == OP_DRAIN:
            self._drain(
                message.get("timeout"),
                lambda drained: self._answer(
                    ok_response(msg_id, drained=drained)
                ),
            )
        else:
            self._estimate_many(msg_id, message["requests"])

    def _payload(self, message: dict) -> Any:
        """What :func:`_decode_estimate_payload` makes of ``message`` —
        or, returned, not raised, the error it ended in."""
        try:
            return _decode_estimate_payload(message, self._clock())
        except Exception as error:
            return error

    def _begin_estimate(
        self, request: Any, deliver: Callable[[Any], None]
    ) -> None:
        """Run the synchronous half of one submit, inline and in order;
        ``deliver`` gets the result, or the error the request ended in —
        refused before enqueue (malformed payload, validation reject,
        shed, closed gateway) or failed after.  The connection stays
        open either way."""
        if isinstance(request, Exception):
            return deliver(request)
        try:
            workload, device, deadline, metadata, tenant, priority = request
            future = self._gateway.submit(
                workload,
                device,
                deadline=deadline,
                metadata=metadata,
                tenant=tenant,
                priority=priority,
            )
        except Exception as error:
            deliver(error)
        else:
            self._gateway.when_done(
                future, lambda done: deliver(_settled(done))
            )

    def _estimate_many(self, msg_id: int, items: list) -> None:
        """Submit every entry now, in order; answer once, in request
        order, when the last of them has settled."""
        entries: dict[int, dict] = {}

        def collect(index: int, outcome: Any) -> None:
            entries[index] = _estimate_response(outcome)
            if len(entries) == len(items):
                ordered = [entries[at] for at in range(len(items))]
                self._answer(ok_response(msg_id, results=ordered))

        if not items:
            self._answer(ok_response(msg_id, results=[]))
        for index, item in enumerate(items):
            self._begin_estimate(
                self._payload({"request": item}), partial(collect, index)
            )

    # ------------------------------------------------------------------
    # answers and the end of the connection
    # ------------------------------------------------------------------
    def _answer(self, payload: dict) -> None:
        self._write_answer(payload["id"], partial(encode_frame, payload))

    def _answer_estimate(self, msg_id: int, outcome: Any) -> None:
        if isinstance(outcome, BaseException):
            return self._answer(_estimate_response(outcome, id=msg_id))
        self._write_answer(msg_id, partial(self._answer_frame, msg_id, outcome))

    def _answer_frame(self, msg_id: int, result: EstimationResult) -> bytes:
        """The frame of an ``ok`` estimate answer.  The gateway's cache
        answers a hit with the object it stored: a result object's
        second answer learns its rest, and every later one is spliced."""
        known = self._answers.meanings.get(id(result))
        if known is not None:
            return _splice(_RESPONSE_HEAD, msg_id, known[1])
        frame = encode_frame(ok_response(msg_id, result=result_to_wire(result)))
        if self._answers.sighted_before(id(result)):
            rest = frame[HEADER_BYTES + len(_RESPONSE_HEAD) + len(b"%d" % msg_id) :]
            _remember(self._answers.meanings, id(result), (result, rest))
        return frame

    def _write_answer(self, msg_id: int, frame_of: Callable[[], bytes]) -> None:
        """Write the one response frame of an outstanding request."""
        self.outstanding -= 1
        if not self._gone:
            try:
                frame = frame_of()
            except WireProtocolError as error:
                # the response itself would not frame (oversized or
                # unencodable detail) — tell the client *something*
                # rather than leaving its future hanging
                frame = encode_frame(error_response(msg_id, error))
            self._write(frame)
        if self._closing and not self.outstanding:
            self._close()

    def _stop_reading(self) -> None:
        if not self._closing:
            self._closing = True
            if not self.outstanding:
                self._close()
