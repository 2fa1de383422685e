"""Asyncio TCP transport over the sans-IO service core.

The fourth execution substrate: where the thread, asyncio, and process
drivers all run the policy core in one process, this module puts a real
socket between caller and core.  :class:`TcpEstimationServer` is a thin
shell over :class:`~repro.service.aio.AsyncServiceGateway` — it owns
*only* connection lifecycle and the frame codec
(:mod:`repro.service.wire`); every policy decision (routing, admission,
cache, dedup, deadline, telemetry) still happens in the gateway, so a
TCP replay is byte-identical to an in-process one.  This mirrors how
fastmcp layers interchangeable transports over one middleware server:
the server object is transport-blind, the transport is policy-blind.

Pieces:

* :class:`TcpEstimationServer` — asyncio streams server exposing the
  ``ping`` / ``estimate`` / ``estimate_many`` / ``stats`` / ``drain``
  ops.  One coroutine per connection reads frames in arrival order and
  runs the gateway's *synchronous* submit step inline — admission,
  routing, and ledger decisions therefore happen in exact request order,
  which is what keeps canonical ledger sequences identical to the
  in-process drivers.  Only the *await* of each result runs in a spawned
  task, so slow estimates never block the read loop.  Malformed frames
  are answered with a connection-level error frame and a clean close;
  they never take the server down.
* :class:`TcpServiceClient` — blocking client with the driver ``submit``
  surface (returns :class:`concurrent.futures.Future`), so the existing
  :func:`~repro.service.traffic.replay` drives it unchanged.
* :class:`AsyncTcpServiceClient` — the awaitable mirror, matching
  :func:`~repro.service.aio.replay_async`.
* :class:`TcpServerThread` — gateway + server on a private event loop in
  a daemon thread, for in-process loadtests and tests.

Deadlines cross the wire as *remaining budget* and are rebased onto the
server's clock (see :mod:`repro.service.wire`); results come back
curve-less but otherwise exact.  Traces do not cross the wire at all —
a CPU profile is a host-local artifact, so serving-tier estimators
profile (or synthesize) server-side.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Sequence

from ..errors import ConnectionLostError, ServiceClosedError
from ..trace.reader import Trace
from ..workload import DeviceSpec, WorkloadConfig
from .aio import AsyncServiceGateway
from .wire import (
    MAX_FRAME_BYTES,
    OP_DRAIN,
    OP_ESTIMATE,
    OP_ESTIMATE_MANY,
    OP_PING,
    OP_STATS,
    FrameDecoder,
    WireProtocolError,
    encode_frame,
    error_from_wire,
    error_response,
    ok_response,
    result_from_wire,
    result_to_wire,
    validate_request_message,
)

__all__ = [
    "AsyncTcpServiceClient",
    "TcpEstimationServer",
    "TcpServerThread",
    "TcpServiceClient",
]

_READ_CHUNK = 64 * 1024
#: recv() size of a server connection's transport: small enough that
#: malloc serves it from a free list, not from the top of the heap
_TRANSPORT_READ_BYTES = 16 * 1024


def _decode_estimate_payload(
    message: dict, now: float
) -> tuple[
    WorkloadConfig,
    DeviceSpec,
    Optional[float],
    Optional[dict],
    str,
    int,
]:
    """Pull (workload, device, rebased deadline, metadata, tenant,
    priority) out of one op.

    Raises :class:`WireProtocolError` on a structurally bad payload —
    the caller answers it *per request* (the frame itself was valid, so
    the connection is not poisoned).  ``tenant``/``priority`` are
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


class TcpEstimationServer:
    """Serves the wire ops over TCP, one handler coroutine per connection.

    ``clock`` must be the same clock the gateway's cores use for deadline
    checks (``time.perf_counter`` by default everywhere) — rebased wire
    deadlines are expressed in it.  The server never closes the gateway:
    the owner that built the gateway shuts it down.
    """

    def __init__(
        self,
        gateway: AsyncServiceGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._clock = clock
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._protocol_errors = 0
        self._injected_drops = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` after ``start``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def connections_served(self) -> int:
        return self._connections

    @property
    def protocol_errors(self) -> int:
        """Connections dropped for framing/schema violations (diagnostic)."""
        return self._protocol_errors

    @property
    def injected_drops(self) -> int:
        """Connections aborted by the fault plan (``connection_drop``)."""
        return self._injected_drops

    async def start(self) -> "TcpEstimationServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def aclose(self) -> None:
        """Stop accepting connections and close the listening socket."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "TcpEstimationServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        # asyncio recv()s into a fresh 256 KiB buffer per read event and
        # frees it again, for request frames well under 1 KiB.  When that
        # buffer lands at the top of a glibc heap, the pair grows and
        # trims the heap on every request (~+20 us CPU, +40 us a round
        # trip on loopback) — and whether it lands there flips with any
        # unrelated change to what the process allocated before
        writer.transport.max_size = _TRANSPORT_READ_BYTES
        decoder = FrameDecoder(self.max_frame_bytes)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break  # orderly client disconnect
                try:
                    messages = decoder.feed(data)
                except WireProtocolError as error:
                    # unframeable stream: answer once at connection level
                    # (id null), then close — there is no resynchronizing
                    # a length-prefixed stream after a bad header
                    self._protocol_errors += 1
                    await self._send(
                        writer, write_lock, error_response(None, error)
                    )
                    break
                ok = True
                for message in messages:
                    if not self._handle_message(
                        message, writer, write_lock, tasks
                    ):
                        ok = False
                        break
                if not ok:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # mid-request disconnect: in-flight work settles below
        finally:
            # let spawned responders settle (their writes tolerate a dead
            # socket) so gateway accounting is quiescent when the peer
            # observes the close — tests and drains rely on that
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # CancelledError: loop teardown raced the close handshake
                # — the socket is gone either way, exit quietly
                pass

    def _handle_message(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        tasks: set,
    ) -> bool:
        """Dispatch one decoded frame; False = close the connection.

        Runs synchronously on the loop inside the read loop, so gateway
        submit order == frame arrival order (the determinism contract).
        """

        def spawn(coro) -> None:
            task = asyncio.get_running_loop().create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            op, msg_id = validate_request_message(message)
        except WireProtocolError as error:
            # schema violation (unknown op / bad id): the peer speaks a
            # different protocol — answer at connection level and close
            self._protocol_errors += 1
            spawn(self._send(writer, write_lock, error_response(None, error)))
            return False
        if op == OP_PING:
            spawn(self._send(writer, write_lock, ok_response(msg_id)))
        elif op == OP_STATS:
            payload = ok_response(msg_id, stats=self.gateway.stats())
            spawn(self._send(writer, write_lock, payload))
        elif op == OP_DRAIN:
            spawn(
                self._drain_and_respond(
                    msg_id, message.get("timeout"), writer, write_lock
                )
            )
        elif op == OP_ESTIMATE:
            injector = getattr(self.gateway, "_injector", None)
            if injector is not None and injector.take_connection_drop():
                # the fault plan scheduled a connection drop at this
                # submission index: consume the index *before* the
                # gateway sees the request (keeping plan indices aligned
                # with in-process drivers, where the same index is a
                # gateway-side no-op) and kill the connection the hard
                # way — abort sends RST, so the peer sees an abrupt
                # reset, not an orderly close
                self._injected_drops += 1
                writer.transport.abort()
                return False
            outcome = self._begin_estimate(message, msg_id)
            if isinstance(outcome, dict):  # rejected before enqueue
                spawn(self._send(writer, write_lock, outcome))
            else:
                spawn(
                    self._await_and_respond(
                        msg_id, outcome, writer, write_lock
                    )
                )
        elif op == OP_ESTIMATE_MANY:
            outcomes = [
                self._begin_estimate(
                    {"request": item, "deadline_remaining": None}, msg_id
                )
                for item in message["requests"]
            ]
            spawn(
                self._await_many_and_respond(
                    msg_id, outcomes, writer, write_lock
                )
            )
        return True

    def _begin_estimate(self, message: dict, msg_id: int):
        """Run the synchronous half of one submit, inline and in order.

        Returns the gateway future on admission, or a ready error
        response payload when the request was refused before enqueue
        (validation reject, shed, closed, malformed payload) — the
        connection stays open either way.
        """
        try:
            (
                workload,
                device,
                deadline,
                metadata,
                tenant,
                priority,
            ) = _decode_estimate_payload(message, self._clock())
        except WireProtocolError as error:
            return error_response(msg_id, error)
        try:
            return self.gateway.submit(
                workload,
                device,
                deadline=deadline,
                metadata=metadata,
                tenant=tenant,
                priority=priority,
            )
        except Exception as error:
            return error_response(msg_id, error)

    async def _await_and_respond(
        self, msg_id: int, future, writer, write_lock
    ) -> None:
        try:
            result = await future
        except Exception as error:
            payload = error_response(msg_id, error)
        else:
            payload = ok_response(msg_id, result=result_to_wire(result))
        await self._send(writer, write_lock, payload)

    async def _await_many_and_respond(
        self, msg_id: int, outcomes: list, writer, write_lock
    ) -> None:
        entries = []
        for outcome in outcomes:
            if isinstance(outcome, dict):  # pre-resolved error response
                entries.append({"ok": False, "error": outcome["error"]})
                continue
            try:
                result = await outcome
            except Exception as error:
                entries.append(error_response(None, error))
                entries[-1].pop("id")
            else:
                entries.append({"ok": True, "result": result_to_wire(result)})
        await self._send(
            writer, write_lock, ok_response(msg_id, results=entries)
        )

    async def _drain_and_respond(
        self, msg_id: int, timeout, writer, write_lock
    ) -> None:
        drained = await self.gateway.drain(timeout)
        await self._send(
            writer, write_lock, ok_response(msg_id, drained=drained)
        )

    async def _send(self, writer, write_lock, payload: dict) -> None:
        """Write one frame; concurrent responders never interleave bytes.

        A peer that vanished mid-request is not an error: its estimate
        already settled the gateway accounting, the response just has
        nowhere to go.
        """
        try:
            frame = encode_frame(payload, self.max_frame_bytes)
        except WireProtocolError as error:
            # the response itself would not frame (oversized/unencodable
            # detail) — tell the client *something* rather than leaving
            # its future hanging
            frame = encode_frame(
                error_response(payload.get("id"), error),
                self.max_frame_bytes,
            )
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# what the two clients share
# ----------------------------------------------------------------------


def _estimate_message(
    workload: WorkloadConfig,
    device: DeviceSpec,
    trace: Optional[Trace],
    deadline: Optional[float],
    metadata: Optional[dict],
    tenant: str,
    priority: int,
    clock: Callable[[], float],
) -> dict:
    """The estimate frame a client sends (``id`` is stamped at send)."""
    if trace is not None:
        raise ValueError(
            "traces are host-local CPU profiles and do not cross the "
            "wire; the server profiles (or synthesizes) on its side"
        )
    message = {
        "op": OP_ESTIMATE,
        "request": {
            "workload": workload.as_dict(),
            "device": device.as_dict(),
        },
        "deadline_remaining": (
            None if deadline is None else deadline - clock()
        ),
    }
    if metadata:
        message["request"]["metadata"] = dict(metadata)
    # tenant/priority ride only off their defaults so untenanted
    # frames stay byte-identical to pre-control-plane clients
    if tenant:
        message["request"]["tenant"] = tenant
    if priority != 1:
        message["request"]["priority"] = priority
    return message


#: op -> what a successful response frame resolves the caller's future to
_RESPONSE_VALUE = {
    OP_ESTIMATE: lambda message: result_from_wire(message["result"]),
    OP_ESTIMATE_MANY: lambda message: message["results"],
    OP_STATS: lambda message: message["stats"],
    OP_DRAIN: lambda message: message.get("drained", False),
}


def _settle_response(op: str, future, message: dict) -> None:
    """Resolve one pending request's future from its response frame."""
    if future.done():
        # the caller cancelled it: settling would raise InvalidStateError
        # out of the read loop and strand every later request
        return
    if not message.get("ok"):
        future.set_exception(error_from_wire(message.get("error", {})))
        return
    decode = _RESPONSE_VALUE.get(op)
    try:
        value = True if decode is None else decode(message)
    except (KeyError, WireProtocolError) as error:
        future.set_exception(
            WireProtocolError(f"malformed {op} response: {error!r}")
        )
    else:
        future.set_result(value)


# ----------------------------------------------------------------------
# blocking client
# ----------------------------------------------------------------------


class TcpServiceClient:
    """Blocking TCP client with the in-process drivers' submit surface.

    ``submit`` writes one frame and returns a
    :class:`concurrent.futures.Future`; a reader thread resolves pending
    futures as response frames arrive (matched by message id, so
    responses may come back out of order).  Wire errors are reconstructed
    as their local exception types — a shed raises
    :class:`~repro.errors.RateLimitExceededError` from ``future.result()``
    exactly as the thread gateway raises it from ``submit`` — so
    :func:`~repro.service.traffic.replay` drives this client unchanged.

    ``deadline`` is an absolute value of *this client's* ``clock``;
    the remaining budget is computed at send time and rebased by the
    server (the skew-proof wire form — see :mod:`repro.service.wire`).

    Connection loss is *typed*: when the server (or the network) kills
    the connection mid-call, every in-flight future fails with
    :class:`~repro.errors.ConnectionLostError` carrying the pending
    request ids — callers can tell "the server dropped me" from a
    deliberate :meth:`close` (plain ``ConnectionError``) and know
    exactly which requests are in limbo.  With ``reconnect=True`` the
    *next* ``submit`` transparently re-dials with exponential backoff;
    already-failed futures are never resent (the server may or may not
    have executed them — resubmission is the caller's decision).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock: Callable[[], float] = time.perf_counter,
        reconnect: bool = False,
        reconnect_attempts: int = 4,
        reconnect_backoff: float = 0.02,
    ):
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self._clock = clock
        self._host = host
        self._port = port
        self._reconnect = reconnect
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_backoff = reconnect_backoff
        self.reconnects = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # the reader thread blocks in recv indefinitely; per-op timeouts
        # are enforced by the waiters on their futures instead
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._dial_lock = threading.Lock()
        self._pending: dict[int, tuple[str, Future]] = {}
        self._next_id = 0
        self._closed = False
        self._connection_lost: Optional[Exception] = None
        self._reader = self._start_reader(self._sock)

    def _start_reader(self, sock: socket.socket) -> threading.Thread:
        # the reader captures its socket: after a reconnect swaps
        # self._sock, a lingering old reader must keep draining the old
        # socket, never the new one
        reader = threading.Thread(
            target=self._read_loop,
            args=(sock,),
            name="tcp-client-reader",
            daemon=True,
        )
        reader.start()
        return reader

    # ------------------------------------------------------------------
    # driver surface
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = 1,
    ) -> Future:
        """Send one estimate request; returns a future of the result."""
        message = _estimate_message(
            workload,
            device,
            trace,
            deadline,
            metadata,
            tenant,
            priority,
            self._clock,
        )
        return self._request(OP_ESTIMATE, message)

    def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float] = None,
    ):
        """Blocking request — the drop-in for ``service.estimate()``."""
        return self.submit(workload, device, deadline=deadline).result(
            self.timeout
        )

    def estimate_many(
        self,
        requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
        return_exceptions: bool = False,
    ) -> list:
        """Bulk request over one frame; results in request order."""
        message = {
            "op": OP_ESTIMATE_MANY,
            "requests": [
                {"workload": w.as_dict(), "device": d.as_dict()}
                for w, d in requests
            ],
        }
        entries = self._request(OP_ESTIMATE_MANY, message).result(
            self.timeout
        )
        results = []
        for entry in entries:
            if entry.get("ok"):
                results.append(result_from_wire(entry["result"]))
                continue
            error = error_from_wire(entry.get("error", {}))
            if not return_exceptions:
                raise error
            results.append(error)
        return results

    def stats(self) -> dict:
        """The server gateway's stats snapshot (one round trip)."""
        return self._request(OP_STATS, {"op": OP_STATS}).result(self.timeout)

    def ping(self) -> float:
        """Round-trip one empty frame; returns seconds taken."""
        started = self._clock()
        self._request(OP_PING, {"op": OP_PING}).result(self.timeout)
        return self._clock() - started

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Ask the server gateway to drain; True when it went idle."""
        message = {"op": OP_DRAIN, "timeout": timeout}
        # the server may legitimately take the whole drain timeout before
        # answering; a None client timeout still means wait forever
        wait = (
            None
            if self.timeout is None
            else self.timeout + (timeout if timeout is not None else 0.0)
        )
        return self._request(OP_DRAIN, message).result(wait)

    def close(self) -> None:
        """Close the socket; outstanding futures fail with ConnectionError."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)
        self._fail_pending(ConnectionError("client closed"))

    def __enter__(self) -> "TcpServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _request(self, op: str, message: dict) -> Future:
        with self._state_lock:
            lost = None if self._closed else self._connection_lost
        if lost is not None:
            if not self._reconnect:
                raise ConnectionLostError(
                    (), f"connection lost and reconnect is off: {lost}"
                )
            self._redial()
        try:
            return self._send_once(op, message)
        except ConnectionLostError:
            # the connection died between our check and the send (or was
            # aborted mid-handshake): one redial, one resend — the
            # request never reached the server's gateway, so resending
            # cannot double-execute it
            if not self._reconnect:
                raise
            self._redial()
            return self._send_once(op, message)

    def _send_once(self, op: str, message: dict) -> Future:
        future: Future = Future()
        with self._state_lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            msg_id = self._next_id
            self._next_id += 1
            self._pending[msg_id] = (op, future)
        message["id"] = msg_id
        frame = encode_frame(message, self.max_frame_bytes)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            lost_error = ConnectionLostError(
                (msg_id,), f"send failed: {error}"
            )
            with self._state_lock:
                self._pending.pop(msg_id, None)
                if self._connection_lost is None:
                    self._connection_lost = lost_error
            raise lost_error from error
        return future

    def _redial(self) -> None:
        """Re-establish the connection with exponential backoff.

        Serialized so concurrent submits after a drop dial once: the
        winner swaps in the fresh socket + reader, the rest observe the
        cleared ``_connection_lost`` flag and proceed.
        """
        with self._dial_lock:
            with self._state_lock:
                if self._closed:
                    raise ServiceClosedError("client is closed")
                if self._connection_lost is None:
                    return  # another submit already reconnected
            delay = self._reconnect_backoff
            last_error: Optional[Exception] = None
            for attempt in range(self._reconnect_attempts):
                if attempt:
                    time.sleep(delay)
                    delay *= 2
                try:
                    sock = socket.create_connection(
                        (self._host, self._port), timeout=self.timeout
                    )
                except OSError as error:
                    last_error = error
                    continue
                sock.settimeout(None)
                old = self._sock
                with self._state_lock:
                    self._sock = sock
                    self._connection_lost = None
                old.close()
                self._reader = self._start_reader(sock)
                self.reconnects += 1
                return
            raise ConnectionLostError(
                (),
                f"reconnect failed after {self._reconnect_attempts} "
                f"attempts: {last_error}",
            )

    def _read_loop(self, sock: socket.socket) -> None:
        decoder = FrameDecoder(self.max_frame_bytes)
        failure: Optional[Exception] = None
        try:
            while True:
                data = sock.recv(_READ_CHUNK)
                if not data:
                    break
                for message in decoder.feed(data):
                    if not self._handle_response(message):
                        return  # connection-level error: loop is done
        except OSError:
            pass  # closed under us (client close or peer reset)
        except WireProtocolError as error:
            failure = error
        with self._state_lock:
            if self._closed:
                return  # deliberate close(): close() fails pending itself
            pending_ids = tuple(sorted(self._pending))
            if failure is None:
                # the server (or the network) dropped us mid-call: typed,
                # with the ids of every request now in limbo
                failure = ConnectionLostError(
                    pending_ids, "server closed connection"
                )
            self._connection_lost = failure
        self._fail_pending(failure)

    def _handle_response(self, message: dict) -> bool:
        msg_id = message.get("id")
        if msg_id is None:
            # connection-level error frame: the server is about to close;
            # every outstanding request dies with the reconstructed error
            self._fail_pending(error_from_wire(message.get("error", {})))
            return False
        with self._state_lock:
            entry = self._pending.pop(msg_id, None)
        if entry is None:
            return True  # duplicate/unknown id: nothing to resolve
        _settle_response(*entry, message)
        return True

    def _fail_pending(self, error: Exception) -> None:
        with self._state_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for _op, future in pending:
            if not future.done():
                future.set_exception(error)


# ----------------------------------------------------------------------
# async client
# ----------------------------------------------------------------------


class AsyncTcpServiceClient:
    """Awaitable TCP client mirroring the async drivers' surface.

    ``submit`` is synchronous and returns an :class:`asyncio.Future`
    (frames go out through the stream writer's buffer), matching
    :meth:`~repro.service.aio.AsyncServiceGateway.submit` closely enough
    that :func:`~repro.service.aio.replay_async` drives it unchanged —
    ``stats()`` is the one awaitable difference, which the replayer
    already accommodates.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._reader = reader
        self._writer = writer
        self.max_frame_bytes = max_frame_bytes
        self._clock = clock
        self._pending: dict[int, tuple[str, asyncio.Future]] = {}
        self._next_id = 0
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "AsyncTcpServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(
            reader, writer, max_frame_bytes=max_frame_bytes, clock=clock
        )

    # ------------------------------------------------------------------
    # driver surface
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = 1,
    ) -> "asyncio.Future":
        """Send one estimate request; returns a future of the result."""
        message = _estimate_message(
            workload,
            device,
            trace,
            deadline,
            metadata,
            tenant,
            priority,
            self._clock,
        )
        return self._request(OP_ESTIMATE, message)

    async def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float] = None,
    ):
        """Awaitable request — the drop-in for ``service.estimate()``."""
        return await self.submit(workload, device, deadline=deadline)

    async def stats(self) -> dict:
        return await self._request(OP_STATS, {"op": OP_STATS})

    async def ping(self) -> float:
        started = self._clock()
        await self._request(OP_PING, {"op": OP_PING})
        return self._clock() - started

    async def drain(self, timeout: Optional[float] = None) -> bool:
        return await self._request(
            OP_DRAIN, {"op": OP_DRAIN, "timeout": timeout}
        )

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncTcpServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _request(self, op: str, message: dict) -> "asyncio.Future":
        if self._closed:
            raise ServiceClosedError("client is closed")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        msg_id = self._next_id
        self._next_id += 1
        self._pending[msg_id] = (op, future)
        message["id"] = msg_id
        self._writer.write(encode_frame(message, self.max_frame_bytes))
        return future

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(self.max_frame_bytes)
        failure: Optional[Exception] = None
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for message in decoder.feed(data):
                    if not self._handle_response(message):
                        return
        except asyncio.CancelledError:
            raise
        except WireProtocolError as error:
            failure = error
        except (ConnectionError, OSError):
            pass
        if self._closed:
            return  # deliberate aclose(): it fails pending itself
        if failure is None:
            failure = ConnectionLostError(
                tuple(sorted(self._pending)), "server closed connection"
            )
        self._fail_pending(failure)

    def _handle_response(self, message: dict) -> bool:
        msg_id = message.get("id")
        if msg_id is None:
            self._fail_pending(error_from_wire(message.get("error", {})))
            return False
        entry = self._pending.pop(msg_id, None)
        if entry is None:
            return True
        _settle_response(*entry, message)
        return True

    def _fail_pending(self, error: Exception) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for _op, future in pending:
            if not future.done():
                future.set_exception(error)


# ----------------------------------------------------------------------
# in-process server harness
# ----------------------------------------------------------------------


class TcpServerThread:
    """Gateway + TCP server on a private event loop in a daemon thread.

    The in-process deployment mode: loadtests and tests get a real
    socket without a second process.  The gateway is constructed *inside*
    the loop thread (its ``asyncio.Event`` must bind to that loop), from
    the factory the caller supplies; ``stop()`` drains and closes both
    server and gateway on the loop, then joins the thread.
    """

    def __init__(
        self,
        gateway_factory: Callable[[], AsyncServiceGateway],
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._gateway_factory = gateway_factory
        self._host = host
        self._port = port
        self._max_frame_bytes = max_frame_bytes
        self._clock = clock
        self.gateway: Optional[AsyncServiceGateway] = None
        self.server: Optional[TcpEstimationServer] = None
        self.address: Optional[tuple[str, int]] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="tcp-server-loop", daemon=True
        )

    def start(self) -> tuple[str, int]:
        """Boot the loop thread; returns the bound (host, port)."""
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError(
                "TCP server failed to start"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Drain + close server and gateway, then join the loop thread."""
        if not self._thread.is_alive():
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "TcpServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    _loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.gateway = self._gateway_factory()
            self.server = TcpEstimationServer(
                self.gateway,
                host=self._host,
                port=self._port,
                max_frame_bytes=self._max_frame_bytes,
                clock=self._clock,
            )
            await self.server.start()
            self.address = self.server.address
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.aclose()
        await self.gateway.aclose()
