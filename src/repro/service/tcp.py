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
  :func:`~repro.service.aio.replay_async`.  Both clients are shells over
  the one sans-IO :class:`~repro.service.wire.ClientProtocol`: a shell
  holds a socket, the thread or task that reads it and (blocking only)
  the dial loop; ids, frames, the pending table and every decision
  about a response or a lost connection live in the protocol.
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
from .context import NullLock
from .wire import (
    OP_DRAIN,
    OP_ESTIMATE,
    OP_ESTIMATE_MANY,
    OP_PING,
    OP_STATS,
    ClientProtocol,
    FrameDecoder,
    WireProtocolError,
    encode_frame,
    error_response,
    ok_response,
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
#: a lost connection is re-dialed this many times, sleeping
#: ``_RECONNECT_BACKOFF`` seconds before the second try and twice as
#: long before each one after
_RECONNECT_ATTEMPTS = 4
_RECONNECT_BACKOFF = 0.02


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
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
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
        decoder = FrameDecoder()
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
            frame = encode_frame(payload)
        except WireProtocolError as error:
            # the response itself would not frame (oversized/unencodable
            # detail) — tell the client *something* rather than leaving
            # its future hanging
            frame = encode_frame(error_response(payload.get("id"), error))
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# blocking client
# ----------------------------------------------------------------------


class TcpServiceClient:
    """Blocking TCP client with the in-process drivers' submit surface.

    A shell over :class:`~repro.service.wire.ClientProtocol`: it owns
    the socket, the reader thread, the send lock and the dial loop, and
    nothing that looks inside a frame.  ``submit`` writes one frame and
    returns a :class:`concurrent.futures.Future`; the reader thread
    hands what it reads to the protocol, which resolves pending futures
    as response frames arrive (matched by message id, so responses may
    come back out of order).  Wire errors are reconstructed as their
    local exception types — a shed raises
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
        clock: Callable[[], float] = time.perf_counter,
        reconnect: bool = False,
    ):
        self.timeout = timeout
        self._clock = clock
        self._address = (host, port)
        self._reconnect = reconnect
        self.reconnects = 0
        self._protocol = ClientProtocol(threading.Lock(), Future, clock)
        self._send_lock = threading.Lock()
        self._dial_lock = threading.Lock()
        self._sock = self._dial()
        self._start_reader(self._sock, 0)

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self.timeout)
        # the reader thread blocks in recv indefinitely; per-op timeouts
        # are enforced by the waiters on their futures instead
        sock.settimeout(None)
        return sock

    def _start_reader(self, sock: socket.socket, connection: int) -> None:
        # the reader captures its socket and that socket's connection
        # number: after a reconnect swaps self._sock, a lingering old
        # reader keeps draining the old socket, never the new one, and
        # the protocol drops what it reports
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(sock, connection),
            name="tcp-client-reader",
            daemon=True,
        )
        self._reader.start()

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
        return self._send(
            self._protocol.estimate_request,
            workload, device, trace, deadline, metadata, tenant, priority,
        )

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
        results = self._send(
            self._protocol.estimate_many_request, requests
        ).result(self.timeout)
        if not return_exceptions:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    def stats(self) -> dict:
        """The server gateway's stats snapshot (one round trip)."""
        return self._send(self._protocol.stats_request).result(self.timeout)

    def ping(self) -> float:
        """Round-trip one empty frame; returns seconds taken."""
        started = self._clock()
        self._send(self._protocol.ping_request).result(self.timeout)
        return self._clock() - started

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Ask the server gateway to drain; True when it went idle."""
        # the server may legitimately take the whole drain timeout before
        # answering; a None client timeout still means wait forever
        wait = (
            None
            if self.timeout is None
            else self.timeout + (timeout if timeout is not None else 0.0)
        )
        return self._send(self._protocol.drain_request, timeout).result(wait)

    def close(self) -> None:
        """Close the socket; outstanding futures fail with ConnectionError."""
        self._protocol.close()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "TcpServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _send(self, build: Callable[..., tuple], *args) -> Future:
        """Frame one request with ``build`` (a protocol op) and write it."""
        try:
            return self._write(build(*args))
        except ConnectionLostError:
            # the protocol refused (the connection is known lost) or the
            # write failed (it died just now, or was aborted
            # mid-handshake): one redial, one resend — the request never
            # reached the server's gateway, so resending cannot
            # double-execute it
            if not self._reconnect:
                raise
            self._redial()
            return self._write(build(*args))

    def _write(self, request: tuple) -> Future:
        msg_id, frame, future = request
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            raise self._protocol.send_failed(msg_id, error) from error
        return future

    def _redial(self) -> None:
        """Re-establish a lost connection with exponential backoff.

        Serialized so concurrent submits after a drop dial once: the
        winner swaps in the fresh socket + reader, the rest find the
        connection no longer lost and proceed.
        """
        with self._dial_lock:
            if self._protocol.lost is None:
                return  # healthy, or another submit already reconnected
            last_error: Optional[Exception] = None
            for attempt in range(_RECONNECT_ATTEMPTS):
                if attempt:
                    time.sleep(_RECONNECT_BACKOFF * 2 ** (attempt - 1))
                try:
                    sock = self._dial()
                except OSError as error:
                    last_error = error
                    continue
                # socket first: once the protocol accepts requests
                # again, they must be written to the new one
                old, self._sock = self._sock, sock
                try:
                    connection = self._protocol.reconnected()
                except ServiceClosedError:
                    sock.close()  # close() won the race
                    raise
                finally:
                    old.close()
                self._start_reader(sock, connection)
                self.reconnects += 1
                return
            raise ConnectionLostError(
                (),
                f"reconnect failed after {_RECONNECT_ATTEMPTS} "
                f"attempts: {last_error}",
            )

    def _read_loop(self, sock: socket.socket, connection: int) -> None:
        try:
            while True:
                data = sock.recv(_READ_CHUNK)
                if not data or not self._protocol.receive(data, connection):
                    break
        except OSError:
            pass  # closed under us (client close or peer reset)
        self._protocol.connection_ended(connection=connection)


# ----------------------------------------------------------------------
# async client
# ----------------------------------------------------------------------


class AsyncTcpServiceClient:
    """Awaitable TCP client mirroring the async drivers' surface.

    The other shell over :class:`~repro.service.wire.ClientProtocol`: a
    stream pair and the task that reads it.  ``submit`` is synchronous
    and returns an :class:`asyncio.Future` (frames go out through the
    stream writer's buffer), matching
    :meth:`~repro.service.aio.AsyncServiceGateway.submit` closely enough
    that :func:`~repro.service.aio.replay_async` drives it unchanged —
    ``stats()`` is the one awaitable difference, which the replayer
    already accommodates.  It never re-dials: once the connection is
    lost, ``submit`` raises :class:`~repro.errors.ConnectionLostError`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._reader = reader
        self._writer = writer
        self._clock = clock
        loop = asyncio.get_running_loop()
        self._protocol = ClientProtocol(NullLock(), loop.create_future, clock)
        self._read_task = loop.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "AsyncTcpServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, clock=clock)

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
        return self._write(
            self._protocol.estimate_request(
                workload, device, trace, deadline, metadata, tenant, priority
            )
        )

    async def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        deadline: Optional[float] = None,
    ):
        """Awaitable request — the drop-in for ``service.estimate()``."""
        return await self.submit(workload, device, deadline=deadline)

    async def stats(self) -> dict:
        return await self._write(self._protocol.stats_request())

    async def ping(self) -> float:
        started = self._clock()
        await self._write(self._protocol.ping_request())
        return self._clock() - started

    async def drain(self, timeout: Optional[float] = None) -> bool:
        return await self._write(self._protocol.drain_request(timeout))

    async def aclose(self) -> None:
        self._protocol.close()
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

    async def __aenter__(self) -> "AsyncTcpServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _write(self, request: tuple) -> "asyncio.Future":
        _msg_id, frame, future = request
        self._writer.write(frame)
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data or not self._protocol.receive(data):
                    break
        except OSError:
            pass  # reset under us; cancellation (aclose) propagates
        self._protocol.connection_ended()


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
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._gateway_factory = gateway_factory
        self._host = host
        self._port = port
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
