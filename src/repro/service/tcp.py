"""Asyncio TCP transport over the sans-IO service core.

The fourth execution substrate: where the thread, asyncio, and process
drivers all run the policy core in one process, this module puts a real
socket between caller and core.  Everything here is a *shell*: it owns
a socket or a transport, the thread or loop that reads it, and nothing
that looks inside a frame — what either end of a connection decides
lives in the sans-IO :mod:`repro.service.wire`
(:class:`~repro.service.wire.ServerProtocol`,
:class:`~repro.service.wire.ClientProtocol`).  Every policy decision
(routing, admission, cache, dedup, deadline, telemetry) still happens in
the :class:`~repro.service.aio.AsyncServiceGateway` behind the server,
so a TCP replay is byte-identical to an in-process one.  This mirrors
how fastmcp layers interchangeable transports over one middleware
server: the server object is transport-blind, the transport is
policy-blind.

Pieces:

* :class:`TcpServerThread` — gateway + asyncio server on a private
  event loop in a daemon thread, exposing the ``ping`` / ``estimate`` /
  ``estimate_many`` / ``stats`` / ``drain`` ops.  Per connection: one
  :class:`asyncio.Protocol` around one
  :class:`~repro.service.wire.ServerProtocol`, so a read costs one turn
  of the loop: ``data_received`` hands the chunk to the protocol, which
  runs the gateway's *synchronous* submit step inline, in frame-arrival
  order — which is what keeps canonical ledger sequences identical to
  the in-process drivers.  The answers written while that call runs
  (cache hits, refusals) are joined into one ``transport.write``; an
  answer that settles later is written from its future's completion
  callback: there is no task and no lock per response.  A transport
  whose write buffer is full stops being read (back-pressure).  The one
  thing the shell awaits on the protocol's behalf is the ``drain`` op.
  Malformed frames are answered with a connection-level error frame and
  a clean close; they never take the server down.
* :class:`TcpServiceClient` — blocking client with the driver ``submit``
  surface (returns :class:`concurrent.futures.Future`), so the existing
  :func:`~repro.service.replayer.replay` drives it unchanged.  It is a
  shell over the sans-IO :class:`~repro.service.wire.ClientProtocol`:
  it holds a socket, the thread that reads it and the dial loop; ids,
  frames, the pending table and every decision about a response or a
  lost connection live in the protocol.  Asyncio callers in the same
  process use :class:`~repro.service.aio.AsyncServiceGateway` directly.

Deadlines cross the wire as *remaining budget* and are rebased onto the
server's clock (see :mod:`repro.service.wire`); results come back
curve-less but otherwise exact.  A request carries a workload, never a
CPU profile: serving-tier estimators profile (or synthesize) server-side.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Sequence

from ..errors import ConnectionLostError, ServiceClosedError
from ..workload import DeviceSpec, WorkloadConfig
from .aio import AsyncServiceGateway
from .wire import ClientProtocol, ServerProtocol

__all__ = ["TcpServerThread", "TcpServiceClient"]

_READ_CHUNK = 64 * 1024
#: recv() size of a server connection's transport: small enough that
#: malloc serves it from a free list, not from the top of the heap
_TRANSPORT_READ_BYTES = 16 * 1024
#: a lost connection is re-dialed this many times, sleeping
#: ``_RECONNECT_BACKOFF`` seconds before the second try and twice as
#: long before each one after
_RECONNECT_ATTEMPTS = 4
_RECONNECT_BACKOFF = 0.02


class TcpServerThread:
    """Gateway + TCP server on a private event loop in a daemon thread.

    Serves the wire ops over TCP: one :class:`_Connection` per accepted
    connection around one :class:`~repro.service.wire.ServerProtocol`.
    The gateway is constructed *inside* the loop thread (its
    ``asyncio.Event`` must bind to that loop), from the factory the
    caller supplies; ``stop()`` closes the listener, drains and closes
    the gateway on the loop, then resets every connection still open,
    and joins the thread.

    ``clock`` must be the same clock the gateway's cores use for deadline
    checks (``time.perf_counter`` by default everywhere) — rebased wire
    deadlines are expressed in it.
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
        #: the bound (host, port) — resolves ``port=0`` once started
        self.address: Optional[tuple[str, int]] = None
        self.connections_served = 0
        #: connections dropped for framing/schema violations (diagnostic)
        self.protocol_errors = 0
        #: connections aborted by the fault plan (``connection_drop``)
        self.injected_drops = 0
        self._drains: set[asyncio.Task] = set()
        self._transports: set[asyncio.Transport] = set()
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="tcp-server-loop",
            daemon=True,
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

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.gateway = self._gateway_factory()
            listener = await self._loop.create_server(
                lambda: _Connection(self), self._host, self._port
            )
            self.address = listener.sockets[0].getsockname()[:2]
        except BaseException as error:
            self._startup_error = error
            return
        finally:
            self._ready.set()
        await self._stop.wait()
        listener.close()
        await self.gateway.aclose()
        # what was admitted has been answered: reset every connection
        # still open, and let the loop close their sockets (and tell
        # their protocols) before it closes itself
        for transport in tuple(self._transports):
            transport.abort()
        await asyncio.sleep(0)

    def _drain(
        self, timeout: Optional[float], verdict: Callable[[bool], None]
    ) -> None:
        """The protocol's one awaitable effect: drain the gateway."""

        async def drain() -> None:
            verdict(await self.gateway.drain(timeout))

        task = asyncio.get_running_loop().create_task(drain())
        self._drains.add(task)  # the loop holds a task only weakly
        task.add_done_callback(self._drains.discard)


class _Connection(asyncio.Protocol):
    """One accepted connection: a shell around one
    :class:`~repro.service.wire.ServerProtocol`.

    Each read is one ``data_received`` on the loop, handed to the
    protocol whole.  The answers the protocol writes while that call
    runs (cache hits, refusals, ``ping``, ``stats``) are joined and
    written once, when it returns or before the protocol closes or
    aborts the connection; answers that settle later (misses, ``drain``)
    are written as they come.  Back-pressure: while the transport's
    write buffer is over its high-water mark, the connection is not
    read, so a peer that does not read its answers gets no more
    requests admitted.
    """

    def __init__(self, server: TcpServerThread):
        self._server = server
        self._reading = True
        #: frames written during one ``data_received``; None outside it
        self._batch: Optional[list[bytes]] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._server.connections_served += 1
        self._server._transports.add(transport)
        # asyncio recv()s into a fresh 256 KiB buffer per read event and
        # frees it again, for request frames well under 1 KiB.  When that
        # buffer lands at the top of a glibc heap, the pair grows and
        # trims the heap on every request (~+20 us CPU, +40 us a round
        # trip on loopback) — and whether it lands there flips with any
        # unrelated change to what the process allocated before
        transport.max_size = _TRANSPORT_READ_BYTES
        self._transport = transport
        self._protocol = ServerProtocol(
            self._server.gateway,
            self._server._clock,
            write=self._write,
            close=lambda: self._flush() or transport.close(),
            abort=lambda: self._flush() or transport.abort(),
            drain=self._server._drain,
        )

    def data_received(self, data: bytes) -> None:
        self._batch = []
        try:
            if not self._protocol.receive(data):
                self._end_reading()  # the protocol ended it
        finally:
            self._flush()

    def eof_received(self) -> bool:
        self._end_reading(peer_gone=True)  # orderly client disconnect
        # keep the transport: the protocol closes it once what is still
        # outstanding has settled the gateway accounting
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._transports.discard(self._transport)
        self._end_reading(peer_gone=True)  # reset, or the peer vanished

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        if self._reading:
            self._transport.resume_reading()

    def _write(self, frame: bytes) -> None:
        # a whole frame goes out in one synchronous write() on the loop,
        # so the frames of concurrent answers cannot interleave
        if self._batch is None:
            self._transport.write(frame)
        else:
            self._batch.append(frame)

    def _flush(self) -> None:
        """Write the read's batch; later frames go out on their own."""
        batch, self._batch = self._batch, None
        if batch:
            self._transport.write(b"".join(batch))

    def _end_reading(self, peer_gone: bool = False) -> None:
        if self._reading:
            self._reading = False
            self._transport.pause_reading()
            if peer_gone:
                self._protocol.connection_ended()
            # the counters move in the callback that ended reading, so
            # before the peer sees the connection end (a close or an
            # abort leaves on the loop's next turn)
            self._server.protocol_errors += self._protocol.protocol_errors
            self._server.injected_drops += self._protocol.injected_drops


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
    :func:`~repro.service.replayer.replay` drives this client unchanged.

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
        deadline: Optional[float] = None,
        metadata: Optional[dict] = None,
        tenant: str = "",
        priority: int = 1,
    ) -> Future:
        """Send one estimate request; returns a future of the result."""
        return self._send(
            self._protocol.estimate_request,
            workload, device, deadline, metadata, tenant, priority,
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
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
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
        # OSError: closed under us (client close or peer reset)
        with contextlib.suppress(OSError):
            while True:
                data = sock.recv(_READ_CHUNK)
                if not data or not self._protocol.receive(data, connection):
                    break
        self._protocol.connection_ended(connection=connection)
