"""TCP transport: the sans-IO core behind a real socket.

The server is a thin shell over :class:`AsyncServiceGateway` — these
tests pin that the shell adds nothing and loses nothing: results are
byte-identical to in-process drivers, the full exception taxonomy
crosses the wire as typed errors, deadlines rebase across arbitrarily
skewed client clocks, and malformed or vanishing peers never take the
server down.  Each test boots its own in-process server thread
(:class:`TcpServerThread`), so tests are independent and loop-clean.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket
import struct
import threading
import time
from functools import partial

import pytest

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.service import (
    AsyncServiceGateway,
    FaultPlan,
    FaultSpec,
    ServiceGateway,
    SyntheticEstimator,
    TcpServerThread,
    TcpServiceClient,
    Telemetry,
    default_resilience,
    generate_traffic,
    replay,
)
from repro.service.tcp import _Connection
from repro.service.wire import FrameDecoder, WireProtocolError, encode_frame
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig
from tests.test_service_wire import (
    GOLDEN_BAD_PAYLOAD,
    GOLDEN_ID_NULL,
    GOLDEN_OK_ESTIMATE,
    GOLDEN_PING_OK,
    GOLDEN_SHED,
    RESULT,
    SHED,
    StubGateway,
)

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)
OTHER = WorkloadConfig("MobileNetV2", "adam", 16)


@contextlib.contextmanager
def tcp_server(**gateway_kwargs):
    gateway_kwargs.setdefault("num_shards", 2)
    gateway_kwargs.setdefault(
        "estimator_factory", partial(SyntheticEstimator)
    )
    factory = partial(AsyncServiceGateway, **gateway_kwargs)
    with TcpServerThread(factory) as server:
        yield server


def _recv_frames(sock, count, timeout=10.0):
    """Read ``count`` frames off a raw socket (or fewer on EOF)."""
    sock.settimeout(timeout)
    decoder = FrameDecoder()
    messages = []
    while len(messages) < count:
        data = sock.recv(65536)
        if not data:
            break
        messages.extend(decoder.feed(data))
    return messages


class TestBlockingClient:
    def test_estimate_byte_identical_to_direct_call(self):
        direct = SyntheticEstimator().estimate(WORKLOAD, RTX_3060)
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                over_wire = client.estimate(WORKLOAD, RTX_3060)
        assert over_wire == direct
        assert over_wire.peak_bytes == direct.peak_bytes
        assert over_wire.detail == direct.detail

    def test_estimate_many_preserves_request_order(self):
        pairs = [(WORKLOAD, RTX_3060), (OTHER, RTX_4060), (WORKLOAD, RTX_3060)]
        expected = [SyntheticEstimator().estimate(w, d) for w, d in pairs]
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                results = client.estimate_many(pairs)
        assert results == expected

    def test_estimate_many_surfaces_per_request_errors(self):
        bad = WorkloadConfig("no-such-model", "sgd", 8)
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                with pytest.raises(RequestRejectedError):
                    client.estimate_many([(WORKLOAD, RTX_3060), (bad, RTX_3060)])
                mixed = client.estimate_many(
                    [(WORKLOAD, RTX_3060), (bad, RTX_3060)],
                    return_exceptions=True,
                )
        assert mixed[0].peak_bytes > 0
        assert isinstance(mixed[1], RequestRejectedError)

    def test_ping_stats_drain(self):
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                assert client.ping() < 5.0
                client.estimate(WORKLOAD, RTX_3060)
                stats = client.stats()
                assert stats["gateway"]["requests"] == 1
                assert stats["aggregate"]["requests"] >= 1
                assert client.drain(timeout=5.0) is True
                # post-drain the gateway refuses — as a typed wire error
                future = client.submit(OTHER, RTX_4060)
                with pytest.raises(ServiceClosedError):
                    future.result(5.0)

    def test_validation_rejection_crosses_the_wire_typed(self):
        bad = WorkloadConfig("no-such-model", "sgd", 8)
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                future = client.submit(bad, RTX_3060)
                with pytest.raises(RequestRejectedError):
                    future.result(5.0)
                # the connection survived the rejection
                assert client.estimate(WORKLOAD, RTX_3060).peak_bytes > 0

    def test_cancelling_a_pending_future_leaves_the_reader_alive(self):
        # regression: the response to a caller-cancelled request used to
        # raise InvalidStateError inside the reader thread, which died
        # without marking the connection lost — every later call then
        # blocked for the whole client timeout
        slow = partial(SyntheticEstimator, work_seconds=0.2)
        with tcp_server(estimator_factory=slow) as server:
            with TcpServiceClient(*server.address, timeout=2.0) as client:
                abandoned = client.submit(WORKLOAD, RTX_3060)
                assert abandoned.cancel()
                # its frame arrives before this one's answer does
                assert client.estimate(OTHER, RTX_3060).peak_bytes > 0
                assert client._reader.is_alive()

    def test_replay_accounting_matches_threads_driver(self):
        trace = generate_traffic(
            "adversarial", 60, seed=3, unique_workloads=6
        )
        with ServiceGateway(
            num_shards=2, estimator_factory=partial(SyntheticEstimator)
        ) as gateway:
            reference = replay(trace, gateway)
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                networked = replay(trace, client)
        assert networked.answered == reference.answered
        assert networked.rejected == reference.rejected
        assert networked.shed == reference.shed
        assert networked.errors == reference.errors == 0


class TestDeadlinesOverTheWire:
    def test_deadline_rebases_across_a_skewed_client_clock(self):
        """A client whose monotonic epoch is hours away from the server's
        must still get correct deadline semantics — only *budget* crosses
        the wire.  (With absolute stamps on the wire, the +10000s skew
        below would make every deadline look infinitely generous.)"""
        skewed = lambda: time.perf_counter() + 10_000.0  # noqa: E731
        with tcp_server() as server:
            with TcpServiceClient(*server.address, clock=skewed) as client:
                # plenty of budget: served normally despite the skew
                result = client.estimate(
                    WORKLOAD, RTX_3060, deadline=skewed() + 30.0
                )
                assert result.peak_bytes > 0
                # already-blown budget: typed deadline error, not a serve
                future = client.submit(
                    OTHER, RTX_4060, deadline=skewed() - 0.5
                )
                with pytest.raises(DeadlineExceededError) as excinfo:
                    future.result(5.0)
        assert excinfo.value.late_by_seconds >= 0.5 - 1e-3

    def test_negative_skew_is_equally_harmless(self):
        skewed = lambda: time.perf_counter() - 10_000.0  # noqa: E731
        with tcp_server() as server:
            with TcpServiceClient(*server.address, clock=skewed) as client:
                result = client.estimate(
                    WORKLOAD, RTX_3060, deadline=skewed() + 30.0
                )
                assert result.peak_bytes > 0


class TestProtocolViolations:
    """Malformed peers get an error frame and a clean close — never a
    crashed or wedged server."""

    def _raw(self, address):
        return socket.create_connection(address, timeout=10.0)

    def test_garbage_body_answered_and_closed(self):
        with tcp_server() as server:
            with self._raw(server.address) as sock:
                body = b"this is not json"
                sock.sendall(struct.pack(">I", len(body)) + body)
                frames = _recv_frames(sock, 1)
                assert frames and frames[0]["ok"] is False
                assert frames[0]["id"] is None
                assert frames[0]["error"]["type"] == "protocol"
                assert sock.recv(1) == b""  # server closed the connection
            # and the server is still serving fresh connections
            with TcpServiceClient(*server.address) as client:
                assert client.estimate(WORKLOAD, RTX_3060).peak_bytes > 0
            assert server.protocol_errors == 1

    def test_oversized_header_answered_and_closed(self):
        with tcp_server() as server:
            with self._raw(server.address) as sock:
                sock.sendall(struct.pack(">I", 2**31))
                frames = _recv_frames(sock, 1)
                assert frames[0]["error"]["type"] == "protocol"
                assert sock.recv(1) == b""
            with TcpServiceClient(*server.address) as client:
                assert client.ping() < 5.0

    def test_unknown_op_answered_and_closed(self):
        with tcp_server() as server:
            with self._raw(server.address) as sock:
                sock.sendall(encode_frame({"op": "transmogrify", "id": 1}))
                frames = _recv_frames(sock, 1)
                assert frames[0]["id"] is None
                assert frames[0]["error"]["type"] == "protocol"
                assert sock.recv(1) == b""

    def test_bad_payload_in_valid_frame_keeps_connection_open(self):
        """A structurally bad *request* inside a well-formed frame is a
        per-request failure, not a connection failure."""
        with tcp_server() as server:
            with self._raw(server.address) as sock:
                sock.sendall(
                    encode_frame(
                        {
                            "op": "estimate",
                            "id": 0,
                            "request": {"workload": {"model": 7}},
                        }
                    )
                )
                sock.sendall(encode_frame({"op": "ping", "id": 1}))
                frames = _recv_frames(sock, 2)
                by_id = {frame["id"]: frame for frame in frames}
                assert by_id[0]["ok"] is False
                assert by_id[0]["error"]["type"] == "protocol"
                assert by_id[1]["ok"] is True  # still talking

    def test_gateway_only_metadata_is_refused_before_it_is_counted(self):
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                for metadata in (
                    {"fault": {"kind": "estimator_error"}},
                    {"attempt": "x"},
                ):
                    future = client.submit(
                        WORKLOAD, RTX_3060, metadata=metadata
                    )
                    with pytest.raises(WireProtocolError):
                        future.result(5.0)
                assert client.estimate(WORKLOAD, RTX_3060).peak_bytes > 0
                fleet = client.stats()["aggregate"]
        assert fleet["requests"] == 1
        assert fleet["computed"] + fleet["errors"] == 1

    def test_a_malformed_telemetry_context_is_refused_before_it_is_counted(
        self,
    ):
        """On a traced, resilient gateway the peer's span context reaches
        the tracer as sent, so a malformed one is refused at the wire."""
        with tcp_server(
            num_shards=1,
            telemetry=Telemetry(),
            resilience=default_resilience(),
        ) as server:
            with TcpServiceClient(*server.address) as client:
                for context in (5, {"span_id": "x"}, "abc"):
                    future = client.submit(
                        WORKLOAD, RTX_3060, metadata={"telemetry": context}
                    )
                    with pytest.raises(WireProtocolError):
                        future.result(5.0)
                assert client.estimate(WORKLOAD, RTX_3060).peak_bytes > 0
                fleet = client.stats()["aggregate"]
        outcomes = (
            "cache_hits",
            "computed",
            "deduplicated",
            "rejected",
            "throttled",
            "errors",
        )
        assert fleet["requests"] == 1
        assert fleet["requests"] == sum(fleet[key] for key in outcomes)

    def test_frame_split_across_many_sends_still_parses(self):
        frame = encode_frame({"op": "ping", "id": 9})
        with tcp_server() as server:
            with self._raw(server.address) as sock:
                for index in range(len(frame)):
                    sock.sendall(frame[index : index + 1])
                frames = _recv_frames(sock, 1)
                assert frames[0] == {"id": 9, "ok": True}

    def test_mid_request_disconnect_leaves_server_healthy(self):
        with tcp_server(
            estimator_factory=partial(SyntheticEstimator, work_seconds=0.05)
        ) as server:
            client = TcpServiceClient(*server.address)
            client.submit(WORKLOAD, RTX_3060)  # in flight...
            client.close()  # ...and the caller vanishes
            # the abandoned estimate settles; accounting stays coherent
            with TcpServiceClient(*server.address) as fresh:
                assert fresh.drain(timeout=10.0) is True
                stats = fresh.stats()
        assert stats["gateway"]["requests"] >= 1
        assert stats["gateway"]["pending"] == 0


class TestConnectionLoss:
    """Planned connection drops surface as typed, id-carrying errors."""

    def drop_first_request_plan(self):
        return FaultPlan.from_specs(
            [FaultSpec(kind="connection_drop", index=0)]
        )

    def test_drop_surfaces_typed_error_with_pending_ids(self):
        with tcp_server(fault_plan=self.drop_first_request_plan()) as server:
            client = TcpServiceClient(*server.address)
            try:
                future = client.submit(WORKLOAD, RTX_3060)
                with pytest.raises(ConnectionLostError) as excinfo:
                    future.result(10.0)
                # the in-flight message id is named, and the type slots
                # into the existing closed-service taxonomy
                assert len(excinfo.value.pending_request_ids) == 1
                assert isinstance(excinfo.value, ServiceClosedError)
                # without reconnect the client is dead — typed, not raw
                with pytest.raises(ConnectionLostError, match="reconnect"):
                    client.submit(OTHER, RTX_4060)
            finally:
                client.close()
            assert server.injected_drops == 1

    def test_reconnect_restores_service_after_a_drop(self):
        direct = SyntheticEstimator().estimate(OTHER, RTX_4060)
        with tcp_server(fault_plan=self.drop_first_request_plan()) as server:
            with TcpServiceClient(
                *server.address, reconnect=True
            ) as client:
                # the dropped request itself is lost (it may have reached
                # the server, so it is never blindly resent)...
                with pytest.raises(ConnectionLostError):
                    client.estimate(WORKLOAD, RTX_3060)
                # ...but the next call redials and is served normally
                assert client.estimate(OTHER, RTX_4060) == direct
                assert client.reconnects == 1

    def test_an_unframeable_request_is_not_reported_as_in_flight(self):
        # regression: the request was registered before it was encoded,
        # so the id of one that never left the process stayed pending
        with tcp_server(fault_plan=self.drop_first_request_plan()) as server:
            with TcpServiceClient(*server.address) as client:
                with pytest.raises(WireProtocolError):
                    client.submit(WORKLOAD, RTX_3060, metadata={"x": object()})
                with pytest.raises(ConnectionLostError) as excinfo:
                    client.estimate(OTHER, RTX_4060)
        assert len(excinfo.value.pending_request_ids) == 1


class TestServerLifecycle:
    def test_startup_failure_is_reported(self):
        def exploding_factory():
            raise RuntimeError("no gateway for you")

        server = TcpServerThread(exploding_factory)
        with pytest.raises(RuntimeError, match="failed to start"):
            server.start()

    def test_stop_hangs_up_on_a_connected_client_quietly(self, caplog):
        # regression: stop() cancelled the connection's read task, and
        # the asyncio logger recorded the CancelledError as an error
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with tcp_server() as server:
                client = TcpServiceClient(*server.address, timeout=5.0)
                client.estimate(WORKLOAD, RTX_3060)
        try:
            # the connection ended with the server, not at the timeout
            started = time.monotonic()
            with pytest.raises(ConnectionLostError):
                client.estimate(WORKLOAD, RTX_3060)
            assert time.monotonic() - started < 1.0
        finally:
            client.close()
        errors = [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []

    def test_stop_is_idempotent(self):
        with tcp_server() as server:
            pass
        server.stop()  # second stop: no-op, no error

    def test_connections_served_counter(self):
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as a:
                a.ping()
            with TcpServiceClient(*server.address) as b:
                b.ping()
            # handler bookkeeping lives on the loop thread; the counter
            # increments at accept, which both pings have forced already
            assert server.connections_served == 2

    def test_stats_round_trip_preserves_json_shape(self):
        with tcp_server() as server:
            with TcpServiceClient(*server.address) as client:
                client.estimate(WORKLOAD, RTX_3060)
                stats = client.stats()
                # wire stats are the gateway's stats dict, JSON-round-tripped
                assert json.loads(json.dumps(stats)) == stats
                gateway_stats = server.gateway.stats()
        assert stats["gateway"]["requests"] == gateway_stats["gateway"]["requests"]


class TestBackPressure:
    def test_a_peer_that_reads_no_answers_gets_no_more_requests_admitted(
        self,
    ):
        """The server stops reading a connection whose answers pile up
        unread, and reads it again once the peer catches up."""
        request = {"workload": WORKLOAD.as_dict(), "device": RTX_3060.as_dict()}
        burst = b"".join(
            encode_frame({"op": "estimate", "id": index, "request": request})
            for index in range(100)
        )
        sending = threading.Event()
        sending.set()

        def send(peer):
            with contextlib.suppress(OSError):
                while sending.is_set():
                    peer.sendall(burst)

        def read(peer):
            with contextlib.suppress(OSError):
                while peer.recv(65536):
                    pass

        with tcp_server() as server, TcpServiceClient(
            *server.address
        ) as probe, socket.socket() as peer:

            def admitted():
                return probe.stats()["gateway"]["requests"]

            peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            peer.connect(server.address)
            sender = threading.Thread(target=send, args=(peer,), daemon=True)
            sender.start()
            # every estimate is a cache hit after the first: without
            # back-pressure the count would climb for as long as the
            # peer sends
            counts = [admitted()]
            deadline = time.monotonic() + 20.0
            while not (counts[-1] > 0 and len(set(counts[-6:])) == 1):
                assert time.monotonic() < deadline, counts[-6:]
                time.sleep(0.1)
                counts.append(admitted())
            stalled = counts[-1]
            reader = threading.Thread(target=read, args=(peer,), daemon=True)
            reader.start()
            deadline = time.monotonic() + 20.0
            while admitted() <= stalled:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            sending.clear()
            sender.join(10.0)
            peer.shutdown(socket.SHUT_RDWR)
            reader.join(10.0)
        assert not sender.is_alive() and not reader.is_alive()


# ----------------------------------------------------------------------
# the connection shell, driven without a socket
# ----------------------------------------------------------------------


class FakeTransport:
    """Records what a connection asks of its transport, in order."""

    def __init__(self):
        self.log: list = []
        self.reading = True

    def write(self, data: bytes) -> None:
        self.log.append(("write", bytes(data)))

    def close(self) -> None:
        self.log.append("close")

    def abort(self) -> None:
        self.log.append("abort")

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def writes(self) -> list[bytes]:
        return [entry[1] for entry in self.log if entry[0] == "write"]


class SettledGateway(StubGateway):
    """Answers every admitted estimate at once, as a cache hit does."""

    def submit(self, workload, device, **options):
        future = super().submit(workload, device, **options)
        future.set_result(RESULT)
        return future


def connect(gateway):
    server = TcpServerThread(lambda: gateway)  # never started
    server.gateway = gateway
    transport = FakeTransport()
    connection = _Connection(server)
    connection.connection_made(transport)
    return connection, transport, server


def estimate_frame(msg_id, request):
    return encode_frame({"op": "estimate", "id": msg_id, "request": request})


def payload(workload):
    return {"workload": workload.as_dict(), "device": RTX_3060.as_dict()}


class TestConnectionShell:
    def test_the_answers_of_one_read_leave_in_one_write(self):
        gateway = SettledGateway(
            refuse={"shed": RateLimitExceededError(1.5)}
        )
        connection, transport, _ = connect(gateway)
        connection.data_received(
            estimate_frame(0, payload(WORKLOAD))
            + estimate_frame(1, {"workload": {"model": 7}})
            + estimate_frame(2, payload(SHED))
        )
        assert transport.log == [
            ("write", GOLDEN_OK_ESTIMATE + GOLDEN_BAD_PAYLOAD + GOLDEN_SHED)
        ]

    def test_an_answer_that_settles_later_is_written_on_its_own(self):
        connection, transport, server = connect(gateway := StubGateway())
        connection.data_received(
            estimate_frame(0, payload(WORKLOAD))
            + encode_frame({"op": "ping", "id": 4})
        )
        assert transport.writes() == [GOLDEN_PING_OK]
        gateway.future().set_result(RESULT)
        assert transport.writes() == [GOLDEN_PING_OK, GOLDEN_OK_ESTIMATE]
        assert transport.reading and server.protocol_errors == 0

    def test_a_bad_frame_is_answered_before_the_close(self):
        connection, transport, server = connect(StubGateway())
        connection.data_received(
            encode_frame({"op": "ping", "id": 4})
            + encode_frame({"op": "transmogrify", "id": 7})
        )
        assert transport.log == [
            ("write", GOLDEN_PING_OK + GOLDEN_ID_NULL),
            "close",
        ]
        assert not transport.reading and server.protocol_errors == 1

    def test_what_was_answered_leaves_before_a_planned_drop(self):
        connection, transport, server = connect(StubGateway(drops={0}))
        connection.data_received(
            encode_frame({"op": "ping", "id": 4})
            + estimate_frame(0, payload(WORKLOAD))
        )
        assert transport.log == [("write", GOLDEN_PING_OK), "abort", "close"]
        assert server.injected_drops == 1

    def test_a_full_write_buffer_pauses_reading(self):
        connection, transport, _ = connect(StubGateway())
        connection.pause_writing()
        assert not transport.reading
        connection.resume_writing()
        assert transport.reading

    def test_draining_the_buffer_does_not_resume_an_ended_connection(self):
        connection, transport, _ = connect(gateway := StubGateway())
        # the estimate stays outstanding, so the connection stays open
        connection.data_received(
            estimate_frame(0, payload(WORKLOAD))
            + encode_frame({"op": "transmogrify", "id": 7})
        )
        assert transport.writes() == [GOLDEN_ID_NULL]
        connection.pause_writing()
        connection.resume_writing()
        assert not transport.reading
        gateway.future().set_result(RESULT)
        assert transport.log[-2:] == [("write", GOLDEN_OK_ESTIMATE), "close"]
