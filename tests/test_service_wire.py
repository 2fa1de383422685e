"""Wire codec properties: framing, strict decode, and the client protocol.

The TCP transport's correctness rests on the same invariant the pickle
properties pin for the process driver: everything that crosses the wire
survives serialization exactly.  Here the codec is the framed JSON one
(:mod:`repro.service.wire`), so two more things need pinning — frames
reassemble correctly from arbitrary TCP chunkings, and malformed input
of any shape is rejected with ``WireProtocolError`` rather than crashing
or desynchronizing the stream.  A deadline crosses the wire as remaining
budget; the server protocol's rebase of it is pinned below
(``test_what_submit_is_given_is_what_the_frame_said``) and across skewed
clocks in ``tests/test_service_tcp.py``.

The later sections drive the two halves of a connection with scripted
bytes and no socket.  :class:`ClientProtocol`: every decision a TCP
client makes (which response settles which future, what a lost
connection does to the requests in flight), checked once for both
substrates the two client shells bind it to.  :class:`ServerProtocol`:
every decision the server makes (which op does what, which error ends
the connection and which only the request, when a planned drop is
consumed, how a batch answer is assembled), over a stub gateway whose
futures the test settles by hand.  Last, the two back to back over the
real :class:`~repro.service.dispatch.GatewayDispatch` on a fake
substrate, with hypothesis choosing how the byte streams are cut and
where the connection ends.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from concurrent.futures import CancelledError, Future, InvalidStateError
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import EstimationResult
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    RateLimitExceededError,
    RequestRejectedError,
    ServiceClosedError,
)
from repro.runtime.loop import POS0, POS1
from repro.service import FaultPlan, FaultSpec, Telemetry
from repro.service import wire
from repro.service.context import NullLock
from repro.service.dispatch import GatewayDispatch
from repro.service.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    ClientProtocol,
    FrameDecoder,
    RemoteServiceError,
    ServerProtocol,
    WireProtocolError,
    encode_frame,
    error_from_wire,
    error_response,
    error_to_wire,
    ok_response,
    result_from_wire,
    result_to_wire,
    validate_request_message,
)
from repro.workload import RTX_3060, RTX_4060, DeviceSpec, WorkloadConfig

# strategies mirror tests/test_service_pickle.py (tests are not a
# package, so sibling imports are off the table — keep these in sync)
names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=24,
)

workloads = st.builds(
    WorkloadConfig,
    model=names,
    optimizer=names,
    batch_size=st.integers(1, 65536),
    zero_grad_position=st.sampled_from((POS0, POS1)),
    set_to_none=st.booleans(),
)

devices = st.builds(
    DeviceSpec,
    name=names,
    capacity_bytes=st.integers(1, 2**48),
    init_bytes=st.integers(0, 2**40),
    framework_bytes=st.integers(0, 2**32),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    names,
)
bags = st.dictionaries(names, scalars, max_size=4)
#: nested annotation bags — callers attach structured metadata too
nested_bags = st.dictionaries(
    names, st.one_of(scalars, bags, st.lists(scalars, max_size=3)), max_size=4
)

stage_maps = st.dictionaries(
    st.sampled_from(("profile", "analyze", "orchestrate", "simulate")),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    max_size=4,
)

results = st.builds(
    EstimationResult,
    estimator=names,
    workload=workloads,
    device=devices,
    peak_bytes=st.integers(0, 2**48),
    runtime_seconds=st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False
    ),
    supported=st.booleans(),
    detail=bags,
    stage_seconds=stage_maps,
    stage_cached=st.dictionaries(
        st.sampled_from(("profile", "analyze", "orchestrate", "simulate")),
        st.booleans(),
        max_size=4,
    ),
)


# ----------------------------------------------------------------------
# framing + reassembly
# ----------------------------------------------------------------------


@settings(max_examples=50)
@given(payload=nested_bags)
def test_frame_round_trips(payload):
    decoder = FrameDecoder()
    messages = decoder.feed(encode_frame(payload))
    assert messages == [json.loads(json.dumps(payload))]
    assert decoder.buffered_bytes == 0


@settings(max_examples=50)
@given(
    payloads=st.lists(nested_bags, min_size=1, max_size=5),
    chunk_size=st.integers(1, 40),
)
def test_frames_reassemble_from_arbitrary_chunking(payloads, chunk_size):
    """TCP may split/coalesce frames anywhere; the decoder must not care."""
    stream = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    received = []
    for start in range(0, len(stream), chunk_size):
        received.extend(decoder.feed(stream[start : start + chunk_size]))
    expected = [json.loads(json.dumps(p)) for p in payloads]
    assert received == expected
    assert decoder.buffered_bytes == 0


def test_truncated_frame_stays_buffered_without_error():
    frame = encode_frame({"op": "ping", "id": 1})
    decoder = FrameDecoder()
    assert decoder.feed(frame[:-3]) == []
    assert decoder.buffered_bytes == len(frame) - 3
    assert decoder.feed(frame[-3:]) == [{"op": "ping", "id": 1}]


def test_oversized_frame_header_is_rejected():
    decoder = FrameDecoder(max_frame_bytes=1024)
    header = struct.pack(">I", 1025)
    with pytest.raises(WireProtocolError, match="over the"):
        decoder.feed(header)


def test_oversized_payload_is_rejected_at_encode_time():
    with pytest.raises(WireProtocolError, match="exceeds"):
        encode_frame({"blob": "x" * 2048}, max_frame_bytes=1024)


def test_zero_length_frame_is_rejected():
    decoder = FrameDecoder()
    with pytest.raises(WireProtocolError, match="zero-length"):
        decoder.feed(struct.pack(">I", 0))


def test_garbage_body_is_rejected():
    body = b"\xff\xfenot json"
    decoder = FrameDecoder()
    with pytest.raises(WireProtocolError, match="not valid JSON"):
        decoder.feed(struct.pack(">I", len(body)) + body)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_constants_are_garbage_too(constant):
    """docs/wire.md: "NaN/Infinity forbidden ... Decoding is strict" —
    ``json.loads`` takes all three, so a ``timeout`` or a
    ``deadline_remaining`` of NaN used to pass the schema check."""
    body = b'{"op":"drain","id":1,"timeout":%s}' % constant.encode()
    decoder = FrameDecoder()
    with pytest.raises(WireProtocolError, match="not valid JSON"):
        decoder.feed(struct.pack(">I", len(body)) + body)
    nested = b'{"a":[1,{"b":%s}]}' % constant.encode()
    with pytest.raises(WireProtocolError, match=constant):
        FrameDecoder().feed(struct.pack(">I", len(nested)) + nested)


def test_frames_completed_before_a_violation_are_handed_back():
    """Regression: ``feed(ping + bad header)`` raised and threw the ping
    away, while the same bytes in two reads delivered it — whether a
    request counted depended on how TCP had segmented the stream."""
    ping = encode_frame({"op": "ping", "id": 1})
    stats = encode_frame({"op": "stats", "id": 2})
    with pytest.raises(WireProtocolError, match="zero-length") as together:
        FrameDecoder().feed(ping + stats + struct.pack(">I", 0))
    assert together.value.completed == [
        {"op": "ping", "id": 1},
        {"op": "stats", "id": 2},
    ]
    apart = FrameDecoder()
    assert apart.feed(ping + stats) == list(together.value.completed)
    with pytest.raises(WireProtocolError, match="zero-length") as alone:
        apart.feed(struct.pack(">I", 0))
    assert list(alone.value.completed) == []


def test_a_body_nested_past_the_decoders_recursion_is_garbage_too():
    """Regression: ``RecursionError`` escaped the strict decoder, so a
    hostile peer's ``[[[[…`` ended a server connection with no
    ``id: null`` answer and killed a client's reader thread."""
    body = b"[" * 100_000
    with pytest.raises(WireProtocolError, match="not valid JSON"):
        FrameDecoder().feed(struct.pack(">I", len(body)) + body)


def test_non_object_body_is_rejected():
    body = json.dumps([1, 2, 3]).encode()
    decoder = FrameDecoder()
    with pytest.raises(WireProtocolError, match="JSON object"):
        decoder.feed(struct.pack(">I", len(body)) + body)


def test_unencodable_payload_is_rejected():
    with pytest.raises(WireProtocolError, match="not JSON-encodable"):
        encode_frame({"clock": object()})
    with pytest.raises(WireProtocolError):
        encode_frame({"bad": float("nan")})


@settings(max_examples=100)
@given(blob=st.binary(max_size=256))
def test_fuzzed_bytes_never_raise_anything_but_wire_errors(blob):
    """The strict-decode contract: garbage in, WireProtocolError or
    silence out — never an unhandled exception type."""
    decoder = FrameDecoder(max_frame_bytes=4096)
    try:
        for message in decoder.feed(blob):
            assert isinstance(message, dict)
    except WireProtocolError:
        pass


# ----------------------------------------------------------------------
# request-message schema
# ----------------------------------------------------------------------


def test_valid_ops_pass_validation():
    assert validate_request_message({"op": "ping", "id": 0}) == ("ping", 0)
    assert validate_request_message(
        {"op": "estimate", "id": 3, "request": {}, "deadline_remaining": 1.5}
    ) == ("estimate", 3)
    assert validate_request_message(
        {"op": "estimate_many", "id": 4, "requests": [{}, {}]}
    ) == ("estimate_many", 4)
    assert validate_request_message({"op": "stats", "id": 5}) == ("stats", 5)
    assert validate_request_message(
        {"op": "drain", "id": 6, "timeout": None}
    ) == ("drain", 6)


@pytest.mark.parametrize(
    "message",
    [
        {"op": "transmogrify", "id": 1},  # unknown op
        {"op": "estimate", "request": {}},  # missing id
        {"op": "estimate", "id": "7", "request": {}},  # string id
        {"op": "estimate", "id": True, "request": {}},  # bool id
        {"op": "estimate", "id": 1},  # missing request
        {"op": "estimate", "id": 1, "request": []},  # non-object request
        {  # non-numeric deadline
            "op": "estimate",
            "id": 1,
            "request": {},
            "deadline_remaining": "soon",
        },
        {  # a boolean is no budget: it used to be rebased to now + 1 s
            "op": "estimate",
            "id": 1,
            "request": {},
            "deadline_remaining": True,
        },
        {"op": "estimate_many", "id": 1},  # missing requests
        {"op": "estimate_many", "id": 1, "requests": [{}, 7]},
        {"op": "drain", "id": 1, "timeout": "later"},
        # a boolean is no timeout: it used to reach ``gateway.drain``
        {"op": "drain", "id": 2, "timeout": False},
        {},  # empty message
    ],
)
def test_malformed_request_messages_are_rejected(message):
    with pytest.raises(WireProtocolError):
        validate_request_message(message)


# ----------------------------------------------------------------------
# result + error codecs
# ----------------------------------------------------------------------


@settings(max_examples=50)
@given(result=results)
def test_result_round_trips_through_json(result):
    clone = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
    assert clone == result
    # equality excludes the stage diagnostics (compare=False) — the wire
    # trip must preserve them anyway for the client's metrics view
    assert clone.stage_seconds == result.stage_seconds
    assert clone.stage_cached == result.stage_cached
    assert clone.detail == result.detail
    assert clone.curve is None  # curves never cross the wire


def test_malformed_result_payload_raises_wire_error():
    with pytest.raises(WireProtocolError):
        result_from_wire({"estimator": "x"})  # missing everything else


@pytest.mark.parametrize(
    "error, wire_type",
    [
        (RequestRejectedError("unknown model"), "rejected"),
        (RateLimitExceededError(1.25), "rate_limited"),
        (DeadlineExceededError(0.75), "deadline"),
        (ServiceClosedError("closed"), "closed"),
        (WireProtocolError("bad frame"), "protocol"),
        (RuntimeError("boom"), "internal"),
    ],
)
def test_error_round_trips_preserve_type(error, wire_type):
    payload = json.loads(json.dumps(error_to_wire(error)))
    assert payload["type"] == wire_type
    clone = error_from_wire(payload)
    if wire_type == "internal":
        assert isinstance(clone, RemoteServiceError)
        assert clone.remote_type == "RuntimeError"
        assert "boom" in str(clone)
    else:
        assert type(clone) is type(error)
    if isinstance(error, RateLimitExceededError):
        assert clone.retry_after_seconds == error.retry_after_seconds
    if isinstance(error, DeadlineExceededError):
        assert clone.late_by_seconds == error.late_by_seconds


def test_deadline_beats_rejected_in_the_taxonomy():
    """DeadlineExceededError *is a* RequestRejectedError — the wire code
    must keep the more specific class or replay accounting drifts."""
    payload = error_to_wire(DeadlineExceededError(0.5))
    assert payload["type"] == "deadline"
    assert isinstance(error_from_wire(payload), DeadlineExceededError)


def test_error_from_wire_tolerates_junk():
    assert isinstance(error_from_wire({}), RemoteServiceError)
    assert isinstance(error_from_wire("nope"), RemoteServiceError)
    assert isinstance(
        error_from_wire({"type": "unheard-of", "message": "?"}),
        RemoteServiceError,
    )


def test_response_builders():
    ok = ok_response(7, result={"peak": 1})
    assert ok == {"id": 7, "ok": True, "result": {"peak": 1}}
    err = error_response(None, WireProtocolError("bad"))
    assert err["id"] is None and err["ok"] is False
    assert err["error"]["type"] == "protocol"


# ----------------------------------------------------------------------
# the client protocol, driven with scripted bytes (no socket)
# ----------------------------------------------------------------------

WORKLOAD = WorkloadConfig("MobileNetV2", "sgd", 8)
OTHER = WorkloadConfig("MobileNetV2", "adam", 16)
RESULT = EstimationResult(
    estimator="synthetic",
    workload=WORKLOAD,
    device=RTX_3060,
    peak_bytes=123_456_789,
    runtime_seconds=0.25,
    detail={"role": "weights"},
)

#: what the parent commit's clients put on the wire for these requests
#: (``_estimate_message`` + ``encode_frame``, clock pinned at 100.0)
GOLDEN_DEFAULT_ESTIMATE = (
    b'\x00\x00\x01\x1e{"deadline_remaining":null,"id":0,"op":"estimate",'
    b'"request":{"device":{"capacity_bytes":12884901888,'
    b'"framework_bytes":629145600,"init_bytes":0,'
    b'"name":"GeForce RTX 3060"},"workload":{"batch_size":8,'
    b'"model":"MobileNetV2","optimizer":"sgd","set_to_none":true,'
    b'"zero_grad_position":"pos1"}}}'
)
GOLDEN_TENANT_ESTIMATE = (
    b'\x00\x00\x01Z{"deadline_remaining":2.5,"id":1,"op":"estimate",'
    b'"request":{"device":{"capacity_bytes":8589934592,'
    b'"framework_bytes":629145600,"init_bytes":0,'
    b'"name":"GeForce RTX 4060"},"metadata":{"n":3,"team":"ml"},'
    b'"priority":0,"tenant":"acme","workload":{"batch_size":16,'
    b'"model":"MobileNetV2","optimizer":"adam","set_to_none":true,'
    b'"zero_grad_position":"pos1"}}}'
)
GOLDEN_ESTIMATE_MANY = (
    b'\x00\x00\x01\xef{"id":2,"op":"estimate_many","requests":[{"device":'
    b'{"capacity_bytes":12884901888,"framework_bytes":629145600,'
    b'"init_bytes":0,"name":"GeForce RTX 3060"},"workload":'
    b'{"batch_size":8,"model":"MobileNetV2","optimizer":"sgd",'
    b'"set_to_none":true,"zero_grad_position":"pos1"}},{"device":'
    b'{"capacity_bytes":8589934592,"framework_bytes":629145600,'
    b'"init_bytes":0,"name":"GeForce RTX 4060"},"workload":'
    b'{"batch_size":16,"model":"MobileNetV2","optimizer":"adam",'
    b'"set_to_none":true,"zero_grad_position":"pos1"}}]}'
)
GOLDEN_STATS = b'\x00\x00\x00\x15{"id":3,"op":"stats"}'
GOLDEN_PING = b'\x00\x00\x00\x14{"id":4,"op":"ping"}'
GOLDEN_DRAIN = b'\x00\x00\x00#{"id":5,"op":"drain","timeout":1.5}'
GOLDEN_DRAIN_FOREVER = b'\x00\x00\x00${"id":6,"op":"drain","timeout":null}'


@pytest.fixture(scope="module")
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture(scope="module", params=["threads", "loop"])
def make_protocol(request, loop):
    """A protocol factory per substrate: the blocking client's (real
    lock, ``concurrent.futures.Future``) and an event loop's
    (``NullLock``, a loop future) — the protocol takes both from its
    shell, so it stays substrate-blind with one shell bound."""

    def make() -> ClientProtocol:
        if request.param == "threads":
            return ClientProtocol(threading.Lock(), Future, lambda: 100.0)
        return ClientProtocol(NullLock(), loop.create_future, lambda: 100.0)

    return make


def ok_frame(msg_id, **fields) -> bytes:
    return encode_frame(ok_response(msg_id, **fields))


def result_frame(msg_id, result=RESULT) -> bytes:
    return ok_frame(msg_id, result=result_to_wire(result))


def error_of(future) -> BaseException:
    assert future.done() and not future.cancelled()
    return future.exception()


def test_request_frames_are_byte_identical_to_the_parent_clients(
    make_protocol,
):
    protocol = make_protocol()
    frames = [
        protocol.estimate_request(WORKLOAD, RTX_3060)[1],
        protocol.estimate_request(
            OTHER,
            RTX_4060,
            deadline=102.5,
            metadata={"team": "ml", "n": 3},
            tenant="acme",
            priority=0,
        )[1],
        protocol.estimate_many_request(
            [(WORKLOAD, RTX_3060), (OTHER, RTX_4060)]
        )[1],
        protocol.stats_request()[1],
        protocol.ping_request()[1],
        protocol.drain_request(1.5)[1],
        protocol.drain_request(None)[1],
    ]
    assert frames == [
        GOLDEN_DEFAULT_ESTIMATE,
        GOLDEN_TENANT_ESTIMATE,
        GOLDEN_ESTIMATE_MANY,
        GOLDEN_STATS,
        GOLDEN_PING,
        GOLDEN_DRAIN,
        GOLDEN_DRAIN_FOREVER,
    ]


def test_a_request_that_does_not_frame_leaves_nothing_pending(make_protocol):
    """Regression: both clients registered the pending entry before
    encoding, so an unencodable request stayed in the table forever and a
    later connection loss named an id that never left the process."""
    protocol = make_protocol()
    with pytest.raises(WireProtocolError, match="not JSON-encodable"):
        protocol.estimate_request(
            WORKLOAD, RTX_3060, metadata={"x": object()}
        )
    msg_id, _frame, future = protocol.ping_request()
    assert msg_id == 0  # the failed request consumed no id either
    protocol.connection_ended()
    assert error_of(future).pending_request_ids == (0,)


def test_responses_split_and_coalesced_settle_their_requests(make_protocol):
    protocol = make_protocol()
    _, _, first = protocol.estimate_request(WORKLOAD, RTX_3060)
    _, _, ping = protocol.ping_request()
    _, _, stats = protocol.stats_request()
    head = result_frame(0)
    # the first response arrives in two reads...
    assert protocol.receive(head[:7]) is True
    assert not first.done()
    # ...and its tail shares a read with two whole responses
    coalesced = head[7:] + ok_frame(1) + ok_frame(2, stats={"requests": 3})
    assert protocol.receive(coalesced) is True
    assert first.result() == RESULT
    assert first.result().detail == RESULT.detail
    assert ping.result() is True
    assert stats.result() == {"requests": 3}


def test_out_of_order_responses_match_by_id(make_protocol):
    protocol = make_protocol()
    other = EstimationResult("synthetic", OTHER, RTX_4060, 42, 0.0)
    _, _, first = protocol.estimate_request(WORKLOAD, RTX_3060)
    _, _, second = protocol.estimate_request(OTHER, RTX_4060)
    _, _, drain = protocol.drain_request(None)
    protocol.receive(ok_frame(2, drained=True) + result_frame(1, other))
    assert drain.result() is True and second.result() == other
    assert not first.done()
    protocol.receive(result_frame(0))
    assert first.result() == RESULT


def test_unknown_and_duplicate_ids_are_ignored(make_protocol):
    protocol = make_protocol()
    _, _, future = protocol.ping_request()
    assert protocol.receive(ok_frame(17)) is True  # nobody asked
    assert not future.done()
    assert protocol.receive(ok_frame(0) + ok_frame(0)) is True
    assert future.result() is True


def test_a_cancelled_future_is_skipped_and_the_next_still_settles(
    make_protocol,
):
    protocol = make_protocol()
    _, _, abandoned = protocol.estimate_request(WORKLOAD, RTX_3060)
    _, _, wanted = protocol.ping_request()
    assert abandoned.cancel()
    assert protocol.receive(result_frame(0) + ok_frame(1)) is True
    assert abandoned.cancelled()
    assert wanted.result() is True


def test_typed_errors_settle_single_requests(make_protocol):
    protocol = make_protocol()
    _, _, future = protocol.estimate_request(WORKLOAD, RTX_3060)
    protocol.receive(encode_frame(error_response(0, DeadlineExceededError(0.5))))
    assert isinstance(error_of(future), DeadlineExceededError)
    assert error_of(future).late_by_seconds == 0.5


def test_estimate_many_resolves_to_results_and_typed_errors(make_protocol):
    protocol = make_protocol()
    _, _, future = protocol.estimate_many_request(
        [(WORKLOAD, RTX_3060), (OTHER, RTX_4060), (WORKLOAD, RTX_3060)]
    )
    refusal = error_response(None, RequestRejectedError("unknown model"))
    entries = [
        {"ok": True, "result": result_to_wire(RESULT)},
        {"ok": False, "error": refusal["error"]},
        {"ok": True, "result": {"estimator": "x"}},  # malformed entry
    ]
    protocol.receive(ok_frame(0, results=entries))
    first, second, third = future.result()
    assert first == RESULT
    assert isinstance(second, RequestRejectedError)
    assert isinstance(third, WireProtocolError)


def test_malformed_ok_response_fails_that_request_only(make_protocol):
    protocol = make_protocol()
    _, _, broken = protocol.estimate_request(WORKLOAD, RTX_3060)
    _, _, fine = protocol.ping_request()
    assert protocol.receive(ok_frame(0) + ok_frame(1)) is True  # no result
    error = error_of(broken)
    assert isinstance(error, WireProtocolError)
    assert "malformed estimate response" in str(error)
    assert fine.result() is True


def test_a_malformed_number_in_an_error_frame_fails_its_request_only(
    make_protocol,
):
    """Regression: a wire error whose message formats a number that is
    none (``DeadlineExceededError`` formats ``late_by_seconds`` with
    ``:.3f``) raised ``ValueError`` out of ``receive``: the futures of
    that read were already popped and never settled, and the TCP
    client's reader thread died with every later call."""
    protocol = make_protocol()
    futures = [protocol.estimate_request(WORKLOAD, RTX_3060)[2] for _ in range(3)]
    _, _, ping = protocol.ping_request()
    frames = [
        b'{"error":{"late_by_seconds":"soon","type":"deadline"},"id":0,"ok":false}',
        b'{"error":{"retry_after_seconds":[1],"type":"rate_limited"},"id":1,'
        b'"ok":false}',
        # an integer too large for a float: OverflowError, not ValueError
        b'{"error":{"retry_after_seconds":1%s,"tenant":"t","type":'
        b'"quota_exceeded"},"id":2,"ok":false}' % (b"0" * 400),
    ]
    stream = b"".join(raw_frame(body) for body in frames) + ok_frame(3)
    assert protocol.receive(stream) is True
    for future in futures:
        assert isinstance(error_of(future), WireProtocolError)
        assert "malformed estimate response" in str(error_of(future))
    assert ping.result() is True
    assert protocol.lost is None


def test_connection_level_error_frame_fails_everything_and_ends_the_stream(
    make_protocol,
):
    protocol = make_protocol()
    futures = [protocol.ping_request()[2] for _ in range(3)]
    frame = encode_frame(error_response(None, WireProtocolError("bad op")))
    assert protocol.receive(frame) is False
    for future in futures:
        assert isinstance(error_of(future), WireProtocolError)
        assert "bad op" in str(error_of(future))
    assert isinstance(protocol.lost, WireProtocolError)
    with pytest.raises(ConnectionLostError, match="reconnect is off"):
        protocol.ping_request()


def test_garbage_header_poisons_the_stream(make_protocol):
    protocol = make_protocol()
    _, _, future = protocol.ping_request()
    assert protocol.receive(struct.pack(">I", 0)) is False
    assert isinstance(error_of(future), WireProtocolError)
    assert "zero-length" in str(error_of(future))
    with pytest.raises(ConnectionLostError):
        protocol.stats_request()


def test_end_of_stream_names_the_sorted_in_flight_ids(make_protocol):
    protocol = make_protocol()
    futures = [protocol.ping_request()[2] for _ in range(4)]
    protocol.receive(ok_frame(1))  # answered: not in limbo
    protocol.connection_ended()
    for index in (0, 2, 3):
        error = error_of(futures[index])
        assert isinstance(error, ConnectionLostError)
        assert isinstance(error, ServiceClosedError)
        assert error.pending_request_ids == (0, 2, 3)
    assert futures[1].result() is True
    # a lost connection refuses new requests, on either substrate
    with pytest.raises(ConnectionLostError, match="reconnect is off"):
        protocol.estimate_request(WORKLOAD, RTX_3060)


def test_send_failed_forgets_exactly_its_id(make_protocol):
    protocol = make_protocol()
    _, _, kept = protocol.ping_request()
    msg_id, _, _unsent = protocol.ping_request()
    error = protocol.send_failed(msg_id, OSError("broken pipe"))
    assert isinstance(error, ConnectionLostError)
    assert error.pending_request_ids == (1,)
    assert "send failed: broken pipe" in str(error)
    assert protocol.lost is error
    assert not kept.done()
    protocol.connection_ended()
    assert error_of(kept).pending_request_ids == (0,)
    assert protocol.lost is error  # the first cause is the one reported


def test_a_stale_connections_end_does_not_touch_its_successor(make_protocol):
    """An end of stream belongs to the connection it was read from.  The
    blocking client redials after a failed write while the old socket's
    reader is still alive; when that reader then reports its end (or a
    last chunk), the requests already sent on the new socket must not be
    failed, and the new connection must not be marked lost."""
    protocol = make_protocol()
    _, _, in_limbo = protocol.ping_request()
    unsent, _, _ = protocol.ping_request()
    protocol.send_failed(unsent, OSError("reset"))
    assert protocol.reconnected() == 1
    # nothing will ever read the old connection's answers
    assert error_of(in_limbo).pending_request_ids == (0,)
    assert protocol.lost is None
    msg_id, _, fresh = protocol.ping_request()
    # the old reader wakes up: a last chunk, then its end of stream
    assert protocol.receive(ok_frame(msg_id), connection=0) is False
    protocol.connection_ended(connection=0)
    assert not fresh.done()
    assert protocol.lost is None
    assert protocol.receive(ok_frame(msg_id), connection=1) is True
    assert fresh.result() is True


def test_a_new_connection_starts_with_a_clean_decoder(make_protocol):
    protocol = make_protocol()
    protocol.receive(ok_frame(0)[:5])  # half a frame, then the line dies
    protocol.connection_ended()
    connection = protocol.reconnected()
    msg_id, _, future = protocol.ping_request()
    assert protocol.receive(ok_frame(msg_id), connection) is True
    assert future.result() is True


def test_close_is_deliberate_not_a_loss(make_protocol):
    protocol = make_protocol()
    _, _, future = protocol.ping_request()
    protocol.close()
    protocol.close()  # idempotent
    error = error_of(future)
    assert type(error) is ConnectionError and "client closed" in str(error)
    assert protocol.receive(ok_frame(0)) is False
    protocol.connection_ended()  # the reader exiting after close: no-op
    assert protocol.lost is None
    with pytest.raises(ServiceClosedError, match="client is closed"):
        protocol.ping_request()
    with pytest.raises(ServiceClosedError):
        protocol.reconnected()


@settings(max_examples=50, deadline=None)
@given(
    order=st.permutations(range(6)),
    cuts=st.lists(st.integers(0, 4096), max_size=12),
)
def test_any_chunking_settles_the_same_futures(make_protocol, order, cuts):
    """However TCP splits a response stream, every future ends up with
    the value the unsplit stream gives it."""
    responses = {
        0: result_frame(0),
        1: ok_frame(1),
        2: ok_frame(2, stats={"gateway": {"requests": 7}}),
        3: ok_frame(3, drained=True),
        4: encode_frame(error_response(4, RateLimitExceededError(1.5))),
        5: ok_frame(5, results=[{"ok": True, "result": result_to_wire(RESULT)}]),
    }
    stream = b"".join(responses[index] for index in order)
    bounds = sorted({0, len(stream), *(cut % len(stream) for cut in cuts)})

    def settle(chunks):
        protocol = make_protocol()
        futures = [
            protocol.estimate_request(WORKLOAD, RTX_3060)[2],
            protocol.ping_request()[2],
            protocol.stats_request()[2],
            protocol.drain_request(None)[2],
            protocol.estimate_request(OTHER, RTX_4060)[2],
            protocol.estimate_many_request([(WORKLOAD, RTX_3060)])[2],
        ]
        for chunk in chunks:
            assert protocol.receive(chunk) is True
        return [
            repr(future.exception() or future.result()) for future in futures
        ]

    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert settle(chunks) == settle([stream])


def test_a_response_ahead_of_garbage_settles_however_the_two_arrive(
    make_protocol,
):
    """Regression: the answer sharing a read with the bytes that broke
    the stream was thrown away with them, so its future got the protocol
    error instead of its result."""

    def settle(chunks):
        protocol = make_protocol()
        futures = [protocol.ping_request()[2] for _ in range(2)]
        verdicts = [protocol.receive(chunk) for chunk in chunks]
        return verdicts[-1], futures

    garbage = struct.pack(">I", 0)
    for chunks in ([ok_frame(0) + garbage], [ok_frame(0), garbage]):
        reading, (answered, in_limbo) = settle(chunks)
        assert reading is False
        assert answered.result() is True
        assert isinstance(error_of(in_limbo), WireProtocolError)


# ----------------------------------------------------------------------
# the server protocol, driven with scripted bytes (no socket)
# ----------------------------------------------------------------------


class Shell:
    """Records the four things a :class:`ServerProtocol` tells its shell."""

    def __init__(self):
        self.written: list[bytes] = []
        self.drains: list[tuple] = []
        #: effects in the order they were asked for
        self.log: list[str] = []

    def write(self, frame: bytes) -> None:
        self.written.append(bytes(frame))
        self.log.append("write")

    def close(self) -> None:
        self.log.append("close")

    def abort(self) -> None:
        self.log.append("abort")

    def drain(self, timeout, verdict) -> None:
        self.drains.append((timeout, verdict))

    def answers(self) -> list[dict]:
        return FrameDecoder().feed(b"".join(self.written))


class StubGateway:
    """The four calls a :class:`ServerProtocol` makes, scripted: a
    submit either raises what ``refuse`` maps its model to or returns a
    pending future the test settles by hand (``concurrent.futures``
    runs a done-callback inline, like the loop substrate's
    ``when_done``)."""

    def __init__(self, drops=(), refuse=None):
        self.drops = set(drops)
        self.refuse = refuse or {}
        self.index = 0  # the fault plan's submission-index cursor
        self.calls: list[str] = []
        self.submitted: list[tuple] = []

    def take_connection_drop(self) -> bool:
        self.calls.append("take")
        if self.index in self.drops:
            self.index += 1
            return True
        return False

    def submit(self, workload, device, **options):
        self.calls.append("submit")
        self.index += 1
        if workload.model in self.refuse:
            raise self.refuse[workload.model]
        future = Future()
        self.submitted.append((workload, device, options, future))
        return future

    def when_done(self, future, callback) -> None:
        future.add_done_callback(callback)

    def stats(self) -> dict:
        return {"gateway": {"pending": 0, "requests": 3}}

    def future(self, at: int = -1) -> Future:
        return self.submitted[at][3]


def serve(gateway=None, clock=lambda: 100.0):
    gateway = gateway or StubGateway()
    shell = Shell()
    protocol = ServerProtocol(
        gateway,
        clock,
        write=shell.write,
        close=shell.close,
        abort=shell.abort,
        drain=shell.drain,
    )
    return protocol, shell, gateway


def requests() -> ClientProtocol:
    """The server tests take their request frames from the client half."""
    return ClientProtocol(NullLock(), Future, lambda: 100.0)


def raw_frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


SHED = WorkloadConfig("shed", "sgd", 8)
REJECT = WorkloadConfig("reject", "sgd", 8)

#: what the parent commit's server (``_handle_message`` and its
#: responder coroutines) wrote for these requests, captured off a
#: loopback socket over a stub gateway
GOLDEN_OK_ESTIMATE = (
    b'\x00\x00\x01\xa8{"id":0,"ok":true,"result":{"detail":{"role":'
    b'"weights"},"device":{"capacity_bytes":12884901888,'
    b'"framework_bytes":629145600,"init_bytes":0,'
    b'"name":"GeForce RTX 3060"},"estimator":"synthetic",'
    b'"peak_bytes":123456789,"runtime_seconds":0.25,"stage_cached":{},'
    b'"stage_seconds":{},"stage_sources":{},"supported":true,'
    b'"workload":{"batch_size":8,"model":"MobileNetV2","optimizer":"sgd",'
    b'"set_to_none":true,"zero_grad_position":"pos1"}}}'
)
GOLDEN_BAD_PAYLOAD = (
    b'\x00\x00\x00m{"error":{"message":"malformed estimate payload: '
    b'KeyError(\'optimizer\')","type":"protocol"},"id":1,"ok":false}'
)
GOLDEN_SHED = (
    b'\x00\x00\x00~{"error":{"message":"rate limit exceeded; retry in '
    b'1.500s","retry_after_seconds":1.5,"type":"rate_limited"},"id":2,'
    b'"ok":false}'
)
GOLDEN_MIXED_MANY = (
    b'\x00\x00\x02{{"id":3,"ok":true,"results":[{"ok":true,"result":'
    b'{"detail":{"role":"weights"},"device":{"capacity_bytes":12884901888,'
    b'"framework_bytes":629145600,"init_bytes":0,'
    b'"name":"GeForce RTX 3060"},"estimator":"synthetic",'
    b'"peak_bytes":123456789,"runtime_seconds":0.25,"stage_cached":{},'
    b'"stage_seconds":{},"stage_sources":{},"supported":true,'
    b'"workload":{"batch_size":8,"model":"MobileNetV2","optimizer":"sgd",'
    b'"set_to_none":true,"zero_grad_position":"pos1"}}},{"error":'
    b'{"message":"rate limit exceeded; retry in 1.500s",'
    b'"retry_after_seconds":1.5,"type":"rate_limited"},"ok":false},'
    b'{"error":{"message":"unknown model","type":"rejected"},"ok":false}]}'
)
GOLDEN_PING_OK = b'\x00\x00\x00\x12{"id":4,"ok":true}'
GOLDEN_STATS_OK = (
    b'\x00\x00\x00A{"id":5,"ok":true,"stats":{"gateway":{"pending":0,'
    b'"requests":3}}}'
)
GOLDEN_DRAIN_OK = b'\x00\x00\x00!{"drained":true,"id":6,"ok":true}'
GOLDEN_ID_NULL = (
    b"\x00\x00\x00\x95{\"error\":{\"message\":\"unknown op 'transmogrify'; "
    b"expected one of ping, estimate, estimate_many, stats, drain\","
    b'"type":"protocol"},"id":null,"ok":false}'
)


def test_response_frames_are_byte_identical_to_the_parent_server():
    protocol, shell, gateway = serve(
        StubGateway(refuse={"shed": RateLimitExceededError(1.5)})
    )

    def estimate(msg_id, request, **fields):
        return encode_frame(
            {"op": "estimate", "id": msg_id, "request": request, **fields}
        )

    def payload(workload):
        return {"workload": workload.as_dict(), "device": RTX_3060.as_dict()}

    stream = [
        estimate(0, payload(WORKLOAD), deadline_remaining=None),
        estimate(1, {"workload": {"model": 7}}),
        estimate(2, payload(SHED), deadline_remaining=2.5),
    ]
    assert stream[0] == GOLDEN_DEFAULT_ESTIMATE
    assert protocol.receive(b"".join(stream)) is True
    gateway.future().set_result(RESULT)
    assert shell.written == [GOLDEN_BAD_PAYLOAD, GOLDEN_SHED, GOLDEN_OK_ESTIMATE]
    del shell.written[:]
    many = encode_frame(
        {
            "op": "estimate_many",
            "id": 3,
            "requests": [payload(w) for w in (WORKLOAD, SHED, REJECT)],
        }
    )
    tail = [
        encode_frame({"op": "ping", "id": 4}),
        encode_frame({"op": "stats", "id": 5}),
        encode_frame({"op": "drain", "id": 6, "timeout": 1.5}),
        encode_frame({"op": "transmogrify", "id": 7}),
    ]
    assert protocol.receive(many + b"".join(tail)) is False
    # the batch settles last-entry-first; the answer is in request order
    gateway.future(-1).set_exception(RequestRejectedError("unknown model"))
    gateway.future(-2).set_result(RESULT)
    ((timeout, verdict),) = shell.drains
    assert timeout == 1.5
    verdict(True)
    assert shell.written == [
        GOLDEN_PING_OK,
        GOLDEN_STATS_OK,
        GOLDEN_ID_NULL,
        GOLDEN_MIXED_MANY,
        GOLDEN_DRAIN_OK,
    ]
    assert shell.log[-1] == "close" and shell.log.count("close") == 1


def test_split_coalesced_and_pipelined_requests_are_each_served():
    protocol, shell, gateway = serve()
    client = requests()
    head = client.estimate_request(WORKLOAD, RTX_3060)[1]
    # the first request arrives in two reads...
    assert protocol.receive(head[:7]) is True
    assert gateway.calls == [] and protocol.outstanding == 0
    # ...and its tail shares a read with two whole ones
    rest = head[7:] + client.ping_request()[1] + client.stats_request()[1]
    assert protocol.receive(rest) is True
    # ping and stats are answered at once, the estimate when it settles
    assert [a["id"] for a in shell.answers()] == [1, 2]
    assert protocol.outstanding == 1
    gateway.future().set_result(RESULT)
    assert [a["id"] for a in shell.answers()] == [1, 2, 0]
    assert result_from_wire(shell.answers()[-1]["result"]) == RESULT
    assert protocol.outstanding == 0 and "close" not in shell.log


def test_what_submit_is_given_is_what_the_frame_said():
    protocol, _shell, gateway = serve()
    client = requests()
    frames = client.estimate_request(WORKLOAD, RTX_3060)[1]
    frames += client.estimate_request(
        OTHER,
        RTX_4060,
        deadline=102.5,
        metadata={"team": "ml"},
        tenant="acme",
        priority=0,
    )[1]
    protocol.receive(frames)
    plain, tenanted = gateway.submitted
    assert plain[:3] == (
        WORKLOAD,
        RTX_3060,
        {"deadline": None, "metadata": None, "tenant": "", "priority": 1},
    )
    # the budget left on the client's clock, rebased onto the server's
    assert tenanted[:3] == (
        OTHER,
        RTX_4060,
        {
            "deadline": 102.5,
            "metadata": {"team": "ml"},
            "tenant": "acme",
            "priority": 0,
        },
    )


@pytest.mark.parametrize(
    "request_body",
    [
        {
            "workload": {**WORKLOAD.as_dict(), "batch_size": 8.0},
            "device": RTX_3060.as_dict(),
        },
        {
            "workload": WORKLOAD.as_dict(),
            "device": {**RTX_3060.as_dict(), "capacity_bytes": 12.0 * 2**30},
        },
    ],
)
def test_a_float_where_an_int_belongs_is_a_malformed_payload(request_body):
    """``8.0 == 8`` but encodes differently: it must not reach the
    gateway as a second spelling of the same request."""
    protocol, shell, gateway = serve()
    frame = encode_frame({"op": "estimate", "id": 9, "request": request_body})
    assert protocol.receive(frame) is True
    (answer,) = shell.answers()
    assert answer["id"] == 9 and answer["ok"] is False
    assert answer["error"]["type"] == "protocol"
    assert answer["error"]["message"].startswith("malformed estimate payload")
    assert "submit" not in gateway.calls


@pytest.mark.parametrize(
    "metadata",
    [
        {"fault": {"kind": "latency_spike", "latency_seconds": 1.5}},
        {"fault": {"kind": "estimator_error"}},
        {"attempt": "x"},
        {"team": "ml", "attempt": 2},
    ],
    ids=["latency-spike", "estimator-error", "bad-attempt", "attempt"],
)
def test_a_peer_cannot_stamp_gateway_only_metadata(metadata):
    """``fault`` and ``attempt`` are the gateway's to stamp: a peer's
    bag carrying either is refused for that request alone, before the
    gateway counts it, and the connection goes on serving."""
    protocol, shell, gateway = serve()
    client = requests()
    frame = client.estimate_request(WORKLOAD, RTX_3060, metadata=metadata)[1]
    assert protocol.receive(frame) is True
    assert protocol.receive(client.estimate_request(OTHER, RTX_4060)[1])
    gateway.future().set_result(RESULT)
    refused, served = shell.answers()
    assert refused["id"] == 0 and refused["ok"] is False
    assert refused["error"]["type"] == "protocol"
    assert "gateway-only" in refused["error"]["message"]
    assert served["id"] == 1 and served["ok"] is True
    assert gateway.calls.count("submit") == 1
    ((workload, _, options, _),) = gateway.submitted
    assert workload == OTHER and options["metadata"] is None


@pytest.mark.parametrize(
    "context",
    [5, "abc", {"span_id": "x"}, {"trace_id": 7}, {"trace_id": "t", "span_id": 3}],
    ids=["number", "string", "no-trace-id", "int-trace-id", "int-span-id"],
)
def test_a_malformed_telemetry_context_is_refused_per_request(context):
    """A span context the tracer cannot join is refused for that request
    alone, before the gateway counts it, and the connection goes on."""
    protocol, shell, gateway = serve()
    client = requests()
    frame = client.estimate_request(
        WORKLOAD, RTX_3060, metadata={"telemetry": context}
    )[1]
    assert protocol.receive(frame) is True
    assert protocol.receive(client.estimate_request(OTHER, RTX_4060)[1])
    gateway.future().set_result(RESULT)
    refused, served = shell.answers()
    assert refused["id"] == 0 and refused["ok"] is False
    assert refused["error"]["type"] == "protocol"
    assert "telemetry" in refused["error"]["message"]
    assert served["id"] == 1 and served["ok"] is True
    assert gateway.calls.count("submit") == 1


def test_a_telemetry_context_still_crosses_the_wire():
    protocol, _shell, gateway = serve()
    telemetry = {"trace_id": "t", "span_id": "s"}
    frame = requests().estimate_request(
        WORKLOAD, RTX_3060, metadata={"telemetry": telemetry}
    )[1]
    protocol.receive(frame)
    ((_, _, options, _),) = gateway.submitted
    assert options["metadata"] == {"telemetry": telemetry}


def test_out_of_order_settles_are_answered_by_id():
    protocol, shell, gateway = serve()
    client = requests()
    protocol.receive(
        client.estimate_request(WORKLOAD, RTX_3060)[1]
        + client.estimate_request(OTHER, RTX_4060)[1]
    )
    other = EstimationResult("synthetic", OTHER, RTX_4060, 42, 0.0)
    gateway.future(1).set_result(other)
    gateway.future(0).set_result(RESULT)
    first, second = shell.answers()
    assert first["id"] == 1 and result_from_wire(first["result"]) == other
    assert second["id"] == 0 and result_from_wire(second["result"]) == RESULT


@pytest.mark.parametrize(
    "request_frame, refusal, wire_type",
    [
        (
            encode_frame(
                {"op": "estimate", "id": 0, "request": {"workload": 7}}
            ),
            None,
            "protocol",
        ),
        (
            encode_frame(
                {
                    "op": "estimate",
                    "id": 0,
                    "request": {
                        "workload": WORKLOAD.as_dict(),
                        "device": RTX_3060.as_dict(),
                        "priority": True,
                    },
                }
            ),
            None,
            "protocol",
        ),
        (None, RateLimitExceededError(1.5), "rate_limited"),
        (None, ServiceClosedError("gateway is draining"), "closed"),
        (None, RequestRejectedError("unknown model"), "rejected"),
        (None, RuntimeError("submit blew up"), "internal"),
    ],
    ids=["bad-payload", "bad-priority", "shed", "closed", "rejected", "raises"],
)
def test_a_request_level_error_keeps_the_connection_open(
    request_frame, refusal, wire_type
):
    protocol, shell, gateway = serve(StubGateway(refuse={"shed": refusal}))
    client = requests()
    frame = client.estimate_request(SHED, RTX_3060)[1]
    assert protocol.receive(request_frame or frame) is True
    assert protocol.receive(client.ping_request()[1]) is True
    failed, ping = shell.answers()
    assert failed["id"] == 0 and failed["ok"] is False
    assert failed["error"]["type"] == wire_type
    assert ping == {"id": 1, "ok": True}
    assert protocol.protocol_errors == 0 and protocol.outstanding == 0
    assert shell.log == ["write", "write"]


@pytest.mark.parametrize(
    "violation, says",
    [
        (encode_frame({"op": "transmogrify", "id": 1}), "unknown op"),
        (encode_frame({"op": "ping", "id": "1"}), "integer 'id'"),
        (encode_frame({"op": "estimate", "id": 1}), "'request'"),
        (raw_frame(b"this is not json"), "not valid JSON"),
        (struct.pack(">I", MAX_FRAME_BYTES + 1), "over the"),
        (
            raw_frame(b'{"op":"drain","id":1,"timeout":NaN}'),
            "NaN is not JSON",
        ),
        (
            raw_frame(
                b'{"op":"estimate","id":1,"request":{},'
                b'"deadline_remaining":Infinity}'
            ),
            "Infinity is not JSON",
        ),
    ],
    ids=[
        "unknown-op",
        "bad-id",
        "bad-field",
        "garbage",
        "oversized-header",
        "nan-timeout",
        "infinite-deadline",
    ],
)
def test_a_violation_is_answered_id_null_once_then_closed_after_the_rest(
    violation, says
):
    protocol, shell, gateway = serve()
    client = requests()
    pipelined = client.estimate_request(WORKLOAD, RTX_3060)[1]
    # whatever follows the violation is never looked at
    ignored = client.ping_request()[1]
    assert protocol.receive(pipelined + violation + ignored) is False
    (null,) = shell.answers()
    assert null["id"] is None and null["ok"] is False
    assert null["error"]["type"] == "protocol"
    assert says in null["error"]["message"]
    assert protocol.protocol_errors == 1
    # the request read before it stands: it is answered, *then* the
    # shell is asked to close
    assert gateway.calls == ["take", "submit"] and protocol.outstanding == 1
    assert shell.log == ["write"]
    gateway.future().set_result(RESULT)
    assert shell.answers()[-1]["id"] == 0
    assert shell.log == ["write", "write", "close"]
    assert protocol.receive(ignored) is False
    assert shell.log == ["write", "write", "close"]


def test_a_violation_with_nothing_outstanding_closes_at_once():
    protocol, shell, _gateway = serve()
    assert protocol.receive(struct.pack(">I", 0)) is False
    assert shell.log == ["write", "close"]
    assert shell.answers()[0]["id"] is None


def test_a_planned_drop_takes_its_index_before_submit_and_aborts():
    """Plan index 1 is a ``connection_drop``: the first estimate is
    submitted, the second consumes its index without the gateway ever
    seeing the request, and the third (same read) is never reached."""
    protocol, shell, gateway = serve(StubGateway(drops={1}))
    client = requests()
    frames = [
        client.estimate_request(WORKLOAD, RTX_3060)[1],
        client.estimate_request(OTHER, RTX_4060)[1],
        client.estimate_request(WORKLOAD, RTX_4060)[1],
    ]
    assert protocol.receive(b"".join(frames)) is False
    assert gateway.calls == ["take", "submit", "take"]
    assert gateway.index == 2 and len(gateway.submitted) == 1
    assert protocol.injected_drops == 1 and protocol.protocol_errors == 0
    # a reset, not an error frame; the close waits for the request that
    # did reach the gateway, whose answer then goes nowhere
    assert shell.log == ["abort"]
    gateway.future().set_result(RESULT)
    assert shell.log == ["abort", "close"] and shell.written == []
    assert protocol.outstanding == 0


def test_ops_that_are_not_estimates_do_not_touch_the_fault_plan():
    protocol, shell, gateway = serve(StubGateway(drops={0}))
    client = requests()
    protocol.receive(client.ping_request()[1] + client.stats_request()[1])
    protocol.receive(client.estimate_many_request([(WORKLOAD, RTX_3060)])[1])
    assert gateway.calls == ["submit"] and "abort" not in shell.log


def test_estimate_many_answers_once_in_request_order():
    protocol, shell, gateway = serve(
        StubGateway(refuse={"shed": RateLimitExceededError(1.5)})
    )
    client = requests()
    pairs = [(WORKLOAD, RTX_3060), (SHED, RTX_3060), (REJECT, RTX_3060)]
    _, frame, future = client.estimate_many_request(pairs)
    assert protocol.receive(frame) is True
    # every entry was submitted at once, in order; one was refused there
    assert gateway.calls == ["submit"] * 3 and len(gateway.submitted) == 2
    gateway.future(1).set_exception(RequestRejectedError("unknown model"))
    assert shell.written == [] and protocol.outstanding == 1
    gateway.future(0).set_result(RESULT)
    (answer,) = shell.answers()
    assert [entry["ok"] for entry in answer["results"]] == [True, False, False]
    assert all("id" not in entry for entry in answer["results"])
    # the client half reads the answer back as results and typed errors
    client.receive(shell.written[0])
    ok, shed, rejected = future.result()
    assert ok == RESULT
    assert isinstance(shed, RateLimitExceededError)
    assert isinstance(rejected, RequestRejectedError)


def test_an_empty_estimate_many_is_answered_empty():
    protocol, shell, _gateway = serve()
    protocol.receive(encode_frame({"op": "estimate_many", "id": 0, "requests": []}))
    assert shell.answers() == [{"id": 0, "ok": True, "results": []}]
    assert protocol.outstanding == 0


def test_drain_is_the_shells_to_run_and_does_not_block_the_stream():
    protocol, shell, _gateway = serve()
    client = requests()
    protocol.receive(client.drain_request(2.0)[1] + client.ping_request()[1])
    ((timeout, verdict),) = shell.drains
    assert timeout == 2.0
    assert shell.answers() == [{"id": 1, "ok": True}]
    assert protocol.outstanding == 1
    verdict(False)
    assert shell.answers()[-1] == {"id": 0, "ok": True, "drained": False}


def test_a_response_that_does_not_frame_becomes_an_error_for_the_same_id():
    protocol, shell, gateway = serve()
    protocol.receive(requests().estimate_request(WORKLOAD, RTX_3060)[1])
    unframeable = EstimationResult(
        "synthetic", WORKLOAD, RTX_3060, 1, 0.0, detail={"ratio": float("nan")}
    )
    gateway.future().set_result(unframeable)
    (answer,) = shell.answers()
    assert answer["id"] == 0 and answer["ok"] is False
    assert answer["error"]["type"] == "protocol"
    assert "not JSON-encodable" in answer["error"]["message"]
    assert protocol.outstanding == 0


def test_a_cancelled_gateway_future_is_still_answered():
    protocol, shell, gateway = serve()
    protocol.receive(requests().estimate_request(WORKLOAD, RTX_3060)[1])
    assert gateway.future().cancel()
    (answer,) = shell.answers()
    assert answer["id"] == 0 and answer["error"]["type"] == "internal"
    assert "cancelled" in answer["error"]["message"]
    assert protocol.outstanding == 0


def test_a_peer_gone_before_the_settle_is_written_nothing():
    protocol, shell, gateway = serve()
    client = requests()
    protocol.receive(
        client.estimate_request(WORKLOAD, RTX_3060)[1]
        + client.drain_request(None)[1]
    )
    protocol.connection_ended()
    # the close waits for the accounting of what was admitted
    assert shell.log == [] and protocol.outstanding == 2
    gateway.future().set_result(RESULT)
    shell.drains[0][1](True)
    assert shell.log == ["close"] and protocol.outstanding == 0


def test_the_end_of_an_idle_connection_closes_at_once():
    protocol, shell, _gateway = serve()
    protocol.receive(requests().ping_request()[1])
    protocol.connection_ended()
    protocol.connection_ended()  # a reset reported after the end: no-op
    assert shell.log == ["write", "close"]


# ----------------------------------------------------------------------
# one codec pass per distinct frame: the memos are exact
# ----------------------------------------------------------------------


@pytest.fixture
def strict_decodes(monkeypatch):
    """Every body handed to the strict decoder, by either protocol."""
    bodies: list[bytes] = []
    decode = wire._decode_body

    def counting(body):
        bodies.append(body)
        return decode(body)

    monkeypatch.setattr(wire, "_decode_body", counting)
    return bodies


def estimate_of(workload, msg_id, **fields) -> bytes:
    payload = {"workload": workload.as_dict(), "device": RTX_3060.as_dict()}
    return encode_frame(
        {"op": "estimate", "id": msg_id, "request": payload, **fields}
    )


@settings(max_examples=50, deadline=None)
@given(
    workload=workloads,
    device=devices,
    tenant=st.one_of(st.just(""), names),
    priority=st.integers(-3, 2**40),
    skip=st.integers(0, 12),
)
def test_a_spliced_request_frame_is_the_encoded_message(
    workload, device, tenant, priority, skip
):
    client = requests()
    for _ in range(skip):  # ids of one and two digits
        client.ping_request()
    request = {"workload": workload.as_dict(), "device": device.as_dict()}
    if tenant:
        request["tenant"] = tenant
    if priority != 1:
        request["priority"] = priority
    for msg_id in (skip, skip + 1):
        _, frame, _ = client.estimate_request(
            workload, device, tenant=tenant, priority=priority
        )
        assert frame == encode_frame(
            {
                "op": "estimate",
                "id": msg_id,
                "request": request,
                "deadline_remaining": None,
            }
        )


@settings(max_examples=50, deadline=None)
@given(result=results, ids=st.lists(st.integers(0, 2**40), min_size=3, max_size=5))
def test_a_spliced_answer_is_the_encoded_response(result, ids):
    """The server splices every answer after the first of one result
    object; a client decodes the third and later from its memo — both
    are what the strict codec makes of the same message."""
    protocol, shell, gateway = serve()
    for msg_id in ids:
        protocol.receive(estimate_of(WORKLOAD, msg_id))
        gateway.future().set_result(result)
    assert shell.written == [
        encode_frame(ok_response(msg_id, result=result_to_wire(result)))
        for msg_id in ids
    ]
    client = requests()
    futures = [client.estimate_request(WORKLOAD, RTX_3060)[2] for _ in ids]
    for at, frame in enumerate(shell.written):
        body = frame[HEADER_BYTES:]
        client.receive(raw_frame(b'{"id":%d%s' % (at, body[body.index(b","):])))
    for future in futures:
        decoded = future.result()
        assert decoded == result
        assert decoded.stage_seconds == result.stage_seconds
        assert decoded.stage_cached == result.stage_cached
        assert decoded.detail == result.detail


def test_a_memo_hit_is_the_strict_decode(strict_decodes):
    protocol, shell, gateway = serve()
    client = requests()
    sent = [
        client.estimate_request(OTHER, RTX_4060, tenant="acme", priority=0)
        for _ in range(4)
    ]
    for _, frame, _ in sent:
        protocol.receive(frame)
    # the first two sightings are decoded, the later ones recalled
    assert len(strict_decodes) == 2
    assert [entry[:3] for entry in gateway.submitted] == [
        (OTHER, RTX_4060, {"deadline": None, "metadata": None,
                           "tenant": "acme", "priority": 0})
    ] * 4
    for entry in gateway.submitted:
        entry[3].set_result(RESULT)
    assert [answer["id"] for answer in shell.answers()] == [0, 1, 2, 3]
    del strict_decodes[:]
    for frame in shell.written:
        client.receive(frame)
    assert len(strict_decodes) == 2
    strict, _, hit, _ = (future.result() for _, _, future in sent)
    assert hit == strict == RESULT
    assert (hit.stage_seconds, hit.stage_sources, hit.detail) == (
        strict.stage_seconds,
        strict.stage_sources,
        strict.detail,
    )
    # a learned answer body under an id that waits for something other
    # than an estimate is decoded strictly, as that op's response
    _, _, stats = client.stats_request()
    body = shell.written[0][HEADER_BYTES:]
    client.receive(raw_frame(b'{"id":4' + body[body.index(b","):]))
    assert "malformed stats response" in str(error_of(stats))


def test_a_body_is_learned_on_its_second_sighting(strict_decodes):
    """Traffic that never repeats pays one set insert and is never
    learned; a body seen once is decoded normally."""
    protocol, _shell, gateway = serve()
    for msg_id in range(3):
        protocol.receive(estimate_of(WORKLOAD, msg_id, deadline_remaining=None))
        assert len(strict_decodes) == min(msg_id + 1, 2)
    assert len(gateway.submitted) == 3


def test_a_result_answered_once_is_not_pinned():
    """A stream of cache misses answers each result object once: the
    server encodes each afresh and holds none of them; a result object
    answered a second time is learned, and the third is spliced."""
    protocol, shell, gateway = serve()
    fresh = [replace(RESULT, peak_bytes=RESULT.peak_bytes + at) for at in range(4)]
    for msg_id, result in enumerate(fresh + [RESULT] * 3):
        protocol.receive(estimate_of(WORKLOAD, msg_id))
        gateway.future().set_result(result)
    assert shell.written == [
        result_frame(msg_id, result)
        for msg_id, result in enumerate(fresh + [RESULT] * 3)
    ]
    assert [entry[0] for entry in protocol._answers.meanings.values()] == [RESULT]


def test_the_connections_of_a_server_share_its_memos(strict_decodes):
    """What one connection learned, the next connection to the same
    gateway recalls, so the memos are bounded per server however many
    connections it serves; another server's gateway has its own."""
    gateway = StubGateway()
    first, _, _ = serve(gateway)
    for _ in range(2):
        first.receive(GOLDEN_DEFAULT_ESTIMATE)
    second, _, _ = serve(gateway)
    second.receive(GOLDEN_DEFAULT_ESTIMATE)
    assert len(strict_decodes) == 2
    assert len(gateway.submitted) == 3
    other, _, _ = serve()
    other.receive(GOLDEN_DEFAULT_ESTIMATE)
    assert len(strict_decodes) == 3


def test_answers_are_decoded_outside_the_client_lock(monkeypatch):
    """Senders wait on the lock the reader holds: it is held to pop the
    pending entries and to learn, not while a result is decoded."""
    held = []

    class Lock:
        def __enter__(self):
            held.append(True)

        def __exit__(self, *exc_info):
            held.pop()

    decode = wire._outcome
    decoded_under = []

    def outcome(op, message):
        decoded_under.append(bool(held))
        return decode(op, message)

    monkeypatch.setattr(wire, "_outcome", outcome)
    client = ClientProtocol(Lock(), Future, lambda: 100.0)
    futures = [client.estimate_request(WORKLOAD, RTX_3060)[2] for _ in range(3)]
    for msg_id in range(3):  # decoded, decoded and learned, recalled
        client.receive(result_frame(msg_id))
    assert decoded_under == [False, False]
    assert [future.result() for future in futures] == [RESULT] * 3


def test_a_budget_or_a_bag_is_decoded_at_every_sighting(strict_decodes):
    """A deadline is rebased onto the clock of its own arrival, even one
    whose spelling is as long as ``null``; a metadata bag is the
    request's own object."""
    ticks = iter(range(100, 200))
    protocol, _shell, gateway = serve(clock=lambda: float(next(ticks)))
    for msg_id in (1, 1, 2, 2):
        protocol.receive(
            raw_frame(
                b'{"deadline_remaining":0.25,"id":%d%s' % (msg_id, REQUEST_REST)
            )
        )
    client = requests()
    for _ in range(3):
        protocol.receive(
            client.estimate_request(WORKLOAD, RTX_3060, metadata={"team": "ml"})[1]
        )
    assert len(strict_decodes) == 7
    deadlines = [entry[2]["deadline"] for entry in gateway.submitted[:4]]
    assert deadlines == [100.25, 101.25, 102.25, 103.25]
    bags = [entry[2]["metadata"] for entry in gateway.submitted[4:]]
    assert bags == [{"team": "ml"}] * 3
    assert len({id(bag) for bag in bags}) == 3


def test_errors_are_never_memoised(strict_decodes):
    protocol, shell, _gateway = serve()
    for msg_id in range(4):
        protocol.receive(
            encode_frame(
                {
                    "op": "estimate",
                    "id": msg_id,
                    "request": {"workload": {"model": 7}},
                    "deadline_remaining": None,
                }
            )
        )
    assert len(strict_decodes) == 4
    assert [answer["ok"] for answer in shell.answers()] == [False] * 4
    client = requests()
    futures = [client.estimate_request(WORKLOAD, RTX_3060)[2] for _ in range(4)]
    for msg_id in range(4):
        client.receive(
            encode_frame(error_response(msg_id, RateLimitExceededError(1.5)))
        )
    errors = [error_of(future) for future in futures]
    assert len({id(error) for error in errors}) == 4


#: the canonical body of a default estimate, cut after its id
REQUEST_HEAD = b'{"deadline_remaining":null,"id":'
REQUEST_REST = GOLDEN_DEFAULT_ESTIMATE[HEADER_BYTES + len(REQUEST_HEAD) + 1 :]
#: bodies (``%d`` = the id they spell first) that only look canonical:
#: a second ``id`` key overrides the first, and a leading zero or a
#: space is no canonical spelling — strict JSON refuses the zero
LOOK_ALIKE_REQUESTS = {
    "duplicate-id": REQUEST_HEAD + b'%d,"id":8' + REQUEST_REST,
    "escaped-duplicate-id": REQUEST_HEAD + b'%d,"\\u0069d":8' + REQUEST_REST,
    "escaped-id-key": b'{"deadline_remaining":null,"\\u0069d":%d' + REQUEST_REST,
    "leading-zero-id": REQUEST_HEAD + b"0%d" + REQUEST_REST,
    "space-before-id": REQUEST_HEAD + b" %d" + REQUEST_REST,
    "space-after-id": REQUEST_HEAD + b"%d" + REQUEST_REST.replace(b",", b", ", 1),
    "deadline": b'{"deadline_remaining":0.5,"id":%d' + REQUEST_REST,
    # past the digits ``int`` parses: the strict decoder refuses it
    "huge-id": REQUEST_HEAD + b"1" * 5000 + b"%d" + REQUEST_REST,
    # decoded as an infinity, which does not encode back: the body is
    # no canonical one and must not end the connection on its second
    # sighting
    "infinite-number": REQUEST_HEAD + b"%d" + REQUEST_REST[:-1] + b',"x":1e400}',
}


@pytest.mark.parametrize(
    "template", LOOK_ALIKE_REQUESTS.values(), ids=LOOK_ALIKE_REQUESTS.keys()
)
def test_a_look_alike_request_is_never_served_from_the_memo(
    strict_decodes, template
):
    """Each look-alike is sighted with id 8 twice, then with id 9: a
    memo that learned it would answer the third under id 9, where the
    strict decoder reads 8 (or refuses it) — so does the protocol, on a
    cold memo and on one that knows the canonical body."""
    sighted = []

    def sight(protocol):
        for msg_id in (8, 8, 9):
            sighted.append(template % msg_id)
            if not protocol.receive(raw_frame(sighted[-1])):
                break  # the strict decoder refused it: connection over

    cold, cold_shell, cold_gateway = serve()
    sight(cold)
    warm, warm_shell, warm_gateway = serve()
    for _ in range(3):  # the canonical body: learned, then recalled
        warm.receive(GOLDEN_DEFAULT_ESTIMATE)
    assert strict_decodes[len(sighted) :] == [GOLDEN_DEFAULT_ESTIMATE[4:]] * 2
    for entry in warm_gateway.submitted:
        entry[3].set_result(RESULT)
    del warm_shell.written[:], warm_gateway.submitted[:], strict_decodes[-2:]
    sight(warm)
    assert strict_decodes == sighted
    assert [entry[:3] for entry in warm_gateway.submitted] == [
        entry[:3] for entry in cold_gateway.submitted
    ]
    for entry in warm_gateway.submitted + cold_gateway.submitted:
        entry[3].set_result(RESULT)
    assert warm_shell.written == cold_shell.written


#: the canonical body of an ``ok`` estimate answer, cut after its id
RESPONSE_REST = GOLDEN_OK_ESTIMATE[HEADER_BYTES + len(b'{"id":0') :]
LOOK_ALIKE_RESPONSES = {
    "duplicate-id": b'{"id":%d,"id":3' + RESPONSE_REST,
    "escaped-duplicate-id": b'{"id":%d,"\\u0069d":3' + RESPONSE_REST,
    "escaped-id-key": b'{"\\u0069d":%d' + RESPONSE_REST,
    "leading-zero-id": b'{"id":0%d' + RESPONSE_REST,
    "space-before-id": b'{"id": %d' + RESPONSE_REST,
    "space-after-id": b'{"id":%d' + RESPONSE_REST.replace(b",", b", ", 1),
    "huge-id": b'{"id":' + b"1" * 5000 + b"%d" + RESPONSE_REST,
    "infinite-number": b'{"id":%d' + RESPONSE_REST.replace(
        b'"detail":{"role":"weights"}', b'"detail":{"role":1e400}'
    ),
}


@pytest.mark.parametrize(
    "template", LOOK_ALIKE_RESPONSES.values(), ids=LOOK_ALIKE_RESPONSES.keys()
)
def test_a_look_alike_answer_is_never_decoded_from_the_memo(
    strict_decodes, template
):
    """As for requests, on a client whose memo knows the canonical
    answer: sightings with id 3, 3, then 4."""
    look_alikes = [raw_frame(template % msg_id) for msg_id in (3, 3, 4)]

    def settled(*reads) -> list:
        """What futures 3 and 4 of a fresh client hold once it read
        ``reads`` and the connection ended."""
        client = requests()
        futures = [client.estimate_request(WORKLOAD, RTX_3060)[2] for _ in range(5)]
        for data in reads:
            client.receive(data)
        client.connection_ended()
        return [
            "lost" if isinstance(future.exception(), ConnectionLostError)
            else repr(future.exception() or future.result())
            for future in futures[3:]
        ]

    # one read each: what a read decodes is learned once it is over
    warmup = [
        raw_frame(b'{"id":%d%s' % (msg_id, RESPONSE_REST)) for msg_id in range(3)
    ]
    cold = settled(b"".join(look_alikes))
    read = strict_decodes[:]  # a cold client decodes every body it reads
    del strict_decodes[:]
    assert settled(*warmup, b"".join(look_alikes)) == cold
    # the canonical answer was learned, then recalled; no look-alike was
    assert strict_decodes == [
        b'{"id":0' + RESPONSE_REST,
        b'{"id":1' + RESPONSE_REST,
        *read,
    ]


def test_golden_answers_are_byte_identical_on_a_warm_protocol(strict_decodes):
    """Three passes of the golden stream through one protocol: the
    second learns the estimate, the third is served from the memo."""
    protocol, shell, gateway = serve(
        StubGateway(refuse={"shed": RateLimitExceededError(1.5)})
    )
    stream = b"".join(
        [
            GOLDEN_DEFAULT_ESTIMATE,
            encode_frame({"op": "estimate", "id": 1, "request": {"workload": {"model": 7}}}),
            estimate_of(SHED, 2, deadline_remaining=2.5),
            encode_frame({"op": "ping", "id": 4}),
            encode_frame({"op": "stats", "id": 5}),
        ]
    )
    for recalled in (False, False, True):
        del strict_decodes[:]
        assert protocol.receive(stream) is True
        gateway.future().set_result(RESULT)
        assert shell.written == [
            GOLDEN_BAD_PAYLOAD,
            GOLDEN_SHED,
            GOLDEN_PING_OK,
            GOLDEN_STATS_OK,
            GOLDEN_OK_ESTIMATE,
        ]
        assert len(strict_decodes) == 5 - recalled
        del shell.written[:]


# ----------------------------------------------------------------------
# chunking never matters: valid frames, then garbage
# ----------------------------------------------------------------------


def cut(stream: bytes, cuts: list[int]) -> list[bytes]:
    """``stream`` in the pieces the (wrapped) offsets in ``cuts`` make."""
    if not stream:
        return []
    bounds = sorted({0, len(stream), *(at % len(stream) for at in cuts)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


GARBAGE = [
    struct.pack(">I", 0),
    struct.pack(">I", MAX_FRAME_BYTES + 1),
    raw_frame(b"[1, 2]"),
    raw_frame(b'{"op":"ping","id":NaN}'),
    encode_frame({"op": "transmogrify", "id": 9}),
]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(["estimate", "shed", "ping", "stats"]), max_size=6),
    garbage=st.sampled_from(GARBAGE),
    cuts=st.lists(st.integers(0, 8192), max_size=10),
)
def test_requests_ahead_of_garbage_count_the_same_however_chunked(
    ops, garbage, cuts
):
    """For any valid-frames-then-garbage stream, what the gateway was
    asked and what the client's futures end up holding do not depend on
    where TCP cut the two streams."""

    def run(chunk):
        protocol, shell, gateway = serve(
            StubGateway(refuse={"shed": RateLimitExceededError(1.5)})
        )
        client = requests()
        build = {
            "estimate": lambda: client.estimate_request(WORKLOAD, RTX_3060),
            "shed": lambda: client.estimate_request(SHED, RTX_3060),
            "ping": client.ping_request,
            "stats": client.stats_request,
        }
        sent = [build[op]() for op in ops]
        stream = b"".join(frame for _, frame, _ in sent) + garbage
        verdicts = [protocol.receive(piece) for piece in chunk(stream)]
        assert verdicts[-1] is False and all(verdicts[:-1])
        for entry in gateway.submitted:
            entry[3].set_result(RESULT)
        assert shell.log[-1] == "close" and shell.log.count("close") == 1
        for piece in chunk(b"".join(shell.written)):
            client.receive(piece)
        client.connection_ended()
        settled = [
            repr(future.exception() or future.result())
            for _, _, future in sent
        ]
        return settled, gateway.calls, protocol.protocol_errors

    whole = run(lambda stream: [stream])
    assert run(lambda stream: cut(stream, cuts)) == whole
    assert run(lambda stream: [stream[i : i + 1] for i in range(len(stream))]) == whole
    assert whole[1].count("submit") == len(
        [op for op in ops if op in ("estimate", "shed")]
    )
    assert whole[2] == 1


# ----------------------------------------------------------------------
# back to back: ClientProtocol <-> ServerProtocol <-> GatewayDispatch
# ----------------------------------------------------------------------


class CountingFuture(Future):
    """Counts settle attempts — a second one would otherwise vanish in
    ``InvalidStateError`` (as in tests/test_service_dispatch.py; tests
    are not a package, so the fake substrate is restated here)."""

    def __init__(self):
        super().__init__()
        self.settles = 0

    def set_result(self, result):
        self.settles += 1
        super().set_result(result)

    def set_exception(self, exception):
        self.settles += 1
        super().set_exception(exception)


class FakeSubstrate:
    """Inline futures, null locks; nothing here arms a timer."""

    CancelledError = CancelledError
    InvalidStateError = InvalidStateError
    call_lock = NullLock
    new_future = CountingFuture

    def __init__(self):
        self.lock = NullLock()
        self.idle = True

    @staticmethod
    def when_done(future, callback):
        future.add_done_callback(callback)  # inline when already done

    def mark_busy(self):
        self.idle = False

    def notify_idle(self):
        self.idle = True


def expected(workload, device) -> EstimationResult:
    """What a direct submit of the pair resolves to in this harness."""
    return EstimationResult(
        "fake", workload, device, 1000 * workload.batch_size + 7, 0.0
    )


class FakeShard:
    """Answers at once, or (``hold``) when the test says so."""

    def __init__(self, hold: bool):
        self.hold = hold
        self.held: list[tuple] = []
        self.metrics = SimpleNamespace(latency_samples=lambda: [])

    def fingerprint(self, workload, device):
        return f"{workload}@{device}"

    def submit(self, workload, device, **_options):
        future = Future()
        if self.hold:
            self.held.append((future, expected(workload, device)))
        else:
            future.set_result(expected(workload, device))
        return future

    def stats(self):
        return {}

    def release(self):
        held, self.held = self.held, []
        for future, result in held:
            future.set_result(result)


class Loopback:
    """One client, one gateway, and the connection between them as two
    byte streams the test cuts wherever it likes.  Bytes the server
    wrote reach the client before anything else happens (zero latency),
    so a run is a pure function of the bytes fed and their cuts."""

    def __init__(self, hold=False, fault_plan=None, max_queue_depth=64):
        self.shards = [FakeShard(hold), FakeShard(hold)]
        self.telemetry = Telemetry()
        self.gateway = GatewayDispatch(
            self.shards,
            None,
            max_queue_depth,
            FakeSubstrate(),
            telemetry=self.telemetry,
            fault_plan=fault_plan,
        )
        self.client = ClientProtocol(NullLock(), CountingFuture, lambda: 100.0)
        self.connection = 0
        self.closes = 0
        self.back_cuts: list[int] = []
        self.connect()

    def connect(self):
        self.up = True
        self.outbox = bytearray()
        self.server = ServerProtocol(
            self.gateway,
            lambda: 100.0,
            write=self.outbox.extend,
            close=self.closed,
            abort=self.aborted,
            drain=self.drain,
        )

    def closed(self):
        self.closes += 1

    def aborted(self):
        self.up = False

    def drain(self, timeout, verdict):
        raise AssertionError("no drain op in these runs")

    def feed(self, data: bytes, cuts=()) -> bool:
        """Client -> server, in pieces; False once the connection died."""
        for piece in cut(data, list(cuts)):
            reading = self.server.receive(piece)
            self.flush()
            if not reading:
                return False
        return True

    def flush(self):
        """Server -> client: everything written so far, in pieces."""
        data, self.outbox[:] = bytes(self.outbox), b""
        for piece in cut(data, self.back_cuts):
            self.client.receive(piece, self.connection)

    def end(self):
        """The connection is over, for both halves."""
        self.server.connection_ended()
        self.client.connection_ended(connection=self.connection)

    def release(self):
        for shard in self.shards:
            shard.release()
        self.flush()

    def redial(self):
        self.connection = self.client.reconnected()
        self.connect()


def tally(futures) -> dict:
    counts = {"answered": 0, "refused": 0, "lost": 0}
    for future in futures:
        assert future.done() and future.settles == 1
        error = future.exception()
        if error is None:
            counts["answered"] += 1
        elif isinstance(error, ConnectionLostError):
            counts["lost"] += 1
        else:
            assert isinstance(error, RateLimitExceededError), error
            counts["refused"] += 1
    return counts


PAIRS = [
    (WorkloadConfig("MobileNetV2", "sgd", size), device)
    for size in (1, 2, 4, 8, 16)
    for device in (RTX_3060, RTX_4060)
]


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(PAIRS) - 1), min_size=1, max_size=12),
    hold=st.booleans(),
    ends_at=st.integers(0, 8192),
    release_first=st.booleans(),
    cuts=st.lists(st.integers(0, 8192), max_size=12),
    back_cuts=st.lists(st.integers(0, 8192), max_size=6),
)
def test_loopback_settles_everything_once_however_the_streams_are_cut(
    picks, hold, ends_at, release_first, cuts, back_cuts
):
    """Requests in, answers back, and the connection ending at a byte
    hypothesis picks — mid-frame, between frames, or after the last.
    Every client future settles exactly once; an answer equals the
    direct submit's; the gateway counted exactly the requests whose
    frames arrived whole; and neither that nor its ledger depends on
    how either stream was chunked."""

    def run(cuts, back_cuts):
        loop = Loopback(hold=hold, max_queue_depth=3)
        loop.back_cuts = back_cuts
        sent = [loop.client.estimate_request(*PAIRS[at]) for at in picks]
        stream = b"".join(frame for _, frame, _ in sent)
        arrived = stream[: ends_at % (len(stream) + 1)]
        assert loop.feed(arrived, cuts)
        if release_first:
            loop.release()  # settled while the peer is still there
        loop.end()
        loop.release()  # settled after it went: accounting only
        futures = [future for _, _, future in sent]
        counts = tally(futures)
        for at, future in zip(picks, futures):
            if future.exception() is None:
                assert future.result() == expected(*PAIRS[at])
        whole = 0
        while whole < len(sent) and len(arrived) >= sum(
            len(frame) for _, frame, _ in sent[: whole + 1]
        ):
            whole += 1
        gateway = loop.gateway.stats()["gateway"]
        assert gateway["requests"] == whole
        # requests == answered + refused + failed-by-loss, once the
        # requests that never reached the server whole are set aside
        never_arrived = len(sent) - whole
        assert gateway["requests"] == sum(counts.values()) - never_arrived
        assert loop.gateway.pending() == 0 and loop.gateway._quiescent()
        assert loop.server.outstanding == 0 and loop.closes == 1
        return (
            counts,
            [repr(f.exception() or f.result()) for f in futures],
            loop.telemetry.ledger.decision_sequence(),
        )

    assert run(cuts, back_cuts) == run([], [])


def test_loopback_flapping_network_tallies_are_deterministic():
    """A ``flapping-network``-style plan — connection drops at fixed
    submission indices, the client redialling after each — has one
    answer here: over real sockets PR 16 could only report 0-16 vs 2-24
    answered of 300, because what a reset overtakes is a race."""
    plan = FaultPlan.from_specs(
        [
            FaultSpec(kind="connection_drop", index=index)
            for index in (2, 9, 10, 25)
        ]
    )

    def run(cuts):
        loop = Loopback(fault_plan=plan)
        futures = []
        for start in range(0, 40, 4):  # ten waves of four, pipelined
            if loop.client.lost is not None:
                loop.redial()
            wave = [
                loop.client.estimate_request(*PAIRS[at % len(PAIRS)])
                for at in range(start, start + 4)
            ]
            futures.extend(future for _, _, future in wave)
            if not loop.feed(b"".join(frame for _, frame, _ in wave), cuts):
                assert not loop.up
                loop.end()
        stats = loop.gateway.stats()["gateway"]
        return (
            tally(futures),
            stats["requests"],
            stats["faults"],
            loop.telemetry.ledger.decision_sequence(),
        )

    counts, requests_seen, faults, decisions = run([])
    # a drop takes its own request and the rest of its wave with it; the
    # plan's cursor only moves for requests the server reached, so the
    # drops land on requests 2, 10 (index 9), 12 (index 10) and 30
    assert counts == {"answered": 30, "refused": 0, "lost": 10}
    assert requests_seen == 30
    assert faults["injected"] == {"connection_drop": 4}
    assert faults["cursor"] == 34
    for cuts in ([1], [7, 300, 301, 999], list(range(0, 4000, 13))):
        assert run(cuts) == (counts, requests_seen, faults, decisions)
