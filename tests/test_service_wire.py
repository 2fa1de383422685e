"""Wire codec properties: framing, strict decode, and the client protocol.

The TCP transport's correctness rests on the same invariant the pickle
properties pin for the process driver: everything that crosses the wire
survives serialization exactly.  Here the codec is the framed JSON one
(:mod:`repro.service.wire`), so three more things need pinning — frames
reassemble correctly from arbitrary TCP chunkings, time fields rebase
correctly across *skewed* clocks (the cross-host bug this PR fixes), and
malformed input of any shape is rejected with ``WireProtocolError``
rather than crashing or desynchronizing the stream.

The last section drives :class:`ClientProtocol` with scripted bytes and
no socket: every decision a TCP client makes (which response settles
which future, what a lost connection does to the requests in flight) is
checked here once, for both substrates the two client shells bind it to.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from concurrent.futures import Future

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
from repro.service import NullLock, RequestContext
from repro.service.wire import (
    ClientProtocol,
    FrameDecoder,
    RemoteServiceError,
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
        {"op": "estimate_many", "id": 1},  # missing requests
        {"op": "estimate_many", "id": 1, "requests": [{}, 7]},
        {"op": "drain", "id": 1, "timeout": "later"},
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
# envelope round trips across skewed clocks (the cross-host bugfix)
# ----------------------------------------------------------------------


class SkewedClock:
    """Injectable clock with its own epoch — models a peer host."""

    def __init__(self, now: float):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_deadline_rebases_across_skewed_clocks():
    """The regression this PR fixes: an absolute ``time.monotonic``
    deadline from host A is meaningless on host B.  The wire form ships
    *remaining budget*, so the rebased deadline must grant the same
    budget on B's clock no matter how far the two epochs disagree."""
    client = SkewedClock(1_000.0)
    server = SkewedClock(5.0)  # e.g. freshly booted: monotonic near zero
    ctx = RequestContext(
        request_id=1,
        submitted_at=client() - 2.0,  # two seconds old
        fingerprint="fp",
        deadline=client() + 3.0,  # three seconds of budget left
    )
    payload = json.loads(json.dumps(ctx.as_dict(now=client())))
    assert payload["age_seconds"] == pytest.approx(2.0)
    assert payload["deadline_remaining"] == pytest.approx(3.0)
    assert "submitted_at" not in payload and "deadline" not in payload
    rebased = RequestContext.from_dict(payload, now=server())
    assert rebased.remaining(server()) == pytest.approx(3.0)
    assert server() - rebased.submitted_at == pytest.approx(2.0)
    # the budget then burns down on the server's clock
    server.advance(3.5)
    assert rebased.expired(server())


def test_no_deadline_stays_none_across_the_wire():
    ctx = RequestContext(request_id=1, submitted_at=10.0)
    payload = json.loads(json.dumps(ctx.as_dict(now=12.0)))
    assert payload["deadline_remaining"] is None
    rebased = RequestContext.from_dict(payload, now=99.0)
    assert rebased.deadline is None
    assert rebased.remaining(99.0) is None


def test_wire_form_requires_receiver_clock():
    ctx = RequestContext(request_id=1, submitted_at=0.0, deadline=5.0)
    payload = ctx.as_dict(now=1.0)
    with pytest.raises(ValueError, match="receiver clock"):
        RequestContext.from_dict(payload)


def test_absolute_form_still_round_trips_without_a_clock():
    # the same-clock-domain form (procpool pickle boundary) is unchanged
    ctx = RequestContext(request_id=1, submitted_at=7.0, deadline=9.0)
    clone = RequestContext.from_dict(json.loads(json.dumps(ctx.as_dict())))
    assert clone == ctx


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
    """A protocol factory per substrate the client shells bind: the
    blocking client's (real lock, ``concurrent.futures.Future``) and the
    awaitable client's (``NullLock``, a loop future)."""

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


def test_traces_are_refused_before_anything_is_registered(make_protocol):
    protocol = make_protocol()
    with pytest.raises(ValueError, match="host-local"):
        protocol.estimate_request(WORKLOAD, RTX_3060, trace=object())
    assert protocol.ping_request()[0] == 0


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
    # a lost connection refuses new requests (both clients, identically)
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
