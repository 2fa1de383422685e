"""The memory side of the cold path on rows, held to object-form oracles.

* lifecycle reconstruction sweeps the trace's int columns; the reference
  model below is the per-``MemoryEvent`` loop it replaced, and both must
  agree on every event stream — address reuse, unmatched frees,
  out-of-order timestamps, and strict-mode errors raised at the same
  event;
* the orchestrator sorts plain ``(ts, kind, block_id, size, role)`` rows;
  the order must equal the ``MemoryOp.sort_key`` order;
* the simulator replays the rows and skips a free of a block it never
  allocated.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifecycle import reconstruct_lifecycles
from repro.core.orchestrator import EventKind, MemoryOp, OrchestratedSequence
from repro.core.pipeline import EstimationPipeline
from repro.core.simulator import MemorySimulator
from repro.errors import LifecycleError
from repro.trace.builder import TraceBuilder
from repro.trace.events import EventCategory, MemoryEvent
from repro.workload import WorkloadConfig

from tests.test_core_attribution import GOLDEN


def reference_lifecycles(memory_events, strict=False):
    """The object loop the column sweep replaced: ``(blocks, unmatched,
    reused)`` with blocks as ``(addr, size, alloc_ts, free_ts, order)``,
    ``order`` being the creation rank that ties equal ``alloc_ts``."""
    open_blocks: dict[int, tuple[int, int]] = {}
    seen_addrs: set[int] = set()
    blocks = []
    unmatched = reused = 0
    last_ts = None
    for event in memory_events:
        if last_ts is not None and event.ts < last_ts:
            raise LifecycleError(f"memory events out of order at ts={event.ts}")
        last_ts = event.ts
        if event.is_alloc:
            if event.addr in open_blocks:
                if strict:
                    raise LifecycleError(
                        f"allocation at live address {event.addr:#x} "
                        f"(ts={event.ts})"
                    )
                alloc_ts, size = open_blocks.pop(event.addr)
                blocks.append((event.addr, size, alloc_ts, event.ts, len(blocks)))
            if event.addr in seen_addrs:
                reused += 1
            seen_addrs.add(event.addr)
            open_blocks[event.addr] = (event.ts, event.size)
        else:
            record = open_blocks.pop(event.addr, None)
            if record is None:
                unmatched += 1
                if strict:
                    raise LifecycleError(
                        f"free of unknown address {event.addr:#x} "
                        f"(ts={event.ts})"
                    )
                continue
            alloc_ts, size = record
            if size != event.size and strict:
                raise LifecycleError(
                    f"free size {event.size} != alloc size {size} at "
                    f"{event.addr:#x}"
                )
            blocks.append((event.addr, size, alloc_ts, event.ts, len(blocks)))
    for addr, (alloc_ts, size) in open_blocks.items():
        blocks.append((addr, size, alloc_ts, None, len(blocks)))
    blocks.sort(key=lambda b: (b[2], b[4]))
    return blocks, unmatched, reused


def _outcome(function):
    try:
        return ("returned", function())
    except LifecycleError as error:
        return ("raised", str(error))


@st.composite
def memory_streams(draw):
    """Alloc/free streams over a few reused addresses; a free's size is
    usually its allocation's, and ``ts`` occasionally steps backwards."""
    count = draw(st.integers(0, 40))
    live: dict[int, int] = {}
    events = []
    ts = 0
    for _ in range(count):
        ts += draw(st.integers(-1, 3) if draw(st.integers(0, 9)) == 0
                   else st.integers(0, 3))
        addr = draw(st.integers(0, 5))
        if draw(st.booleans()):
            size = draw(st.integers(1, 4096))
            live[addr] = size
            nbytes = size
        else:
            size = live.pop(addr, None)
            if size is None or draw(st.integers(0, 7)) == 0:
                size = draw(st.integers(1, 4096))
            nbytes = -size
        events.append(MemoryEvent(ts=ts, addr=addr, nbytes=nbytes))
    return events


@settings(max_examples=300, deadline=None)
@given(events=memory_streams(), strict=st.booleans())
def test_column_sweep_matches_the_object_loop(events, strict):
    expected = _outcome(lambda: reference_lifecycles(events, strict))
    got = _outcome(lambda: reconstruct_lifecycles(events, strict))
    if expected[0] == "raised" or got[0] == "raised":
        assert got == expected  # same error, raised at the same event
        return
    blocks, unmatched, reused = expected[1]
    got = got[1]
    assert (got.unmatched_frees, got.reused_addresses) == (unmatched, reused)
    assert [tuple(b[:4]) for b in got.blocks] == [b[:4] for b in blocks]
    # block ids follow creation order, as the reference's rank does
    ids = [b.block_id for b in got.blocks]
    ranks = [b[4] for b in blocks]
    assert sorted(range(len(ids)), key=ids.__getitem__) == sorted(
        range(len(ranks)), key=ranks.__getitem__
    )


def test_builder_sorts_out_of_order_ts_stably():
    builder = TraceBuilder()
    builder.begin_span("s", EventCategory.USER_ANNOTATION, ts=0)
    builder.record_alloc(5, addr=1, nbytes=10)
    builder.record_alloc(3, addr=2, nbytes=20)
    builder.record_alloc(5, addr=3, nbytes=30)
    builder.record_free(3, addr=2, nbytes=20)
    builder.end_span(9)
    memory = builder.finish().memory_events
    # int columns: arrays of 8-byte ints, no boxed int per event
    assert memory.ts == array("q", [3, 3, 5, 5])
    assert memory.addr == array("q", [2, 2, 1, 3])
    assert memory.nbytes == array("q", [20, -20, 10, 30])
    # the running total is the one reported at record time
    assert memory.total == array("q", [30, 40, 10, 60])
    assert [e.total_allocated for e in memory] == list(memory.total)


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_row_sort_equals_the_op_sort_key_order(model):
    pipeline = EstimationPipeline(iterations=3)
    analyzed = pipeline.analyze(
        pipeline.profile(WorkloadConfig(model, "adam", 8))
    )
    sequence = pipeline.orchestrate(analyzed)
    by_block = defaultdict(list)
    for op in sequence.events:
        by_block[op.block_id].append(op)
    # the ops as the orchestrator emits them: per block, alloc then free
    emitted = [
        op for item in analyzed.blocks for op in by_block[item.block.block_id]
    ]
    assert len(emitted) == len(sequence.rows)
    ordered = sorted(emitted, key=MemoryOp.sort_key)
    assert [op.row for op in ordered] == sequence.rows


def _sequence(ops) -> OrchestratedSequence:
    return OrchestratedSequence.from_ops(
        [MemoryOp(ts, kind, block_id, size) for ts, kind, block_id, size in ops],
        horizon=max(op[0] for op in ops) + 1,
        num_blocks=len({op[2] for op in ops}),
        persistent_bytes=0,
    )


def test_free_of_an_unknown_block_is_skipped_and_not_counted():
    alloc, free = EventKind.ALLOC, EventKind.FREE
    plain = _sequence([(1, alloc, 1, 4096), (3, free, 1, 4096)])
    stray = _sequence(
        [(1, alloc, 1, 4096), (2, free, 99, 512), (3, free, 1, 4096),
         (4, free, 1, 4096)]
    )
    expected = MemorySimulator().replay(plain)
    got = MemorySimulator().replay(stray)
    assert got.num_events == expected.num_events == 2
    assert got.peak_reserved_bytes == expected.peak_reserved_bytes
    assert got.peak_allocated_bytes == expected.peak_allocated_bytes
    assert not got.oom


def test_a_cold_estimate_builds_no_object_view():
    run = EstimationPipeline(iterations=2).run(
        WorkloadConfig("MobileNetV3Small", "sgd", 4), curve=False
    )
    assert run.trace.memory_events._rows is None
    assert run.sequence._events is None


def test_a_cold_estimate_builds_no_span_view():
    run = EstimationPipeline(iterations=2).run(
        WorkloadConfig("MobileNetV3Small", "sgd", 4), curve=False
    )
    spans = run.trace.spans
    assert spans._rows is None
    # only the loop markers were built: Module.to plus four per iteration
    assert len(spans._picked) <= 1 + 4 * 2 < len(spans)
    assert all(
        spans.category[row] is EventCategory.USER_ANNOTATION
        for row in spans._picked
    )
