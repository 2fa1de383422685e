"""Stage artifacts as int columns.

The cold chain stores each artifact as flat columns and builds its
object views on demand:

* what a cached cell keeps — GC-tracked objects and retained bytes over
  the six models of the end-to-end ``cold-zoo`` workload, measured by
  ``benchmarks/bench_pipeline_stages.py``'s ``cached_cell_footprint``
  (clock-free);
* block ids are canonical per trace, so two analyses of one trace agree
  on every id and hash their sequences equal;
* the column views equal the rows of the object pipeline the columns
  replaced — the per-event lifecycle loop, the per-block span scan plus
  the role rules, and the per-record orchestration rules — up to the
  block-id remap (that pipeline drew ids from a process-wide counter).
"""

from __future__ import annotations

import bisect
import importlib.util
import pickle
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Analyzer
from repro.core.attribution import AttributedBlock
from repro.core.lifecycle import reconstruct_lifecycles
from repro.core.orchestrator import (
    KIND_ALLOC,
    KIND_FREE,
    MemoryOrchestrator,
    sequence_fingerprint,
)
from repro.core.pipeline import EstimationPipeline
from repro.framework.tensor import TensorRole
from repro.trace.builder import TraceBuilder
from repro.trace.events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    EventCategory,
    MemoryEvent,
    SpanEvent,
)
from repro.trace.reader import Trace
from repro.workload import WorkloadConfig

from tests.test_memory_rows import reference_lifecycles

ROOT = Path(__file__).resolve().parent.parent


def load_stage_bench():
    """``benchmarks/bench_pipeline_stages.py`` as a module (it imports its
    sibling ``_common``, so the benchmark directory is on the path while
    it loads)."""
    benchmarks = str(ROOT / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_pipeline_stages", ROOT / "benchmarks" / "bench_pipeline_stages.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(benchmarks)
    return module


@pytest.fixture(scope="module")
def stage_bench():
    return load_stage_bench()


@pytest.fixture(scope="module")
def footprint(stage_bench):
    return stage_bench.cached_cell_footprint()


def test_a_cached_cell_keeps_at_most_100_tracked_objects(footprint, stage_bench):
    assert footprint["cells"] == 6
    assert footprint["tracked_per_cell"] <= stage_bench.MAX_TRACKED_PER_CELL == 100


def test_a_cached_cell_retains_at_most_0_4_of_the_object_rows_bytes(
    footprint, stage_bench
):
    assert stage_bench.MAX_RETAINED_SHARE == 0.4
    assert footprint["retained_share"] <= 0.4, footprint


# ----------------------------------------------------------------------
# canonical block ids
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trace() -> Trace:
    return EstimationPipeline(iterations=2).profile(
        WorkloadConfig("MobileNetV3Small", "sgd", 4)
    )


def test_two_analyses_of_one_trace_give_identical_block_ids(small_trace):
    first = Analyzer().analyze(small_trace)
    second = Analyzer().analyze(small_trace)
    assert first.blocks == second.blocks
    ids = first.blocks.blocks.block_id
    assert ids == second.blocks.blocks.block_id
    # creation ranks from 0: every block kept, so a permutation of 0..n-1
    assert first.dropped_blocks == 0
    assert sorted(ids) == list(range(len(ids)))
    one = MemoryOrchestrator().orchestrate(first)
    two = MemoryOrchestrator().orchestrate(second)
    assert one.rows == two.rows
    assert sequence_fingerprint(one) == sequence_fingerprint(two)


def test_the_analyzed_trace_pickles_as_columns(small_trace):
    analyzed = Analyzer().analyze(small_trace)
    expected = [
        (item.block, item.role, item.iteration, item.module_path, item.op_name)
        for item in analyzed.blocks
    ]
    restored = pickle.loads(pickle.dumps(analyzed))
    assert restored.blocks._rows is None  # the view is not stored
    assert restored.role_bytes() == analyzed.role_bytes()
    assert [
        (item.block, item.role, item.iteration, item.module_path, item.op_name)
        for item in restored.blocks
    ] == expected


# ----------------------------------------------------------------------
# one column-table contract
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tables(small_trace) -> dict:
    """The four column tables of one trace, its lifecycles and analysis."""
    return {
        "MemoryColumns": small_trace.memory_events,
        "SpanColumns": small_trace.spans,
        "BlockColumns": reconstruct_lifecycles(small_trace.memory_events).blocks,
        "AttributedColumns": Analyzer().analyze(small_trace).blocks,
    }


def _row(item):
    """A row as a value: an ``AttributedBlock`` compares by identity."""
    if isinstance(item, AttributedBlock):
        return (
            item.block,
            item.role,
            item.iteration,
            item.module_path,
            item.op_name,
            item.annotation_name,
            item.backward,
        )
    return item


#: each table's ``from_*`` constructor, length and repr on ``small_trace``
CONTRACT = {
    "MemoryColumns": ("from_events", 1886, "MemoryColumns(1886 events)"),
    "SpanColumns": ("from_events", 1053, "SpanColumns(1053 spans)"),
    "BlockColumns": ("from_blocks", 1058, "BlockColumns(1058 blocks)"),
    "AttributedColumns": ("from_items", 1058, "AttributedColumns(1058 blocks)"),
}


@pytest.mark.parametrize("name", CONTRACT)
def test_a_column_table_keeps_one_contract(tables, name):
    """Pickling, the ``from_*`` constructor, ``take``, ``len`` and
    ``repr`` behave alike on the four tables."""
    constructor, length, text = CONTRACT[name]
    table = tables[name]
    assert (len(table), repr(table)) == (length, text)
    rows = [_row(item) for item in table]  # builds the view
    restored = pickle.loads(pickle.dumps(table))
    assert restored == table
    assert restored._rows is None  # the view is not stored
    assert [_row(item) for item in restored] == rows
    assert getattr(type(table), constructor)(list(table)) == table
    if hasattr(table, "take"):
        picked = [5, 0, len(table) - 1, 5]
        taken = table.take(picked)
        assert all(item is table[row] for item, row in zip(taken, picked))
        fresh = pickle.loads(pickle.dumps(table)).take(picked)
        assert fresh._rows is None
        assert [_row(item) for item in fresh] == [rows[row] for row in picked]


def test_equal_span_args_are_stored_once_and_copied():
    builder = TraceBuilder()
    args = {"Sequence number": 7}
    for ts in (0, 10):
        builder.begin_span("aten::mm", EventCategory.CPU_OP, ts, args)
        builder.end_span(ts + 5)
    builder.begin_span("aten::mm", EventCategory.CPU_OP, 20, {"Sequence number": 8})
    builder.end_span(25)
    args["Sequence number"] = 99  # a caller's later change
    stored = builder.finish().spans.args
    assert stored[0] is stored[1]
    assert stored[0] == {"Sequence number": 7}
    assert stored[2] == {"Sequence number": 8}


# ----------------------------------------------------------------------
# the column views against the object pipeline they replaced
# ----------------------------------------------------------------------

SPAN_NAMES = (
    MODEL_TO_DEVICE,
    DATALOADER_NEXT,
    "ProfilerStep#0",
    "ProfilerStep#1",
    ZERO_GRAD_PREFIX + "SGD",
    OPTIMIZER_STEP_PREFIX + "SGD.step",
    "nn.Module: encoder",
    "nn.Module: fc",
    "autograd::engine",
    "aten::mm",
    "MmBackward0",
)
SPAN_CATEGORIES = (
    EventCategory.CPU_OP,
    EventCategory.PYTHON_FUNCTION,
    EventCategory.USER_ANNOTATION,
)

#: the iteration window every generated trace has (the Analyzer needs one)
STEP = SpanEvent("ProfilerStep#0", EventCategory.USER_ANNOTATION, 2, 30)

spans_strategy = st.lists(
    st.builds(
        SpanEvent,
        name=st.sampled_from(SPAN_NAMES),
        category=st.sampled_from(SPAN_CATEGORIES),
        ts=st.integers(0, 40),
        dur=st.integers(0, 15),
        args=st.sampled_from([{}, {"Backward": True}, {"Sequence number": 3}]),
    ),
    max_size=30,
)


@st.composite
def traces(draw) -> Trace:
    """A ProfilerStep window plus random spans, and a time-ordered
    alloc/free stream over a few reused addresses whose timestamps often
    land on a span's start or end (where every rule has a boundary)."""
    spans = [STEP, *draw(spans_strategy)]
    bounds = sorted({ts for span in spans for ts in (span.ts, span.end)})
    times = sorted(
        draw(
            st.lists(
                st.one_of(st.sampled_from(bounds), st.integers(0, 45)),
                min_size=1,
                max_size=30,
            )
        )
    )
    events = []
    live: dict[int, int] = {}  # addr -> size
    for ts in times:
        if live and draw(st.booleans()):  # usually free a live block
            addr = draw(st.sampled_from(sorted(live)))
            nbytes = -live.pop(addr)
        else:  # an allocation, or now and then a stray free
            addr = draw(st.integers(0, 4))
            nbytes = draw(st.integers(1, 4096))
            if draw(st.integers(0, 9)) == 0:
                nbytes = -nbytes
            else:
                live[addr] = nbytes
        events.append(MemoryEvent(ts=ts, addr=addr, nbytes=nbytes))
    return Trace(spans=spans, memory_events=events)


def _trace(spans, memory) -> Trace:
    """A hand-written trace inside the ``STEP`` window."""
    return Trace(
        spans=[STEP, *(SpanEvent(*span) for span in spans)],
        memory_events=[MemoryEvent(ts=ts, addr=1, nbytes=nbytes) for ts, nbytes in memory],
    )


#: a backward-pass block freed exactly where the next zero_grad starts
#: (a gradient: the rule snaps its free into the window)
GRADIENT_FREED_AT_ZERO_GRAD = _trace(
    [
        ("autograd::engine", EventCategory.PYTHON_FUNCTION, 3, 7),
        (ZERO_GRAD_PREFIX + "SGD", EventCategory.USER_ANNOTATION, 12, 2),
    ],
    [(5, 64), (12, -64)],
)
#: a block freed exactly where its op ends (a temporary)
FREED_AT_OP_END = _trace(
    [("aten::mm", EventCategory.CPU_OP, 4, 6)], [(5, 64), (10, -64)]
)


def _innermost(trace: Trace, ts: int, category: EventCategory) -> Optional[SpanEvent]:
    stack = trace.enclosing_spans(ts, category)
    return stack[-1] if stack else None


def _freed_within(free_ts, windows) -> bool:
    return free_ts is not None and any(
        start <= free_ts <= end for start, end in windows
    )


def object_pipeline(trace: Trace, id_offset: int) -> tuple[list[tuple], dict]:
    """The sequence rows and the role byte totals of the object pipeline:
    one record per block, attributed by a full span scan per block,
    classified by the role rules, orchestrated by the four default rules;
    ids ``id_offset`` + creation rank."""
    lifecycles, _, _ = reference_lifecycles(list(trace.memory_events))
    iterations = trace.iterations()
    zero_grads = trace.zero_grad_spans()
    steps = trace.optimizer_step_spans()
    step_windows = [(s.ts, s.end) for s in steps]
    gradient_windows = [(z.ts, z.end) for z in zero_grads] + [
        (
            max((s.end for s in steps if window.contains_span(s)), default=window.ts),
            window.end,
        )
        for window in iterations
    ]
    records = []
    for addr, size, alloc_ts, free_ts, rank in lifecycles:
        op = _innermost(trace, alloc_ts, EventCategory.CPU_OP)
        annotation = _innermost(trace, alloc_ts, EventCategory.USER_ANNOTATION)
        if op is None and annotation is None:
            continue  # the operator filter
        functions = trace.enclosing_spans(alloc_ts, EventCategory.PYTHON_FUNCTION)
        backward = any(f.name.startswith("autograd::") for f in functions) or (
            op is not None and op.is_backward
        )
        opened = [i for i, w in enumerate(iterations) if w.ts <= alloc_ts]
        iteration = None
        if opened and iterations[opened[-1]].contains_time(alloc_ts):
            iteration = opened[-1]
        name = annotation.name if annotation is not None else ""
        if name == MODEL_TO_DEVICE:
            role = TensorRole.PARAMETER
        elif name == DATALOADER_NEXT:
            role = TensorRole.BATCH_DATA
        elif name.startswith(ZERO_GRAD_PREFIX):
            role = TensorRole.TEMPORARY
        elif name.startswith(OPTIMIZER_STEP_PREFIX):
            role = (
                TensorRole.TEMPORARY
                if _freed_within(free_ts, step_windows)
                else TensorRole.OPTIMIZER_STATE
            )
        elif backward and (free_ts is None or _freed_within(free_ts, gradient_windows)):
            role = TensorRole.GRADIENT
        elif op is not None and free_ts is not None and free_ts <= op.end:
            role = TensorRole.TEMPORARY
        else:
            role = TensorRole.ACTIVATION
        records.append((size, alloc_ts, free_ts, id_offset + rank, role, iteration))

    role_bytes: dict = {}
    for size, _, _, _, role, _ in records:
        role_bytes[role] = role_bytes.get(role, 0) + size
    zero_grad_starts = [z.ts for z in zero_grads]
    rows = []
    for size, alloc_ts, free_ts, block_id, role, iteration in records:
        if role in (TensorRole.PARAMETER, TensorRole.OPTIMIZER_STATE):
            free_ts = None
        elif role is TensorRole.BATCH_DATA and iteration is not None:
            boundary = iterations[iteration].end
            if free_ts is None or free_ts > boundary:
                free_ts = boundary
        elif role is TensorRole.GRADIENT:
            index = bisect.bisect_right(zero_grad_starts, alloc_ts)
            if index >= len(zero_grads):
                free_ts = None
            elif free_ts is None or free_ts >= zero_grads[index].ts:
                window = zero_grads[index]
                free_ts = window.ts + max(1, window.dur // 2)
        rows.append((alloc_ts, KIND_ALLOC, block_id, size, role))
        if free_ts is not None:
            if free_ts < alloc_ts:
                free_ts = alloc_ts + 1
            rows.append((free_ts, KIND_FREE, block_id, size, role))
    return sorted(rows, key=lambda row: row[:3]), role_bytes


@settings(max_examples=300, deadline=None)
@given(trace=traces(), id_offset=st.integers(1, 10**6))
@example(trace=GRADIENT_FREED_AT_ZERO_GRAD, id_offset=1)
@example(trace=FREED_AT_OP_END, id_offset=1)
def test_column_views_equal_the_object_pipeline_up_to_the_id_remap(trace, id_offset):
    analyzed = Analyzer().analyze(trace)
    sequence = MemoryOrchestrator().orchestrate(analyzed)
    rows, role_bytes = object_pipeline(trace, id_offset)
    remapped = [
        (ts, kind, id_offset + block_id, size, role)
        for ts, kind, block_id, size, role in sequence.rows
    ]
    assert remapped == rows
    assert [op.row for op in sequence.events] == sequence.rows
    # the same totals, in the same (first-seen) order
    assert list(analyzed.role_bytes().items()) == list(role_bytes.items())
    assert sequence.persistent_bytes == sum(
        size
        for _, kind, block_id, size, _ in rows
        if kind == KIND_ALLOC
        and not any(r[2] == block_id and r[1] == KIND_FREE for r in rows)
    )
