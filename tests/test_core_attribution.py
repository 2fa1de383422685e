"""Sweep-line attribution: equal to the brute-force scan, and linear.

``attribute_blocks`` walks spans and blocks once in time order.  The
per-query linear scan it replaced survives as ``Trace.enclosing_spans``
and is the oracle here; the six end-to-end benchmark models pin the
classification the sweep feeds, and a 20 000-op synthetic trace pins its
cost.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import attribution
from repro.core.analyzer import Analyzer
from repro.core.attribution import AttributedBlock, attribute_blocks
from repro.core.lifecycle import MemoryBlock
from repro.core.pipeline import EstimationPipeline
from repro.framework.tensor import TensorRole
from repro.trace.events import EventCategory, MemoryEvent, SpanEvent
from repro.trace.reader import Trace
from repro.workload import WorkloadConfig

SPAN_CATEGORIES = (
    EventCategory.CPU_OP,
    EventCategory.PYTHON_FUNCTION,
    EventCategory.USER_ANNOTATION,
)
# one pool for every category: the attribution rules key on these
# prefixes whatever span carries them
SPAN_NAMES = (
    "",
    "train_step",
    "nn.Module: encoder",
    "nn.Module: fc",
    "autograd::engine::evaluate_function",
    "aten::add",
    "AddBackward0",
    "ProfilerStep#0",
    "ProfilerStep#1",
    "Optimizer.step#Adam.step",
)

# a narrow time axis, so equal starts, equal (ts, dur), zero-length spans,
# partial overlaps and blocks landing exactly on a bound all come up often
spans_strategy = st.lists(
    st.builds(
        SpanEvent,
        name=st.sampled_from(SPAN_NAMES),
        category=st.sampled_from(SPAN_CATEGORIES),
        ts=st.integers(0, 30),
        dur=st.integers(0, 12),
        args=st.sampled_from([{}, {"Backward": True}]),
    ),
    max_size=40,
)
# unsorted on purpose; -3 and 45 lie outside every possible span
alloc_times_strategy = st.lists(st.integers(-3, 45), max_size=30)


def brute_force(trace: Trace, block: MemoryBlock) -> AttributedBlock:
    """What attribution means, one full scan per category per block."""
    ts = block.alloc_ts

    def innermost(category: EventCategory) -> Optional[SpanEvent]:
        stack = trace.enclosing_spans(ts, category)
        return stack[-1] if stack else None

    functions = trace.enclosing_spans(ts, EventCategory.PYTHON_FUNCTION)
    op = innermost(EventCategory.CPU_OP)
    # the window that opened last, provided it is still open
    windows = trace.iterations()
    opened = [i for i, window in enumerate(windows) if window.ts <= ts]
    iteration = None
    if opened and windows[opened[-1]].contains_time(ts):
        iteration = opened[-1]
    return AttributedBlock(
        block=block,
        op=op,
        module_path="/".join(
            span.name.removeprefix("nn.Module: ") for span in functions
        )
        or None,
        annotation=innermost(EventCategory.USER_ANNOTATION),
        iteration=iteration,
        backward=any(
            span.name.startswith("autograd::") for span in functions
        )
        or (op is not None and op.is_backward),
    )


@settings(max_examples=300, deadline=None)
@given(spans=spans_strategy, alloc_times=alloc_times_strategy)
def test_sweep_agrees_with_brute_force(spans, alloc_times):
    trace = Trace(spans=spans, memory_events=[])
    blocks = [
        MemoryBlock(addr=index, size=1, alloc_ts=ts)
        for index, ts in enumerate(alloc_times)
    ]
    expected = [brute_force(trace, block) for block in blocks]
    attributed = attribute_blocks(trace, blocks)
    assert len(attributed) == len(blocks)
    for got, want in zip(attributed, expected):
        assert got.block is want.block  # input order kept
        assert got.op is want.op
        assert got.annotation is want.annotation
        assert got.module_path == want.module_path
        assert got.iteration == want.iteration
        assert got.backward is want.backward


def test_blocks_on_inclusive_bounds_and_outside():
    outer = SpanEvent("aten::outer", EventCategory.CPU_OP, ts=10, dur=10)
    inner = SpanEvent("aten::inner", EventCategory.CPU_OP, ts=12, dur=3)
    twin = SpanEvent("aten::twin", EventCategory.CPU_OP, ts=12, dur=3)
    point = SpanEvent("aten::point", EventCategory.CPU_OP, ts=20, dur=0)
    trace = Trace(spans=[point, twin, outer, inner], memory_events=[])
    times = [21, 20, 9, 15, 16, 12, 10]  # handed in unsorted
    blocks = [
        MemoryBlock(addr=index, size=1, alloc_ts=ts)
        for index, ts in enumerate(times)
    ]
    ops = [item.op for item in attribute_blocks(trace, blocks)]
    # equal (ts, dur): the later of the twins in trace order is innermost
    assert ops == [None, point, None, inner, outer, inner, outer]


# ----------------------------------------------------------------------
# golden equivalence: the six end-to-end benchmark models
# ----------------------------------------------------------------------

#: model -> (role_bytes, dropped_blocks, sha256 over the kept blocks'
#: (role, iteration, module_path) tuples); adam, batch 8, 3 iterations.
#: Taken from the per-block span scan this sweep replaced.
GOLDEN = {
    "VGG16": (
        {
            "activation": 270425100,
            "batch_data": 1179840,
            "gradient": 1660290528,
            "optimizer_state": 1106860352,
            "parameter": 553430176,
            "temporary": 4122311916,
        },
        0,
        "2f4c140fbd896961e14c9ac6d5be0a026f79db1b38a4819aa39591cfc547a89d",
    ),
    "VGG19": (
        {
            "activation": 290872332,
            "batch_data": 1179840,
            "gradient": 1724006880,
            "optimizer_state": 1149337920,
            "parameter": 574668960,
            "temporary": 4554078444,
        },
        0,
        "64b1f62f5b7466783899a30a200a2c97e3dd6caf32fbf7463a515472683508df",
    ),
    "distilgpt2": (
        {
            "activation": 5422055436,
            "batch_data": 49152,
            "gradient": 982950912,
            "optimizer_state": 655300608,
            "parameter": 327650304,
            "temporary": 1850096652,
        },
        0,
        "4326ad03bde4ce0a8f63861d15a6d40b83316fce0c083c8f75fdc44c954588b2",
    ),
    "Cerebras-GPT-111M": (
        {
            "activation": 7338000396,
            "batch_data": 49152,
            "gradient": 1332605952,
            "optimizer_state": 888403968,
            "parameter": 444201984,
            "temporary": 2501741580,
        },
        0,
        "6cf4b87009b759abe52b0783ea014858f8ff8d4531848c274b598828d998db12",
    ),
    "ConvNeXtTiny": (
        {
            "activation": 425798796,
            "batch_data": 1179840,
            "gradient": 342971616,
            "optimizer_state": 228647744,
            "parameter": 114323872,
            "temporary": 396948972,
        },
        0,
        "6f97916c23d7ffef27d9681c94520bb3303bad3e71bf336d488060bbd27001d4",
    ),
    "t5-small": (
        {
            "activation": 6293458956,
            "batch_data": 49152,
            "gradient": 923461632,
            "optimizer_state": 484044800,
            "parameter": 242022400,
            "temporary": 1819994124,
        },
        0,
        "b36b89bbe44f292b48d0f92b6eff46f6e2bfc7366f194771b5d4f65bba5a38fa",
    ),
}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_classification_of_benchmark_models_is_pinned(model):
    role_bytes, dropped_blocks, digest = GOLDEN[model]
    pipeline = EstimationPipeline(iterations=3)
    analyzed = pipeline.analyze(
        pipeline.profile(WorkloadConfig(model, "adam", 8))
    )
    assert {
        role.value: total for role, total in analyzed.role_bytes().items()
    } == role_bytes
    assert analyzed.dropped_blocks == dropped_blocks
    rows = [
        (item.role.value, item.iteration, item.module_path)
        for item in analyzed.blocks
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# scaling guard
# ----------------------------------------------------------------------

SCALING_OPS = 20_000
SCALING_DEPTH = 10
#: the sweep analyzes this trace in ~0.3 s here.  A scan of every earlier
#: span per block needs ~2e8 ``contains_time`` calls for the module spans
#: alone: measured 1.8 s at a quarter of this size, so ~30 s at this one.
SCALING_BOUND_SECONDS = 7.0
#: the clock-free form of the same guard: the sweep's own work, rows
#: admitted plus stack entries re-checked when a span expires
#: (``_OpenSpans.examined``).  The sweep does 14 per block here (an op
#: and a leaf module admitted, the 11-deep module stack re-checked when
#: the leaf expires); a scan of every earlier span per block does ~2e4.
SCALING_WORK_PER_BLOCK = 200


class RecordingOpenSpans(attribution._OpenSpans):
    """``_OpenSpans`` that remembers every instance, to read its work."""

    instances: list = []

    def __init__(self, *args):
        super().__init__(*args)
        RecordingOpenSpans.instances.append(self)


def test_analyze_is_linear_in_spans_and_blocks(monkeypatch):
    horizon = SCALING_OPS * 10 + 100
    spans = [
        SpanEvent(
            f"nn.Module: level{depth}",
            EventCategory.PYTHON_FUNCTION,
            ts=depth,
            dur=horizon - 2 * depth,
        )
        for depth in range(SCALING_DEPTH)
    ]
    spans.append(
        SpanEvent("ProfilerStep#0", EventCategory.USER_ANNOTATION, 0, horizon)
    )
    memory_events = []
    for index in range(SCALING_OPS):
        start = 50 + index * 10
        # each op under its own module call, as in a real forward pass
        spans.append(
            SpanEvent(
                "nn.Module: leaf", EventCategory.PYTHON_FUNCTION, start - 1, 8
            )
        )
        spans.append(SpanEvent("aten::relu", EventCategory.CPU_OP, start, 6))
        memory_events.append(MemoryEvent(ts=start + 1, addr=index, nbytes=64))
        memory_events.append(MemoryEvent(ts=start + 4, addr=index, nbytes=-64))
    trace = Trace(spans=spans, memory_events=memory_events)

    monkeypatch.setattr(attribution, "_OpenSpans", RecordingOpenSpans)
    RecordingOpenSpans.instances = []
    started = time.perf_counter()
    analyzed = Analyzer().analyze(trace)
    elapsed = time.perf_counter() - started
    work = sum(sweep.examined for sweep in RecordingOpenSpans.instances)

    assert len(analyzed.blocks) == SCALING_OPS
    path = "/".join(
        [f"level{depth}" for depth in range(SCALING_DEPTH)] + ["leaf"]
    )
    assert all(
        item.op is not None
        and item.op.contains_time(item.block.alloc_ts)
        and item.module_path == path
        and item.role is TensorRole.TEMPORARY
        for item in analyzed.blocks
    )
    assert len(RecordingOpenSpans.instances) == 3  # one per span category
    assert work < SCALING_WORK_PER_BLOCK * SCALING_OPS, work
    assert elapsed < SCALING_BOUND_SECONDS, f"analyze took {elapsed:.2f} s"
