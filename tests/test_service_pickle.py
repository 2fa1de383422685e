"""Pickle round-trip properties (satellite of the process-pool PR).

The process driver's correctness rests on one invariant: everything that
crosses the process boundary — the request envelope going out, the
estimation result coming back — survives serialization *exactly*.  These
properties pin it with hypothesis-generated instances: pickle round
trips preserve equality (and the canonical identity the fingerprint is
built from).  The pool submits the :class:`ServiceRequest` itself, so
its pickle trip is its only wire form; a :class:`RequestContext` stays
in the process that opened it, and only its pickle trip is pinned too.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import EstimationResult
from repro.runtime.loop import POS0, POS1
from repro.service.context import RequestContext, ServiceRequest
from repro.workload import DeviceSpec, WorkloadConfig

# readable-but-arbitrary identifiers (JSON-safe text, no surrogates)
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

#: JSON-scalar values for metadata/detail bags (what callers may attach)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    names,
)
bags = st.dictionaries(names, scalars, max_size=4)

requests = st.builds(
    ServiceRequest,
    workload=workloads,
    device=devices,
    fingerprint=names,
    metadata=bags,
)

#: finite stage timings — NaN would (correctly) break equality, and the
#: pipeline never produces one
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

contexts = st.builds(
    RequestContext,
    request_id=st.integers(1, 2**31),
    submitted_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    fingerprint=names,
    deadline=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    ),
    attempt=st.integers(1, 16),
    cache_hit=st.booleans(),
    deduplicated=st.booleans(),
    tags=bags,
)


@settings(max_examples=50)
@given(workload=workloads)
def test_workload_pickle_round_trips(workload):
    clone = pickle.loads(pickle.dumps(workload))
    assert clone == workload
    assert clone.to_key() == workload.to_key()  # fingerprint identity


@settings(max_examples=50)
@given(device=devices)
def test_device_pickle_round_trips(device):
    clone = pickle.loads(pickle.dumps(device))
    assert clone == device
    assert clone.to_key() == device.to_key()


@settings(max_examples=50)
@given(request=requests)
def test_service_request_pickle_round_trips(request):
    clone = pickle.loads(pickle.dumps(request))
    assert clone == request
    assert clone.fingerprint == request.fingerprint


@settings(max_examples=50)
@given(result=results)
def test_estimation_result_pickle_round_trips(result):
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    # equality excludes the stage diagnostics (compare=False) — the wire
    # trip must preserve them anyway, the parent merges them into metrics
    assert clone.stage_seconds == result.stage_seconds
    assert clone.stage_cached == result.stage_cached
    assert clone.detail == result.detail


@settings(max_examples=50)
@given(ctx=contexts)
def test_request_context_pickle_round_trips(ctx):
    assert pickle.loads(pickle.dumps(ctx)) == ctx
