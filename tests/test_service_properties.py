"""Property-based canonicalization tests (satellite of the gateway PR).

The whole serving stack — fingerprint cache, single-flight table,
consistent-hash routing — keys on the canonical identity of
``WorkloadConfig``/``DeviceSpec``.  These properties pin that identity:
``as_dict``/``from_dict`` round-trip exactly, the round trip is immune
to dict field *order*, survives a JSON serialize→deserialize cycle, and
never changes the fingerprint.  The stability properties run the
uncached encoding (``fingerprint_request.__wrapped__``): an equal
workload would otherwise hit the memo and encode nothing.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.loop import POS0, POS1
from repro.service import fingerprint_request
from repro.workload import DeviceSpec, WorkloadConfig

#: the canonical encoding without the memo in front of it
encode = fingerprint_request.__wrapped__

# readable-but-arbitrary identifiers (JSON-safe text, no surrogates)
names = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",)
    ),
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
    capacity_bytes=st.integers(1, 2**44),
    init_bytes=st.integers(0, 2**40),
    framework_bytes=st.integers(0, 2**32),
)


def reordered(payload: dict, order: list[int]) -> dict:
    """The same payload with its keys inserted in a permuted order."""
    keys = list(payload)
    permuted = sorted(keys, key=lambda key: order[keys.index(key)])
    return {key: payload[key] for key in permuted}


class TestWorkloadRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(workload=workloads)
    def test_as_dict_from_dict_is_identity(self, workload):
        assert WorkloadConfig.from_dict(workload.as_dict()) == workload

    @settings(max_examples=120, deadline=None)
    @given(workload=workloads)
    def test_to_key_is_stable_through_the_round_trip(self, workload):
        round_tripped = WorkloadConfig.from_dict(workload.as_dict())
        assert round_tripped.to_key() == workload.to_key()

    @settings(max_examples=120, deadline=None)
    @given(
        workload=workloads,
        order=st.permutations(list(range(5))),
    )
    def test_round_trip_survives_field_reordering(self, workload, order):
        shuffled = reordered(workload.as_dict(), list(order))
        assert WorkloadConfig.from_dict(shuffled) == workload

    @settings(max_examples=100, deadline=None)
    @given(first=workloads, second=workloads)
    def test_to_key_agrees_with_equality(self, first, second):
        assert (first == second) == (first.to_key() == second.to_key())


class TestDeviceRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(device=devices)
    def test_as_dict_from_dict_is_identity(self, device):
        assert DeviceSpec.from_dict(device.as_dict()) == device

    @settings(max_examples=120, deadline=None)
    @given(
        device=devices,
        order=st.permutations(list(range(4))),
    )
    def test_round_trip_survives_field_reordering(self, device, order):
        shuffled = reordered(device.as_dict(), list(order))
        round_tripped = DeviceSpec.from_dict(shuffled)
        assert round_tripped == device
        assert round_tripped.to_key() == device.to_key()


class TestFingerprintStability:
    @settings(max_examples=100, deadline=None)
    @given(workload=workloads, device=devices)
    def test_serialize_deserialize_preserves_the_fingerprint(
        self, workload, device
    ):
        """The wire cycle a persistent cache would do changes nothing."""
        original = encode(
            workload, device, estimator_name="xMem", estimator_version="1"
        )
        wire = json.dumps(
            {"workload": workload.as_dict(), "device": device.as_dict()}
        )
        decoded = json.loads(wire)
        revived = encode(
            WorkloadConfig.from_dict(decoded["workload"]),
            DeviceSpec.from_dict(decoded["device"]),
            estimator_name="xMem",
            estimator_version="1",
        )
        assert revived == original

    @settings(max_examples=100, deadline=None)
    @given(
        workload=workloads,
        device=devices,
        order=st.permutations(list(range(5))),
    )
    def test_field_order_never_changes_the_fingerprint(
        self, workload, device, order
    ):
        original = encode(workload, device, estimator_name="xMem")
        shuffled = WorkloadConfig.from_dict(
            reordered(workload.as_dict(), list(order))
        )
        assert encode(shuffled, device, estimator_name="xMem") == original

    @settings(max_examples=100, deadline=None)
    @given(workload=workloads, device=devices)
    def test_the_memo_answers_what_the_encoding_computes(
        self, workload, device
    ):
        for _ in range(2):  # a miss, then a hit
            assert fingerprint_request(
                workload, device, estimator_name="xMem", estimator_version="1"
            ) == encode(
                workload, device, estimator_name="xMem", estimator_version="1"
            )
