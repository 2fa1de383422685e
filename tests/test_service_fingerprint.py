"""Canonical keys and request fingerprints."""

import asyncio
import dataclasses
import sys
import threading

import pytest

from repro.allocator.constants import DEFAULT_CONFIG, AllocatorConfig
from repro.service import (
    AsyncServiceGateway,
    EstimationService,
    ServiceGateway,
    SyntheticEstimator,
)
from repro.service import fingerprint as fingerprint_module
from repro.service.cache import EstimateCache
from repro.service.fingerprint import (
    DIGEST_LENGTH,
    FINGERPRINT_MEMO_SIZE,
    fingerprint_request,
    request_payload,
)
from repro.units import GiB, MiB
from repro.workload import RTX_3060, RTX_4060, DeviceSpec, WorkloadConfig

WORKLOAD = WorkloadConfig("gpt2", "adam", 8)


class TestCanonicalForms:
    def test_workload_round_trip(self):
        workload = WorkloadConfig(
            "gpt2", "sgd", 16, zero_grad_position="pos0", set_to_none=False
        )
        assert WorkloadConfig.from_dict(workload.as_dict()) == workload

    def test_workload_from_dict_defaults(self):
        rebuilt = WorkloadConfig.from_dict(
            {"model": "gpt2", "optimizer": "adam", "batch_size": 8}
        )
        assert rebuilt == WORKLOAD

    def test_device_round_trip(self):
        device = DeviceSpec(
            name="custom", capacity_bytes=24 * GiB, init_bytes=GiB
        )
        assert DeviceSpec.from_dict(device.as_dict()) == device

    def test_to_key_matches_equality(self):
        assert WORKLOAD.to_key() == WorkloadConfig("gpt2", "adam", 8).to_key()
        assert WORKLOAD.to_key() != WORKLOAD.with_batch_size(9).to_key()
        assert RTX_3060.to_key() != RTX_4060.to_key()
        assert RTX_3060.to_key() == RTX_3060.with_init(0).to_key()

    def test_as_dict_covers_every_field(self):
        assert set(WORKLOAD.as_dict()) == {
            f.name for f in dataclasses.fields(WorkloadConfig)
        }
        assert set(RTX_3060.as_dict()) == {
            f.name for f in dataclasses.fields(DeviceSpec)
        }


class TestFingerprint:
    def fp(self, workload=WORKLOAD, device=RTX_3060, **overrides):
        kwargs = {
            "estimator_name": "xMem",
            "estimator_version": "1",
            "allocator_config": DEFAULT_CONFIG,
        }
        kwargs.update(overrides)
        return fingerprint_request(workload, device, **kwargs)

    def test_stable_across_calls_and_instances(self):
        again = WorkloadConfig("gpt2", "adam", 8)
        assert self.fp() == self.fp(workload=again)

    def test_known_value_pinned(self):
        """The digest is part of the persistence contract — a change here
        means FINGERPRINT_VERSION must be bumped.  The literal is checked
        against the uncached encoding, then against the memo."""
        pinned = "9b2d6c98084d2ab3676d7c05072ed27f"
        encoded = fingerprint_request.__wrapped__(
            WORKLOAD,
            RTX_3060,
            estimator_name="xMem",
            estimator_version="1",
            allocator_config=DEFAULT_CONFIG,
        )
        assert encoded == pinned
        assert self.fp() == pinned
        assert len(pinned) == DIGEST_LENGTH

    @pytest.mark.parametrize(
        "variant",
        [
            {"workload": WORKLOAD.with_batch_size(16)},
            {"workload": dataclasses.replace(WORKLOAD, optimizer="sgd")},
            {
                "workload": dataclasses.replace(
                    WORKLOAD, zero_grad_position="pos0"
                )
            },
            {"device": RTX_4060},
            {"device": RTX_3060.with_init(GiB)},
            {"estimator_name": "DNNMem"},
            {"estimator_version": "2"},
            {
                "allocator_config": dataclasses.replace(
                    DEFAULT_CONFIG, allow_split=False
                )
            },
            {"allocator_config": None},
        ],
    )
    def test_any_input_change_changes_fingerprint(self, variant):
        assert self.fp(**variant) != self.fp()

    def test_payload_versioned_and_complete(self):
        payload = request_payload(
            WORKLOAD,
            RTX_3060,
            estimator_name="xMem",
            allocator_config=DEFAULT_CONFIG,
        )
        assert payload["v"] == 1
        assert payload["workload"] == WORKLOAD.as_dict()
        assert payload["device"] == RTX_3060.as_dict()
        assert payload["allocator"]["min_block_size"] == 512


class TestStrictTypes:
    """Equal configs must encode identically, or a value-keyed memo would
    answer with whichever spelling arrived first (``8 == 8.0 == True``)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkloadConfig("gpt2", "adam", 8.0),
            lambda: WorkloadConfig("gpt2", "adam", True),
            lambda: WorkloadConfig(7, "adam", 8),
            lambda: WorkloadConfig("gpt2", None, 8),
            lambda: WorkloadConfig("gpt2", "adam", 8, set_to_none=1),
            lambda: DeviceSpec(name=3060, capacity_bytes=12 * GiB),
            lambda: DeviceSpec(name="d", capacity_bytes=12.0 * GiB),
            lambda: DeviceSpec(name="d", capacity_bytes=GiB, init_bytes=True),
            lambda: DeviceSpec(
                name="d", capacity_bytes=GiB, framework_bytes=600.0 * MiB
            ),
            lambda: AllocatorConfig(min_block_size=512.0),
            lambda: AllocatorConfig(max_split_size=True),
            lambda: AllocatorConfig(allow_split=1),
        ],
    )
    def test_a_field_of_the_wrong_type_is_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_a_float_batch_size_is_no_second_cache_entry(self):
        service = EstimationService(estimator=SyntheticEstimator())
        wire = {"model": "gpt2", "optimizer": "adam", "batch_size": 8}
        try:
            service.estimate(WorkloadConfig.from_dict(wire), RTX_3060)
            with pytest.raises(TypeError):
                service.estimate(
                    WorkloadConfig.from_dict({**wire, "batch_size": 8.0}),
                    RTX_3060,
                )
            service.estimate(WorkloadConfig.from_dict(wire), RTX_3060)
            cache = service.stats()["cache"]
        finally:
            service.close()
        assert (cache["hits"], cache["misses"], cache["size"]) == (1, 1, 1)


class TestMemo:
    def test_bounded_at_the_estimate_cache_default(self):
        assert FINGERPRINT_MEMO_SIZE == EstimateCache().max_entries == 1024
        for offset in range(2 * FINGERPRINT_MEMO_SIZE):
            device = DeviceSpec("memo", capacity_bytes=8 * GiB + offset)
            fingerprint_request(WORKLOAD, device, estimator_name="xMem")
        info = fingerprint_request.cache_info()
        assert info.currsize == FINGERPRINT_MEMO_SIZE == info.maxsize

    def test_racing_threads_read_what_the_encoding_computes(self):
        """Eight threads over more identities than the memo holds, with
        a tiny switch interval, so hits, misses and evictions interleave."""
        devices = [
            DeviceSpec("race", capacity_bytes=8 * GiB + offset)
            for offset in range(FINGERPRINT_MEMO_SIZE + 256)
        ]
        expected = {
            device: fingerprint_request.__wrapped__(
                WORKLOAD, device, estimator_name="xMem"
            )
            for device in devices
        }
        wrong = []

        def worker(stride):
            for index in range(len(devices)):
                device = devices[index * stride % len(devices)]
                answer = fingerprint_request(
                    WORKLOAD, device, estimator_name="xMem"
                )
                if answer != expected[device]:
                    wrong.append(device)

        threads = [
            threading.Thread(target=worker, args=(stride,))
            for stride in (1, 3, 7, 9, 11, 13, 17, 19)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert fingerprint_request.cache_info().currsize <= FINGERPRINT_MEMO_SIZE


#: identities the clock-free guard serves hits over, and how many hits
IDENTITIES = [
    (WorkloadConfig("MobileNetV2", "sgd", batch), device)
    for batch in (8, 16, 32, 64)
    for device in (RTX_3060, RTX_4060)
]
HITS = 5000


@pytest.fixture
def payloads(monkeypatch):
    """Count canonical payloads built from a cold memo on."""
    built = []
    real = fingerprint_module.request_payload

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fingerprint_module, "request_payload", counting)
    fingerprint_request.cache_clear()
    return built


class TestOneFingerprintPerIdentity:
    """A hit re-encodes nothing: however many times an identity is asked
    for, its canonical payload is built once (clock-free, so CI sees a
    regression a timing run would miss)."""

    def test_thread_gateway(self, payloads):
        with ServiceGateway(
            num_shards=4, estimator_factory=SyntheticEstimator
        ) as gateway:
            for index in range(len(IDENTITIES) + HITS):
                gateway.estimate(*IDENTITIES[index % len(IDENTITIES)])
            hits = gateway.stats()["aggregate"]["cache_hits"]
        assert hits == HITS
        assert len(payloads) <= len(IDENTITIES)

    def test_asyncio_gateway(self, payloads):
        async def main():
            async with AsyncServiceGateway(
                num_shards=4, estimator_factory=SyntheticEstimator
            ) as gateway:
                for index in range(len(IDENTITIES) + HITS):
                    await gateway.estimate(
                        *IDENTITIES[index % len(IDENTITIES)]
                    )
                return gateway.stats()["aggregate"]["cache_hits"]

        assert asyncio.run(main()) == HITS
        assert len(payloads) <= len(IDENTITIES)
