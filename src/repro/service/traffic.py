"""Deterministic traffic scenarios for exercising the serving layer.

Load testing a cache-heavy gateway is only meaningful when the request
stream's *shape* is controlled: a uniform stream measures raw dispatch,
a zipf stream measures cache locality, a duplicate storm measures
single-flight dedup, and an adversarial mix measures shed/reject paths.
This module synthesizes those streams **deterministically** — the same
``(scenario, seed, num_requests)`` triple always produces the byte-same
sequence of ``(workload, device)`` pairs — so benchmark numbers and CI
assertions are reproducible.

Workloads are drawn from the real model registry (CNN family: cheap to
profile) and the paper's evaluation devices, so every generated request
is valid against :class:`~repro.service.middleware.ValidationMiddleware`
except where a scenario *wants* rejects (``adversarial``).

:class:`SyntheticEstimator` is the matching load-test estimator: instant
and deterministic (peak bytes derived from the request fingerprint), so
replays measure the serving layer — routing, caches, queues — rather
than CPU profiling time.

This module only describes traffic: :mod:`repro.service.replayer`
replays a trace on a driver, and the chaos catalog (what breaks while
the traffic arrives) lives with the fault plans in
:mod:`repro.service.faults`.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.base import Estimator
from ..core.result import EstimationResult
from ..models.registry import list_models
from ..units import GiB, MiB
from ..workload import EVAL_DEVICES, DeviceSpec, WorkloadConfig
from .control import ControlPlane, TenantConfig

#: Multi-tenant scenario catalog (``loadtest --tenants``): traffic that
#: only makes sense against a gateway with a
#: :class:`~repro.service.control.ControlPlane` (see
#: :func:`make_control`) — each request carries a tenant and QoS class.
TENANT_SCENARIOS = (
    "noisy-neighbor",
    "quota-storm",
    "priority-inversion",
)

SCENARIO_NAMES = (
    "uniform",
    "zipf",
    "bursty",
    "duplicate-storm",
    "adversarial",
) + TENANT_SCENARIOS

#: optimizer pool for generated workloads (all registry-valid)
_OPTIMIZERS = ("sgd", "adam", "adamw")
_BATCH_SIZES = (4, 8, 16, 32)


@dataclass(frozen=True)
class TrafficRequest:
    """One generated request: what to submit and when (which wave)."""

    workload: WorkloadConfig
    device: DeviceSpec
    #: burst index — replayers submit a wave, join it, then continue
    wave: int = 0
    #: submitting tenant ("" = untenanted; see service.control)
    tenant: str = ""
    #: QoS class (0 interactive / 1 standard / 2 batch)
    priority: int = 1


@dataclass(frozen=True)
class TrafficTrace:
    """A replayable, fully materialized request stream."""

    scenario: str
    seed: int
    requests: tuple[TrafficRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def waves(self) -> list[list[TrafficRequest]]:
        """Requests grouped by wave, in wave order."""
        grouped: dict[int, list[TrafficRequest]] = {}
        for request in self.requests:
            grouped.setdefault(request.wave, []).append(request)
        return [grouped[wave] for wave in sorted(grouped)]

    def unique_fingerprint_keys(self) -> int:
        """Distinct (workload, device) identities in the trace."""
        return len(
            {
                (r.workload.to_key(), r.device.to_key())
                for r in self.requests
            }
        )


def workload_catalog(
    size: int,
    seed: int = 0,
    models: Optional[Sequence[str]] = None,
) -> list[WorkloadConfig]:
    """``size`` distinct valid workloads, deterministic in ``seed``.

    Defaults to the CNN zoo — the cheapest family to profile — crossed
    with optimizers and batch sizes; the cross product is shuffled so a
    prefix is already diverse.
    """
    if size < 1:
        raise ValueError("catalog needs at least one workload")
    if models is None:
        models = [
            spec.name for spec in list_models() if spec.family == "cnn"
        ]
    combos = [
        WorkloadConfig(model=model, optimizer=optimizer, batch_size=batch)
        for model in models
        for optimizer in _OPTIMIZERS
        for batch in _BATCH_SIZES
    ]
    if size > len(combos):
        raise ValueError(
            f"catalog size {size} exceeds {len(combos)} distinct combos"
        )
    rng = random.Random(seed)
    rng.shuffle(combos)
    return combos[:size]


def _zipf_weights(count: int, exponent: float = 1.2) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def _generate_uniform(rng, catalog, devices, num_requests, waves):
    return [
        TrafficRequest(
            workload=rng.choice(catalog),
            device=rng.choice(devices),
            wave=index * waves // num_requests,
        )
        for index in range(num_requests)
    ]


def _generate_zipf(rng, catalog, devices, num_requests, waves):
    """Hot-key traffic: rank-1 workload dominates (web-cache shape)."""
    weights = _zipf_weights(len(catalog))
    picks = rng.choices(range(len(catalog)), weights=weights, k=num_requests)
    device_for = {  # hot keys keep a fixed device: repeats share a fingerprint
        index: devices[index % len(devices)] for index in range(len(catalog))
    }
    return [
        TrafficRequest(
            workload=catalog[pick],
            device=device_for[pick],
            wave=index * waves // num_requests,
        )
        for index, pick in enumerate(picks)
    ]


def _generate_bursty(rng, catalog, devices, num_requests, waves):
    """Each wave hammers a small working set, then moves on.

    Models diurnal / deploy-driven traffic: within a wave requests repeat
    heavily (cache + dedup exercise); across waves the working set drifts
    (eviction exercise).
    """
    requests: list[TrafficRequest] = []
    effective_waves = min(waves, num_requests)  # never exceed the budget
    per_wave = num_requests // effective_waves
    for wave in range(effective_waves):
        working_set = rng.sample(catalog, k=min(3, len(catalog)))
        device = rng.choice(devices)
        count = (
            per_wave
            if wave < effective_waves - 1
            else num_requests - len(requests)
        )
        requests.extend(
            TrafficRequest(
                workload=rng.choice(working_set), device=device, wave=wave
            )
            for _ in range(count)
        )
    return requests


def _generate_duplicate_storm(rng, catalog, devices, num_requests, waves):
    """~80% of the stream is one identical request (thundering herd)."""
    hot = rng.choice(catalog)
    device = rng.choice(devices)
    return [
        TrafficRequest(
            workload=(
                hot if rng.random() < 0.8 else rng.choice(catalog)
            ),
            device=device,
            wave=index * waves // num_requests,
        )
        for index in range(num_requests)
    ]


def _generate_adversarial(rng, catalog, devices, num_requests, waves):
    """The shard-killing mix: cache-busting keys + invalid requests.

    One third cycles through *never-repeating* batch sizes (every request
    a cold miss — defeats any cache), one third is a hot-key storm on a
    single shard's key space, and one third is malformed traffic
    (unknown models, budget-less devices) that must be rejected by
    validation without occupying workers.
    """
    hot = rng.choice(catalog)
    hot_device = rng.choice(devices)
    dead_device = DeviceSpec(
        name="dead-gpu", capacity_bytes=256 * MiB, init_bytes=0
    )  # framework_bytes default exceeds capacity: no job budget
    requests = []
    for index in range(num_requests):
        wave = index * waves // num_requests
        kind = index % 3
        if kind == 0:  # cache buster: unique batch size every time
            base = rng.choice(catalog)
            requests.append(
                TrafficRequest(
                    workload=base.with_batch_size(64 + index),
                    device=rng.choice(devices),
                    wave=wave,
                )
            )
        elif kind == 1:  # hot-key storm
            requests.append(
                TrafficRequest(workload=hot, device=hot_device, wave=wave)
            )
        else:  # invalid: unknown model or budget-less device
            if rng.random() < 0.5:
                workload = WorkloadConfig(
                    model=f"no-such-model-{index}",
                    optimizer="sgd",
                    batch_size=8,
                )
                requests.append(
                    TrafficRequest(
                        workload=workload,
                        device=rng.choice(devices),
                        wave=wave,
                    )
                )
            else:
                requests.append(
                    TrafficRequest(
                        workload=rng.choice(catalog),
                        device=dead_device,
                        wave=wave,
                    )
                )
    return requests


def _generate_noisy_neighbor(rng, catalog, devices, num_requests, waves):
    """One hostile tenant floods at ~10x its quota; one stays polite.

    Three of every four requests belong to ``hostile`` and cache-bust
    (unique batch size per request, so every admitted one costs a real
    estimation); every fourth belongs to ``well-behaved`` and draws from
    a two-workload hot set.  Against :func:`make_control` knobs the
    hostile demand is ~10x its quota refill, so the quota bucket — not
    the queue — absorbs the flood and the well-behaved tenant's latency
    stays near its solo baseline (the bench_control_plane assertion).
    """
    hot = rng.sample(catalog, k=min(2, len(catalog)))
    hot_device = rng.choice(devices)
    requests = []
    for index in range(num_requests):
        wave = index * waves // num_requests
        if index % 4 == 0:  # polite minority traffic on a hot set
            requests.append(
                TrafficRequest(
                    workload=rng.choice(hot),
                    device=hot_device,
                    wave=wave,
                    tenant="well-behaved",
                )
            )
        else:  # hostile cache-busting flood
            base = rng.choice(catalog)
            requests.append(
                TrafficRequest(
                    workload=base.with_batch_size(96 + index),
                    device=rng.choice(devices),
                    wave=wave,
                    tenant="hostile",
                )
            )
    return requests


def _generate_quota_storm(rng, catalog, devices, num_requests, waves):
    """Three equal tenants all burst past their quota at once.

    Round-robin interleave so every wave sees all three tenants over
    their refill rate simultaneously — the drill for per-tenant quota
    isolation (each tenant's sheds come out of its *own* bucket) rather
    than one loud tenant draining a shared limiter.
    """
    tenants = ("alpha", "beta", "gamma")
    device = rng.choice(devices)
    return [
        TrafficRequest(
            workload=rng.choice(catalog),
            device=device,
            wave=index * waves // num_requests,
            tenant=tenants[index % len(tenants)],
        )
        for index in range(num_requests)
    ]


def _generate_priority_inversion(rng, catalog, devices, num_requests, waves):
    """One tenant's batch flood races its own interactive trickle.

    Four of every five requests are priority-2 (batch) cache busters;
    every fifth is a priority-0 (interactive) hot-key request.  Without
    the QoS reserve the batch flood drains the tenant's fair share and
    starves its interactive traffic — with it, batch admission stops at
    the reserve floor and interactive requests keep landing.
    """
    hot = rng.choice(catalog)
    hot_device = rng.choice(devices)
    requests = []
    for index in range(num_requests):
        wave = index * waves // num_requests
        if index % 5 == 0:  # interactive trickle
            requests.append(
                TrafficRequest(
                    workload=hot,
                    device=hot_device,
                    wave=wave,
                    tenant="mixed",
                    priority=0,
                )
            )
        else:  # batch flood, cache-busting
            base = rng.choice(catalog)
            requests.append(
                TrafficRequest(
                    workload=base.with_batch_size(96 + index),
                    device=rng.choice(devices),
                    wave=wave,
                    tenant="mixed",
                    priority=2,
                )
            )
    return requests


_GENERATORS: dict[str, Callable] = {
    "uniform": _generate_uniform,
    "zipf": _generate_zipf,
    "bursty": _generate_bursty,
    "duplicate-storm": _generate_duplicate_storm,
    "adversarial": _generate_adversarial,
    "noisy-neighbor": _generate_noisy_neighbor,
    "quota-storm": _generate_quota_storm,
    "priority-inversion": _generate_priority_inversion,
}

#: Control-plane knobs matched to each tenant scenario's traffic shape:
#: (tenant configs, admit_rate, admit_burst).  Rates are per admission
#: *tick* (one tick per gateway admit call), so the ratios below are
#: what matters: in ``noisy-neighbor`` the hostile tenant is 0.75 of
#: the stream against a 0.075/tick quota — a 10x overdrive — while the
#: well-behaved quarter of the stream fits inside both its quota (0.5)
#: and its weighted fair share (3/4 of admit_rate 0.8).
_TENANT_CONTROLS: dict[str, tuple[tuple[TenantConfig, ...], float, float]] = {
    "noisy-neighbor": (
        (
            TenantConfig(
                "well-behaved", quota_rate=0.5, quota_burst=64.0, weight=3.0
            ),
            TenantConfig(
                "hostile", quota_rate=0.075, quota_burst=4.0, weight=1.0
            ),
        ),
        0.8,
        64.0,
    ),
    "quota-storm": (
        tuple(
            TenantConfig(name, quota_rate=0.15, quota_burst=6.0, weight=1.0)
            for name in ("alpha", "beta", "gamma")
        ),
        1.0,
        32.0,
    ),
    "priority-inversion": (
        (
            TenantConfig(
                "mixed", quota_rate=1.0, quota_burst=64.0, weight=1.0
            ),
        ),
        0.6,
        16.0,
    ),
}


def tenant_configs(scenario: str) -> tuple[TenantConfig, ...]:
    """The tenant roster a multi-tenant scenario is calibrated against."""
    if scenario not in _TENANT_CONTROLS:
        raise ValueError(
            f"unknown tenant scenario {scenario!r}; "
            f"choose from {TENANT_SCENARIOS}"
        )
    return _TENANT_CONTROLS[scenario][0]


def make_control(scenario: str) -> ControlPlane:
    """A fresh, calibrated control plane for one multi-tenant scenario.

    Token buckets are stateful, so every gateway (and every run) needs
    its own instance — sharing one across drivers would make the second
    replay start from drained buckets and break decision-sequence
    comparisons.
    """
    tenant_configs(scenario)  # validates the name
    configs, admit_rate, admit_burst = _TENANT_CONTROLS[scenario]
    return ControlPlane(
        configs, admit_rate=admit_rate, admit_burst=admit_burst
    )


def generate_traffic(
    scenario: str,
    num_requests: int,
    seed: int = 0,
    unique_workloads: int = 8,
    waves: int = 4,
    devices: Optional[Sequence[DeviceSpec]] = None,
    models: Optional[Sequence[str]] = None,
) -> TrafficTrace:
    """Materialize one named scenario into a replayable trace.

    Deterministic: the same arguments always produce the same trace.
    ``unique_workloads`` bounds the catalog the scenario draws from
    (scenarios may still synthesize extra keys — ``adversarial`` does).
    """
    if scenario not in _GENERATORS:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {SCENARIO_NAMES}"
        )
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if waves < 1:
        raise ValueError("waves must be >= 1")
    rng = random.Random(seed)
    catalog = workload_catalog(unique_workloads, seed=seed, models=models)
    devices = tuple(devices) if devices else EVAL_DEVICES
    requests = _GENERATORS[scenario](
        rng, catalog, devices, num_requests, waves
    )
    return TrafficTrace(
        scenario=scenario, seed=seed, requests=tuple(requests)
    )


# ----------------------------------------------------------------------
# load-test estimator
# ----------------------------------------------------------------------


class SyntheticEstimator(Estimator):
    """Instant, deterministic estimator for serving-layer load tests.

    The estimate is a pure function of (workload, device): peak bytes are
    derived from a stable hash of the identity tuples, so two replicas —
    or a gateway and a direct call — always agree byte-for-byte.
    ``work_seconds`` simulates estimation cost (sleep — releases the GIL,
    so thread pools overlap it), which is what makes cache hits and dedup
    visible in throughput numbers.  ``spin_seconds`` simulates *CPU-bound*
    estimation cost (a pure-Python arithmetic loop that holds the GIL):
    thread drivers serialize it no matter how many workers they have,
    which is exactly the contention the process-pool driver exists to
    break — `benchmarks/bench_proc_gateway.py` races the two on it.
    """

    name = "synthetic"
    version = "1"

    def __init__(self, work_seconds: float = 0.0, spin_seconds: float = 0.0):
        self.work_seconds = work_seconds
        self.spin_seconds = spin_seconds
        self.calls = 0
        self._lock = threading.Lock()

    def supports(self, workload: WorkloadConfig) -> bool:
        return True

    @staticmethod
    def _spin(seconds: float) -> int:
        """Burn CPU under the GIL for ~``seconds`` (deterministic result)."""
        deadline = time.perf_counter() + seconds
        acc = 0
        while time.perf_counter() < deadline:
            for value in range(256):
                acc = (acc * 31 + value) & 0xFFFFFFFF
        return acc

    def estimate(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> EstimationResult:
        with self._lock:
            self.calls += 1
        if self.work_seconds > 0:
            time.sleep(self.work_seconds)
        if self.spin_seconds > 0:
            self._spin(self.spin_seconds)
        token = repr((workload.to_key(), device.to_key())).encode("utf-8")
        digest = hashlib.sha256(token).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2**32
        peak = int(fraction * 8 * GiB) + 64 * MiB
        return EstimationResult(
            estimator=self.name,
            workload=workload,
            device=device,
            peak_bytes=peak,
            runtime_seconds=self.work_seconds,
            detail={"synthetic": True},
        )
