"""The seven workloads: seeded inputs, the target under test, the oracle.

Each class builds its inputs from the seed alone, constructs its target
through public constructors only, and judges every answer against a value
the target did not produce (``golden.json`` for the real estimator, a
direct ``SyntheticEstimator().estimate()`` for the synthetic one).  The
program under test sees generated requests and nothing else — never the
seed, never the workload name.

A workload object lives in one child interpreter::

    workload = WORKLOADS[name](seed, quick)
    workload.setup()              # imports are done; build target, warm
    for _ in range(repeats):
        workload.repeat()         # -> loadgen.Repeat
    workload.close()

``inject`` (a ``probes.Probes``) swaps the default shard parts for timing
delegates in the traced run; it is ``None`` for every end-to-end number.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.estimator import XMemEstimator
from repro.core.pipeline import PipelineCache
from repro.errors import (
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
)
from repro.service import (
    AsyncEstimationService,
    AsyncServiceGateway,
    EstimationService,
    ServiceGateway,
    SyntheticEstimator,
    TcpServerThread,
    TcpServiceClient,
    TrafficRequest,
    generate_traffic,
    make_control,
)
from repro.service.wire import result_from_wire, result_to_wire
from repro.units import GiB, KiB
from repro.workload import RTX_3060, DeviceSpec, WorkloadConfig

from loadgen import (
    Counts,
    Oracle,
    Phase,
    Repeat,
    classify,
    run_serial,
    run_serial_async,
    run_serial_slots,
    run_windowed,
    run_windowed_async,
)

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
RESULTS_DIR = HERE / "results"

NUM_SHARDS = 4
#: profiler iterations of every real estimator in the benchmark
ITERATIONS = 3
#: the six cheapest registry models (30-250 ms a cold cell here); one pass
#: fits a repeat of under a second.  Cost does not depend on batch size
#: (the event count is the same), so the seed may pick it freely.
XMEM_MODELS = (
    "VGG16",
    "VGG19",
    "distilgpt2",
    "Cerebras-GPT-111M",
    "ConvNeXtTiny",
    "t5-small",
)
XMEM_BATCH_SIZES = (4, 8, 16, 32)
XMEM_OPTIMIZER = "adam"
ZIPF_UNIQUE = 32
VICTIM, HOSTILE = "well-behaved", "hostile"

_REFUSALS = (RequestRejectedError,)
_SHEDS = (RateLimitExceededError,)


@dataclass(frozen=True)
class Sizes:
    """Requests per phase and repeats per child at the nominal 10 s run."""

    serial: int
    windowed: int
    repeats: int

    def quick(self) -> "Sizes":
        """Self-test size: a fifth of the requests, two repeats."""
        return Sizes(max(2, self.serial // 5), self.windowed // 5, 2)


# ----------------------------------------------------------------------
# golden values
# ----------------------------------------------------------------------


def cell_id(workload: WorkloadConfig) -> str:
    return f"{workload.model}/{workload.optimizer}/bs{workload.batch_size}"


def golden_digest(payload: dict) -> str:
    """sha256 over everything in the golden file but the digest itself."""
    body = {key: value for key, value in payload.items() if key != "sha256"}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """The golden file, refused unless its own digest matches."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("sha256") != golden_digest(payload):
        raise ValueError(f"{path.name} does not match its own sha256")
    return payload


def xmem_universe() -> list[WorkloadConfig]:
    """Every cell a seed can pick; ``golden.json`` holds a peak for each."""
    return [
        WorkloadConfig(model, XMEM_OPTIMIZER, batch_size)
        for model in XMEM_MODELS
        for batch_size in XMEM_BATCH_SIZES
    ]


def xmem_cells(seed: int, quick: bool) -> list[WorkloadConfig]:
    """One cell per model: seeded order, seeded batch size."""
    rng = random.Random(seed)
    models = list(XMEM_MODELS[:2] if quick else XMEM_MODELS)
    rng.shuffle(models)
    return [
        WorkloadConfig(model, XMEM_OPTIMIZER, rng.choice(XMEM_BATCH_SIZES))
        for model in models
    ]


def xmem_estimator(**kwargs) -> XMemEstimator:
    return XMemEstimator(iterations=ITERATIONS, curve=False, **kwargs)


# ----------------------------------------------------------------------
# base
# ----------------------------------------------------------------------


class Workload:
    """Shared scoring; subclasses supply inputs, target and phases."""

    name = ""
    why = ""
    sizes = Sizes(0, 0, 1)
    #: which phase ``throughput_rps`` reads
    throughput_phase = "windowed"

    def __init__(
        self,
        seed: int,
        quick: bool = False,
        child: int = 0,
        inject=None,
        golden: Optional[dict] = None,
    ):
        self.seed = seed
        self.quick = quick
        self.child = child
        self.inject = inject
        self.sizes = type(self).sizes.quick() if quick else type(self).sizes
        self.golden = golden if golden is not None else load_golden()
        #: reasons the outputs were judged wrong beyond per-request checks
        self.violations: list[str] = []

    # -- subclass surface ----------------------------------------------
    def make_inputs(self) -> None:
        """Generate ``self.serial`` / ``self.windowed`` from the seed only."""
        raise NotImplementedError

    def next_requests(self) -> tuple[list, list]:
        """The (serial, windowed) requests of the next repeat."""
        return self.serial, self.windowed

    def setup(self) -> None:
        """``make_inputs()``, then build the target and warm it."""
        raise NotImplementedError

    def phases(self) -> list[Phase]:
        """Run this repeat's timed phases, serial first."""
        raise NotImplementedError

    def oracle(self) -> Oracle:
        raise NotImplementedError

    def close(self) -> None:
        return None

    def stats(self) -> dict:
        """The target's public ``stats()`` snapshot (may be empty)."""
        return {}

    def latency_counts(self, request) -> bool:
        """Whether this request's latency belongs in ``latency_p50_ms``."""
        return True

    def check_repeat(self, counted: dict[str, Counts], phases) -> None:
        """Hook for whole-repeat checks (tenant-flood's outcome triple)."""
        return None

    # -- shared ----------------------------------------------------------
    def gateway_kwargs(self, service_cls, estimator_factory, control=None) -> dict:
        """Constructor arguments of the gateway, default or probed.

        Untraced, the gateway builds its own default shards exactly as a
        user's ``ServiceGateway(num_shards=4, estimator_factory=...)``
        would; traced, the same parts are handed in wrapped.
        """
        if self.inject is None:
            kwargs = {
                "num_shards": NUM_SHARDS,
                "estimator_factory": estimator_factory,
            }
        else:
            kwargs = {
                "shards": [
                    self.inject.shard(service_cls, estimator_factory())
                    for _ in range(NUM_SHARDS)
                ],
                "policy": self.inject.policy(NUM_SHARDS),
            }
            if control is not None:
                control = self.inject.control(control)
        if control is not None:
            kwargs["control"] = control
        return kwargs

    def client(self, submit):
        """The client's ``submit``; the traced run numbers requests here."""
        return submit if self.inject is None else self.inject.traced(submit)

    def client_async(self, submit):
        if self.inject is None:
            return submit
        return self.inject.traced_async(submit)

    def repeat(self) -> Repeat:
        phases = self.phases()
        oracle = self.oracle()
        counted = {phase.name: classify(phase, oracle) for phase in phases}
        self.check_repeat(counted, phases)
        total = Counts()
        for counts in counted.values():
            total.add(counts)
        serial = phases[0]
        latencies = [
            latency
            for request, latency in zip(serial.requests, serial.latencies)
            if latency is not None and self.latency_counts(request)
        ]
        timed = next(p for p in phases if p.name == self.throughput_phase)
        return Repeat(
            latency_p50_ms=(
                statistics.median(latencies) * 1e3 if latencies else 0.0
            ),
            throughput_rps=counted[timed.name].decided / timed.wall_seconds,
            cpu_ms_per_req=(
                sum(p.cpu_seconds for p in phases) * 1e3 / total.attempted
            ),
            counts=total,
            phases={name: c.as_dict() for name, c in counted.items()},
            latencies=latencies,
            slots=serial.slots,
        )


def _split(requests, sizes: Sizes):
    return (
        list(requests[: sizes.serial]),
        list(requests[sizes.serial : sizes.serial + sizes.windowed]),
    )


# ----------------------------------------------------------------------
# real estimator
# ----------------------------------------------------------------------


class _XMemWorkload(Workload):
    """Cells of the real pipeline, judged against ``golden.json``."""

    throughput_phase = "serial"

    def make_inputs(self) -> None:
        self.cells = xmem_cells(self.seed, self.quick)
        self.serial = [TrafficRequest(cell, RTX_3060) for cell in self.cells]
        self.windowed = []

    def oracle(self) -> Oracle:
        peaks = self.golden["cells"]

        def is_correct(request, result) -> bool:
            return (
                result.workload == request.workload
                and result.device == request.device
                and result.peak_bytes == peaks.get(cell_id(request.workload))
            )

        return Oracle(is_correct, refusal_types=_REFUSALS, shed_types=_SHEDS)

    def fresh_gateway_pass(self, estimator_factory) -> list[Phase]:
        """One serial pass over the cells through a gateway built for it."""
        with ServiceGateway(
            **self.gateway_kwargs(EstimationService, estimator_factory)
        ) as gateway:
            self.gateway = gateway
            submit = self.client(
                lambda r: gateway.submit(r.workload, r.device)
            )
            return [run_serial_slots(submit, self.serial)]

    def stats(self) -> dict:
        return self.gateway.stats()


class ColdZoo(_XMemWorkload):
    name = "cold-zoo"
    why = (
        "every request runs profile-analyze-orchestrate-simulate; only "
        "pipeline compute (mostly the analyzer) can move it"
    )
    sizes = Sizes(len(XMEM_MODELS), 0, 3)

    def setup(self) -> None:
        self.make_inputs()

    def phases(self) -> list[Phase]:
        # a fresh gateway (fresh estimators, empty stage caches) per
        # repeat: nothing computed in one pass can answer the next
        return self.fresh_gateway_pass(xmem_estimator)


class StoreWarm(_XMemWorkload):
    name = "store-warm"
    why = (
        "a fresh process over a warm L2: three stages are sqlite reads "
        "plus unpickle, simulate is computed; set-up carries the writes"
    )
    sizes = Sizes(len(XMEM_MODELS), 0, 9)

    def setup(self) -> None:
        # inside the benchmark's own directory: a run writes nowhere else
        self.scratch = RESULTS_DIR / f"tmp-store-{self.seed}-{self.child}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        path = str(self.scratch / "artifacts.sqlite")
        self.make_inputs()
        writer = xmem_estimator(artifact_store=path)
        for cell in self.cells:  # the store's put path: this is setup_s
            writer.estimate(cell, RTX_3060)
        # zero-capacity L1: every stage lookup goes to the store, the
        # shape of a process that has nothing but the L2
        self.stage_cache = PipelineCache(
            max_traces=0,
            max_analyses=0,
            max_sequences=0,
            max_simulations=0,
            artifact_store=path,
        )

    def phases(self) -> list[Phase]:
        # fresh gateway per repeat: the result cache starts empty, so
        # every request reaches the estimator and the store
        return self.fresh_gateway_pass(
            lambda: xmem_estimator(stage_cache=self.stage_cache)
        )

    def close(self) -> None:
        self.stage_cache.artifacts.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


class DeviceSweep(_XMemWorkload):
    name = "device-sweep"
    why = (
        "a never-repeating device per request: misses the result cache, "
        "hits all four stage caches - the service miss path"
    )
    sizes = Sizes(50, 100, 50)
    throughput_phase = "windowed"

    def make_inputs(self) -> None:
        self.cells = xmem_cells(self.seed, self.quick)
        # capacities never repeat across repeats or children of a run:
        # one counter, offset per seed and child
        self._next_device = (self.seed % 1000) * 1_000_000 + (
            self.child * 100_000
        )

    def _requests(self, count: int) -> list[TrafficRequest]:
        requests = []
        for index in range(count):
            device = DeviceSpec(
                name="sweep-gpu",
                capacity_bytes=8 * GiB + self._next_device * KiB,
            )
            self._next_device += 1
            requests.append(
                TrafficRequest(self.cells[index % len(self.cells)], device)
            )
        return requests

    def next_requests(self) -> tuple[list, list]:
        return (
            self._requests(self.sizes.serial),
            self._requests(self.sizes.windowed),
        )

    def setup(self) -> None:
        self.make_inputs()
        self.stage_cache = PipelineCache()
        warm = xmem_estimator(stage_cache=self.stage_cache)
        for cell in self.cells:
            warm.estimate(cell, RTX_3060)
        self.gateway = ServiceGateway(
            **self.gateway_kwargs(
                EstimationService,
                lambda: xmem_estimator(stage_cache=self.stage_cache),
            )
        )
        self._submit = self.client(
            lambda r: self.gateway.submit(r.workload, r.device)
        )

    def phases(self) -> list[Phase]:
        serial, windowed = self.next_requests()
        return [
            run_serial(self._submit, serial),
            run_windowed(self._submit, windowed),
        ]

    def close(self) -> None:
        self.gateway.close()


# ----------------------------------------------------------------------
# synthetic estimator
# ----------------------------------------------------------------------


class _SyntheticWorkload(Workload):
    """Zero-work estimator: whatever time is measured is the service's."""

    over_wire = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reference = SyntheticEstimator()
        self._expected: dict = {}

    def expected(self, request):
        key = (request.workload, request.device)
        result = self._expected.get(key)
        if result is None:
            result = self._reference.estimate(request.workload, request.device)
            if self.over_wire:
                result = result_from_wire(result_to_wire(result))
            self._expected[key] = result
        return result

    def oracle(self) -> Oracle:
        return Oracle(
            lambda request, result: result == self.expected(request),
            refusal_types=_REFUSALS,
            shed_types=_SHEDS,
        )


class _Zipf(_SyntheticWorkload):
    sizes = Sizes(200, 400, 100)

    def make_inputs(self) -> None:
        trace = generate_traffic(
            "zipf",
            self.sizes.serial + self.sizes.windowed,
            seed=self.seed,
            unique_workloads=ZIPF_UNIQUE,
        )
        self.serial, self.windowed = _split(trace.requests, self.sizes)
        unique = {(r.workload, r.device): r for r in trace.requests}
        self.warmup = list(unique.values())


class ZipfThreads(_Zipf):
    name = "zipf-threads"
    why = (
        "hot keys that fit the cache on the thread driver: fingerprint, "
        "middleware chain, cache get, routing, admit/settle, metrics"
    )

    def setup(self) -> None:
        self.make_inputs()
        self.gateway = ServiceGateway(
            **self.gateway_kwargs(EstimationService, SyntheticEstimator)
        )
        self._submit = self.client(
            lambda r: self.gateway.submit(r.workload, r.device)
        )
        run_serial(self._submit, self.warmup)

    def phases(self) -> list[Phase]:
        return [
            run_serial(self._submit, self.serial),
            run_windowed(self._submit, self.windowed),
        ]

    def stats(self) -> dict:
        return self.gateway.stats()

    def close(self) -> None:
        self.gateway.close()


class ZipfAsyncio(_Zipf):
    name = "zipf-asyncio"
    why = (
        "the same trace and policy core under the event-loop driver; with "
        "zipf-threads, the pair a merge of the twin gateways must hold"
    )
    sizes = Sizes(200, 400, 120)

    def setup(self) -> None:
        self.make_inputs()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        self.gateway = AsyncServiceGateway(
            **self.gateway_kwargs(AsyncEstimationService, SyntheticEstimator)
        )
        self._submit = self.client_async(
            lambda r: self.gateway.submit(r.workload, r.device)
        )
        await run_serial_async(self._submit, self.warmup)

    async def _phases(self) -> list[Phase]:
        return [
            await run_serial_async(self._submit, self.serial),
            await run_windowed_async(self._submit, self.windowed),
        ]

    def phases(self) -> list[Phase]:
        return self.loop.run_until_complete(self._phases())

    def stats(self) -> dict:
        return self.gateway.stats()

    def close(self) -> None:
        self.loop.run_until_complete(self.gateway.aclose())
        self.loop.close()


class ZipfTcp(_Zipf):
    name = "zipf-tcp"
    why = (
        "one connection to the asyncio gateway over loopback: wire "
        "encode/decode, socket, loop-to-thread hand-offs dominate"
    )
    sizes = Sizes(100, 200, 55)
    over_wire = True

    def setup(self) -> None:
        self.make_inputs()
        self.server = TcpServerThread(
            lambda: AsyncServiceGateway(
                **self.gateway_kwargs(
                    AsyncEstimationService, SyntheticEstimator
                )
            )
        )
        host, port = self.server.start()
        self.connection = TcpServiceClient(host, port)
        self._submit = self.client(
            lambda r: self.connection.submit(r.workload, r.device)
        )
        run_serial(self._submit, self.warmup)

    def phases(self) -> list[Phase]:
        return [
            run_serial(self._submit, self.serial),
            run_windowed(self._submit, self.windowed),
        ]

    def stats(self) -> dict:
        return self.connection.stats()

    def close(self) -> None:
        self.connection.close()
        self.server.stop()


class TenantFlood(_SyntheticWorkload):
    name = "tenant-flood"
    why = (
        "two thirds of the requests are refused by the hostile tenant's "
        "quota: admit path and refusal path priced side by side"
    )
    sizes = Sizes(200, 400, 100)

    def make_inputs(self) -> None:
        trace = generate_traffic(
            "noisy-neighbor",
            self.sizes.serial + self.sizes.windowed,
            seed=self.seed,
        )
        self.serial, self.windowed = _split(trace.requests, self.sizes)

    def setup(self) -> None:
        self.make_inputs()
        key = f"{self.sizes.serial}+{self.sizes.windowed}"
        self.expected_outcomes = self.golden["tenant_flood"].get(key)
        #: what the last repeat observed (``--update-golden`` reads it)
        self.observed_outcomes: dict = {}

    def phases(self) -> list[Phase]:
        # token buckets are stateful: a fresh plane (and gateway, so the
        # hostile tenant's keys are cold again) for every repeat
        with ServiceGateway(
            **self.gateway_kwargs(
                EstimationService,
                SyntheticEstimator,
                control=make_control("noisy-neighbor"),
            )
        ) as gateway:
            self.gateway = gateway

            submit = self.client(
                lambda r: gateway.submit(
                    r.workload, r.device, tenant=r.tenant
                )
            )
            phases = [
                run_serial(submit, self.serial),
                run_windowed(submit, self.windowed),
            ]
            self._stats = gateway.stats()
        return phases

    def stats(self) -> dict:
        return self._stats

    def latency_counts(self, request) -> bool:
        return request.tenant == VICTIM

    def oracle(self) -> Oracle:
        base = super().oracle()
        # the only refusal this traffic is built to provoke
        base.is_expected_refusal = lambda request, error: (
            request.tenant == HOSTILE and isinstance(error, QuotaExceededError)
        )
        return base

    def check_repeat(self, counted, phases) -> None:
        """Admission is tick-deterministic: the triple must repeat exactly."""
        observed = {}
        for phase in phases:
            answered = {VICTIM: 0, HOSTILE: 0}
            for request, outcome in zip(phase.requests, phase.outcomes):
                if not isinstance(outcome, BaseException):
                    answered[request.tenant] += 1
            observed[phase.name] = [
                answered[VICTIM],
                answered[HOSTILE],
                counted[phase.name].refused,
            ]
        self.observed_outcomes = observed
        if observed != self.expected_outcomes:
            self.violations.append(
                f"tenant-flood outcomes {observed} != golden "
                f"{self.expected_outcomes}"
            )


WORKLOADS = {
    cls.name: cls
    for cls in (
        ColdZoo,
        StoreWarm,
        DeviceSweep,
        ZipfThreads,
        ZipfAsyncio,
        ZipfTcp,
        TenantFlood,
    )
}
