"""Per-layer measurement from outside the program: spans and replays.

Two kinds of probe, both owned by the benchmark:

* **injected** — delegates handed in through public constructor
  parameters (:class:`Probes`): a ``RoutingPolicy`` wrapper, a
  ``ControlPlane`` wrapper, an ``EstimateCache`` subclass, two
  ``ServiceMiddleware`` probes placed first and last in the chain, an
  estimator wrapper.  Each times one call, records a span, delegates.
* **replayed** — the benchmark calls a layer's public function directly
  on generated inputs (the ``replay_*`` functions).

The traced run is serial (one outstanding request), which is what makes
"the current request" a benchmark-side global: :class:`SpanLog.request`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pickle
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import (
    EstimationPipeline,
    PipelineCache,
    trace_fingerprint,
)
from repro.service import (
    AsyncServiceGateway,
    ConsistentHashRouting,
    EstimateCache,
    EstimationService,
    FrameDecoder,
    GatewayCore,
    ServiceGateway,
    ServiceMetrics,
    ServiceMiddleware,
    SyntheticEstimator,
    TcpServerThread,
    TcpServiceClient,
    Telemetry,
    TrafficRequest,
    default_middlewares,
    encode_frame,
    fingerprint_request,
)
from repro.service.wire import (
    ok_response,
    result_from_wire,
    result_to_wire,
    validate_request_message,
)
from repro.units import GiB, MiB
from repro.workload import RTX_3060, DeviceSpec

from workloads import ITERATIONS, xmem_estimator
from loadgen import (
    classify,
    percentile,
    run_serial,
    run_serial_async,
    run_windowed,
    spin,
    steady,
    summarize,
    tail_percentile,
)

_now = time.perf_counter_ns

ROOT = "request"


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class SpanLog:
    """Spans kept in memory until the benchmark ends.

    A span is ``(name, start_ns, end_ns, parent, request)``; ``parent`` is
    the *name* of the enclosing span within the same request (``None``
    for the root), ``request`` the sequence number all spans of one
    request share.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1

    def add(self, name: str, start_ns: int, end_ns: int, parent) -> None:
        self.spans.append((name, start_ns, end_ns, parent, self.request))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[tuple]) -> dict[str, list[int]]:
    """Per span name, one self time (ns) per request it appears in.

    Self time = a span's duration minus the durations of the spans of the
    same request that name it as parent.  A name that occurs more than
    once in a request (the middleware chain's request and result legs)
    is summed first.
    """
    duration: dict[tuple, int] = {}
    children: dict[tuple, int] = {}
    for name, start, end, parent, request in spans:
        key = (request, name)
        duration[key] = duration.get(key, 0) + (end - start)
        if parent is not None:
            parent_key = (request, parent)
            children[parent_key] = children.get(parent_key, 0) + (end - start)
    result: dict[str, list[int]] = {}
    for (request, name), total in duration.items():
        result.setdefault(name, []).append(total - children.get((request, name), 0))
    return result


def _p50_us(values_ns: Sequence[int]) -> Optional[float]:
    return statistics.median(values_ns) / 1e3 if values_ns else None


# ----------------------------------------------------------------------
# injected probes
# ----------------------------------------------------------------------


class _TimedRouting:
    """``RoutingPolicy`` delegate: one ``routing.select`` span per call."""

    def __init__(self, inner, log: SpanLog):
        self.inner = inner
        self.name = inner.name
        self.log = log

    def select(self, fingerprint, loads):
        started = _now()
        selected = self.inner.select(fingerprint, loads)
        self.log.add("routing.select", started, _now(), ROOT)
        return selected


class _TimedControl:
    """``ControlPlane`` delegate: ``control.admit`` / ``control.refuse``."""

    def __init__(self, inner, log: SpanLog):
        self.inner = inner
        self.log = log

    def admit(self, **kwargs):
        started = _now()
        try:
            cause = self.inner.admit(**kwargs)
        except Exception:
            self.log.add("control.refuse", started, _now(), ROOT)
            raise
        self.log.add("control.admit", started, _now(), ROOT)
        return cause

    def snapshot(self) -> dict:
        return self.inner.snapshot()


class _TimedCache(EstimateCache):
    """``EstimateCache`` with a span around ``get`` and ``put``."""

    def __init__(self, log: SpanLog):
        super().__init__()
        self.log = log

    def get(self, key):
        started = _now()
        value = super().get(key)
        self.log.add(
            "cache.get_hit" if value is not None else "cache.get_miss",
            started,
            _now(),
            "middleware.chain",
        )
        return value

    def put(self, key, value) -> None:
        started = _now()
        super().put(key, value)
        self.log.add("cache.put", started, _now(), "middleware.chain")


class _TimedEstimator:
    """Estimator delegate: one ``estimator.estimate`` span per call."""

    def __init__(self, inner, log: SpanLog):
        self.inner = inner
        self.log = log

    def __getattr__(self, name):  # name / version / allocator_config
        return getattr(self.inner, name)

    def estimate(self, workload, device):
        started = _now()
        try:
            return self.inner.estimate(workload, device)
        finally:
            self.log.add("estimator.estimate", started, _now(), ROOT)


class _ChainEntry(ServiceMiddleware):
    """First in the chain: opens the request leg, closes the result leg.

    On a cache hit the chain short-circuits before :class:`_ChainExit`,
    so the whole transit is one leg, closed here in ``on_result``.
    """

    name = "probe_entry"

    def __init__(self, log: SpanLog, chain_names: Callable[[], tuple]):
        self.log = log
        self.chain_names = chain_names
        self.hooks = 0
        self.requests = 0

    def on_request(self, request, ctx):
        ctx.tags["probe_leg"] = _now()
        return None

    def on_result(self, request, result, ctx):
        self.log.add(
            "middleware.chain", ctx.tags["probe_leg"], _now(), ROOT
        )
        # the program's hooks that ran for this request, from public
        # facts: the chain order and which middleware short-circuited.
        # The probes' own hooks are left out of the count.
        names = self.chain_names()
        inner = len(names) - 2
        if ctx.short_circuited_by in names:
            producer = names.index(ctx.short_circuited_by)  # 1-based inner
            self.hooks += producer + (producer - 1)
        else:
            self.hooks += 2 * inner
        self.requests += 1
        return None


class _ChainExit(ServiceMiddleware):
    """Last in the chain: closes the request leg, opens the result leg."""

    name = "probe_exit"

    def __init__(self, log: SpanLog):
        self.log = log

    def on_request(self, request, ctx):
        self.log.add(
            "middleware.chain", ctx.tags["probe_leg"], _now(), ROOT
        )
        return None

    def on_result(self, request, result, ctx):
        ctx.tags["probe_leg"] = _now()
        return None


class Probes:
    """The injected delegates of one traced target."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.entries: list[_ChainEntry] = []
        self.planes: list = []

    def policy(self, num_shards: int):
        return _TimedRouting(ConsistentHashRouting(num_shards), self.log)

    def control(self, plane):
        self.planes.append(plane)
        return _TimedControl(plane, self.log)

    def shard(self, service_cls, estimator):
        cache = _TimedCache(self.log)
        chain: list = []
        entry = _ChainEntry(self.log, lambda: tuple(m.name for m in chain))
        chain.extend(
            [entry, *default_middlewares(cache), _ChainExit(self.log)]
        )
        self.entries.append(entry)
        return service_cls(
            estimator=_TimedEstimator(estimator, self.log),
            middlewares=chain,
            cache=cache,
            max_workers=2,  # the gateway's max_workers_per_shard default
        )

    def reset(self) -> None:
        """Forget everything recorded so far (warm-up traffic)."""
        self.log.spans.clear()
        self.log.request = -1
        for entry in self.entries:
            entry.hooks = entry.requests = 0

    def traced(self, submit):
        """Wrap a sync ``submit``: numbers the request, records the root."""
        log = self.log

        def call(request):
            log.request += 1
            started = _now()
            try:
                future = submit(request)
            except Exception:
                log.add(ROOT, started, _now(), None)
                raise
            return _TracedFuture(log, future, started)

        return call

    def traced_async(self, submit):
        log = self.log

        async def call(request):
            log.request += 1
            started = _now()
            try:
                return await submit(request)
            finally:
                log.add(ROOT, started, _now(), None)

        return call

    def hooks_per_request(self) -> Optional[float]:
        requests = sum(entry.requests for entry in self.entries)
        if not requests:
            return None
        return sum(entry.hooks for entry in self.entries) / requests


class _TracedFuture:
    __slots__ = ("log", "future", "started")

    def __init__(self, log, future, started):
        self.log = log
        self.future = future
        self.started = started

    def result(self, timeout=None):
        try:
            return self.future.result(timeout)
        finally:
            self.log.add(ROOT, self.started, _now(), None)


def span_metrics(log: SpanLog, probes: Probes) -> dict:
    """Layer metrics read off one traced phase's spans."""
    selfs = self_times(log.spans)
    metrics = {
        "routing.select_us": _p50_us(selfs.get("routing.select", ())),
        "cache.get_hit_us": _p50_us(selfs.get("cache.get_hit", ())),
        "cache.put_us": _p50_us(selfs.get("cache.put", ())),
        "middleware.chain_us": _p50_us(selfs.get("middleware.chain", ())),
        "middleware.hooks": probes.hooks_per_request(),
        "control.admit_us": _p50_us(selfs.get("control.admit", ())),
        "control.refuse_us": _p50_us(selfs.get("control.refuse", ())),
    }
    for plane in probes.planes:
        tenants = plane.snapshot()["tenants"].values()
        metrics["control.admitted"] = sum(t["admitted"] for t in tenants)
        metrics["control.refused"] = sum(
            t["quota_shed"] + t["share_shed"] + t["hopeless_shed"]
            for t in tenants
        )
    return {key: value for key, value in metrics.items() if value is not None}


def counter_metrics(stats: dict) -> dict:
    """Layer ratios read off a gateway's public ``stats()`` snapshot."""
    if not stats:
        return {}
    aggregate = stats["aggregate"]
    routed = stats["gateway"]["routed_per_shard"]
    metrics = {
        "cache.hit_rate": aggregate["cache"]["hit_rate"],
        "cache.evictions": aggregate["cache"]["evictions"],
    }
    if aggregate["requests"]:
        metrics["core.dedup_share"] = (
            aggregate["deduplicated"] / aggregate["requests"]
        )
    if sum(routed):
        metrics["routing.shard_imbalance"] = max(routed) / (
            sum(routed) / len(routed)
        )
    return metrics


# ----------------------------------------------------------------------
# replayed probes
# ----------------------------------------------------------------------


def per_call_us(function: Callable, arguments: Sequence, batches: int = 7) -> float:
    """Microseconds per ``function(*args)``, timed in whole batches.

    One clock pair per pass over ``arguments`` (not per call) keeps the
    timer out of sub-microsecond calls; the steady value over ``batches``
    passes is returned.
    """
    samples = []
    for _ in range(batches):
        started = _now()
        for args in arguments:
            function(*args)
        samples.append((_now() - started) / len(arguments) / 1e3)
    return steady(samples, "lower")["value"]


def replay_pipeline(cells) -> dict:
    """The four stages, called directly, cold, once per cell."""
    profile = analyze = orchestrate = simulate = 0.0
    events = blocks = replayed = 0
    analyze_rates = []
    for cell in cells:
        pipeline = EstimationPipeline(
            iterations=ITERATIONS, cache=PipelineCache()
        )  # the cache only selects the service's peak-profile path
        t0 = _now()
        trace = pipeline.profile(cell)
        t1 = _now()
        analyzed = pipeline.analyze(trace)
        t2 = _now()
        sequence = pipeline.orchestrate(analyzed)
        t3 = _now()
        simulation = pipeline.simulate(sequence, curve=False)
        t4 = _now()
        cell_events = len(trace.spans) + len(trace.memory_events)
        profile += t1 - t0
        analyze += t2 - t1
        orchestrate += t3 - t2
        simulate += t4 - t3
        events += cell_events
        blocks += sequence.num_blocks
        replayed += simulation.num_events
        analyze_rates.append((t2 - t1) / 1e3 / cell_events)
    return {
        "profiler.profile_ms": profile / 1e6,
        "profiler.events": events,
        "analyzer.analyze_ms": analyze / 1e6,
        "analyzer.us_per_event_p50": statistics.median(analyze_rates),
        "analyzer.us_per_event_max": max(analyze_rates),
        "orchestrator.orchestrate_ms": orchestrate / 1e6,
        "orchestrator.blocks": blocks,
        "simulator.simulate_ms": simulate / 1e6,
        "simulator.us_per_event": simulate / 1e3 / replayed,
    }


def replay_pipeline_hits(cells) -> dict:
    """Warm path of the estimator, and the content hash of a fresh trace."""
    estimator = xmem_estimator()
    for cell in cells:
        estimator.estimate(cell, RTX_3060)
    hit_us = per_call_us(
        estimator.estimate, [(cell, RTX_3060) for cell in cells], batches=15
    )
    trace = estimator.pipeline.profile(cells[0])
    # a copy carries no memoized key, so every call hashes the content
    copies = [(dataclasses.replace(trace),) for _ in range(5)]
    started = _now()
    for (copy,) in copies:
        trace_fingerprint(copy)
    fingerprint_us = (_now() - started) / len(copies) / 1e3
    return {
        "pipeline.hit_us": hit_us,
        "pipeline.trace_fingerprint_us": fingerprint_us,
    }


def replay_artifacts(cells, scratch: Path) -> dict:
    """``ArtifactStore.put`` then ``get`` of each stage's real artifact."""
    pipeline = EstimationPipeline(iterations=ITERATIONS, cache=None)
    artifacts = {"profile": [], "analyze": [], "orchestrate": []}
    for cell in cells:
        trace = pipeline.profile(cell)
        analyzed = pipeline.analyze(trace)
        artifacts["profile"].append(trace)
        artifacts["analyze"].append(analyzed)
        artifacts["orchestrate"].append(pipeline.orchestrate(analyzed))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    metrics: dict = {}
    puts = []
    with ArtifactStore(str(scratch / "replay.sqlite")) as store:
        for stage, values in artifacts.items():
            gets = []
            for index, value in enumerate(values):
                started = _now()
                store.put(stage, ("replay", index), value)
                puts.append(_now() - started)
            for index in range(len(values)):
                started = _now()
                store.get(stage, ("replay", index))
                gets.append(_now() - started)
            metrics[f"artifacts.get_ms.{stage}"] = (
                statistics.median(gets) / 1e6
            )
            metrics[f"artifacts.blob_kb.{stage}"] = statistics.median(
                len(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL))
                for v in values
            ) / 1024
    metrics["artifacts.put_ms"] = statistics.median(puts) / 1e6
    shutil.rmtree(scratch, ignore_errors=True)
    return metrics


def _tile(requests, count: int) -> list:
    """``count`` requests, cycling when the workload has fewer."""
    return [requests[i % len(requests)] for i in range(count)]


def replay_service_layers(requests) -> dict:
    """fingerprint, admit/settle, metrics recording — direct calls."""
    pairs = [(r.workload, r.device) for r in _tile(requests, 500)]
    reference = SyntheticEstimator()

    def fingerprint(workload, device):
        return fingerprint_request(
            workload,
            device,
            estimator_name=reference.name,
            estimator_version=reference.version,
        )

    core = GatewayCore(4, ConsistentHashRouting(4), max_queue_depth=64)

    def admit_settle(shard):
        core.admit(shard)
        core.settle(shard)

    recorder = ServiceMetrics()

    def record(latency):
        recorder.record_request()
        recorder.record_cache_hit(latency)

    return {
        "fingerprint.us": per_call_us(fingerprint, pairs),
        "core.admit_settle_us": per_call_us(
            admit_settle, [(i % 4,) for i in range(2000)]
        ),
        "metrics.record_us": per_call_us(record, [(1e-5,)] * 2000),
    }


def replay_wire(requests) -> dict:
    """Encode and strict-decode of the frames one estimate exchanges."""
    sample = _tile(requests, 200)
    reference = SyntheticEstimator()
    request_messages = [
        {
            "op": "estimate",
            "id": index,
            "request": {
                "workload": r.workload.as_dict(),
                "device": r.device.as_dict(),
            },
            "deadline_remaining": None,
        }
        for index, r in enumerate(sample)
    ]
    results = [reference.estimate(r.workload, r.device) for r in sample]
    request_frames = [encode_frame(m) for m in request_messages]
    response_frames = [
        encode_frame(ok_response(i, result=result_to_wire(result)))
        for i, result in enumerate(results)
    ]
    decoder = FrameDecoder()

    def decode_request(frame):
        (message,) = decoder.feed(frame)
        validate_request_message(message)

    def encode_response(index, result):
        encode_frame(ok_response(index, result=result_to_wire(result)))

    def decode_response(frame):
        (message,) = decoder.feed(frame)
        result_from_wire(message["result"])

    return {
        "wire.encode_request_us": per_call_us(
            encode_frame, [(m,) for m in request_messages]
        ),
        "wire.decode_request_us": per_call_us(
            decode_request, [(f,) for f in request_frames]
        ),
        "wire.encode_response_us": per_call_us(
            encode_response, list(enumerate(results))
        ),
        "wire.decode_response_us": per_call_us(
            decode_response, [(f,) for f in response_frames]
        ),
        "wire.request_bytes": statistics.median(map(len, request_frames)),
        "wire.response_bytes": statistics.median(map(len, response_frames)),
    }


def _ping_codec_us() -> float:
    """Codec time of one ping exchange: two encodes, two decodes."""
    decoder = FrameDecoder()

    def exchange(index):
        request = encode_frame({"op": "ping", "id": index})
        (message,) = decoder.feed(request)
        validate_request_message(message)
        decoder.feed(encode_frame(ok_response(index)))

    return per_call_us(exchange, [(i,) for i in range(500)])


def replay_tcp() -> dict:
    """``TcpServiceClient.ping`` round trips over loopback."""
    server = TcpServerThread(
        lambda: AsyncServiceGateway(
            num_shards=4, estimator_factory=SyntheticEstimator
        )
    )
    host, port = server.start()
    try:
        with TcpServiceClient(host, port) as client:
            for _ in range(50):
                client.ping()
            pings = sorted(client.ping() for _ in range(1000))
    finally:
        server.stop()
    ping_us = percentile(pings, 50.0) * 1e6
    return {
        "tcp.ping_us": ping_us,
        "tcp.transport_self_us": ping_us - _ping_codec_us(),
    }


def _cold_devices(count: int, offset: int):
    return [
        DeviceSpec("miss-gpu", capacity_bytes=8 * GiB + (offset + i) * MiB)
        for i in range(count)
    ]


def replay_driver_paths(requests) -> dict:
    """Hit and zero-work miss latency of each in-process driver."""
    hot = _tile(requests, 1000)
    workload = requests[0].workload
    misses = [
        TrafficRequest(workload, device) for device in _cold_devices(600, 0)
    ]
    metrics: dict = {}

    def p50_us(phase):
        return summarize([x for x in phase.latencies if x is not None])[
            "p50"
        ] * 1e6

    with EstimationService(estimator=SyntheticEstimator()) as service:
        submit = lambda r: service.submit(r.workload, r.device)  # noqa: E731
        run_serial(submit, hot)
        metrics["engine.hit_us"] = p50_us(run_serial(submit, hot))
    with ServiceGateway(
        num_shards=4, estimator_factory=SyntheticEstimator
    ) as gateway:
        submit = lambda r: gateway.submit(r.workload, r.device)  # noqa: E731
        metrics["gateway.miss_us"] = p50_us(run_serial(submit, misses))

    async def aio_misses():
        gateway = AsyncServiceGateway(
            num_shards=4, estimator_factory=SyntheticEstimator
        )
        try:
            return await run_serial_async(
                lambda r: gateway.submit(r.workload, r.device), misses
            )
        finally:
            await gateway.aclose()

    metrics["aio.miss_us"] = p50_us(asyncio.run(aio_misses()))
    return metrics


def replay_telemetry(requests) -> dict:
    """Windowed zipf throughput with full telemetry on, over off."""
    sample = _tile(requests, 2000)

    def throughput(telemetry) -> float:
        with ServiceGateway(
            num_shards=4,
            estimator_factory=SyntheticEstimator,
            telemetry=telemetry,
        ) as gateway:
            submit = lambda r: gateway.submit(r.workload, r.device)  # noqa: E731
            run_windowed(submit, sample[:200])
            best = 0.0
            for _ in range(3):
                phase = run_windowed(submit, sample)
                best = max(best, len(sample) / phase.wall_seconds)
            return best

    off = throughput(None)
    on = throughput(Telemetry(detail="full"))
    return {"telemetry.capture_ratio": on / off}


def replay_stats(gateway_stats: Callable[[], dict]) -> dict:
    """``gateway.stats()`` after traffic: the reservoir merge."""
    samples = []
    for _ in range(5):
        started = _now()
        gateway_stats()
        samples.append((_now() - started) / 1e6)
    return {"metrics.stats_ms": statistics.median(samples)}


def machine_metrics(count: int = 9) -> dict:
    values = [spin() for _ in range(count)]
    return {"machine.spin_ms": statistics.median(values)}


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

#: serial requests of one traced (or twin untraced) phase; >= 1 000 where
#: a p99 is reported.  Workloads not listed run one pass of their cells.
TRACE_SERIAL = {
    "zipf-threads": 2000,
    "zipf-asyncio": 2000,
    "zipf-tcp": 1000,
    "tenant-flood": 2000,
    "device-sweep": 300,
}
#: the order in which the other workloads fill in what the target's own
#: path does not exercise: each layer's home workload before the rest
#: (stage caches: device-sweep; the store: store-warm; the control plane:
#: tenant-flood), so a zipf target reads ``pipeline.stage_hit_rate`` where
#: the stage caches are in use, not from cold-zoo where they are bypassed
FILL_ORDER = (
    "device-sweep",
    "store-warm",
    "tenant-flood",
    "zipf-threads",
    "zipf-asyncio",
    "zipf-tcp",
    "cold-zoo",
)
#: an untraced serial phase of these workloads is that driver's hit path
DRIVER_OF = {
    "zipf-threads": "gateway",
    "zipf-asyncio": "aio",
    "zipf-tcp": "tcp",
}


@dataclasses.dataclass
class SerialRun:
    """One serial phase of one workload, traced or not."""

    workload: object
    phase: object
    counts: object
    stats: dict
    log: Optional[SpanLog]
    probes: Optional[Probes]
    #: layer metrics measured while the target was still up
    extra: dict

    @property
    def throughput(self) -> float:
        return len(self.phase.requests) / self.phase.wall_seconds

    def latencies(self) -> list[float]:
        return [x for x in self.phase.latencies if x is not None]


def serial_run(name: str, seed: int, quick: bool, traced: bool) -> SerialRun:
    """Set a workload up, run its serial phase once, tear it down."""
    from workloads import WORKLOADS, Sizes

    log = SpanLog() if traced else None
    probes = Probes(log) if traced else None
    workload = WORKLOADS[name](seed, quick, inject=probes)
    serial = TRACE_SERIAL.get(name, workload.sizes.serial)
    if quick and name in TRACE_SERIAL:
        serial //= 10
    workload.sizes = Sizes(serial, 0, 1)
    workload.setup()
    try:
        if traced:  # warm-up traffic is not part of the traced phase
            probes.reset()
        phase = workload.phases()[0]
        counts = classify(phase, workload.oracle())
        stats = workload.stats()
        # timed while the gateway is still up, and only where stats() is
        # a live in-process merge over reservoirs that traffic has filled
        extra = (
            replay_stats(workload.stats) if name == "zipf-threads" else {}
        )
    finally:
        workload.close()
    return SerialRun(workload, phase, counts, stats, log, probes, extra)


def result_metrics(outcomes, has_store: bool) -> dict:
    """Stage provenance counted off ``EstimationResult.stage_sources``.

    The ``artifacts.*`` pair is only reported by a workload that has a
    store attached; elsewhere "nothing came from the store" says nothing.
    """
    memory = store = built = profile_builds = stages = storable = 0
    for outcome in outcomes:
        sources = getattr(outcome, "stage_sources", None)
        if not sources:
            continue
        for stage, source in sources.items():
            stages += 1
            memory += source == "memory"
            if stage != "simulate":
                storable += 1
                store += source == "store"
                built += source == "compute"
        profile_builds += sources.get("profile") == "compute"
    if not stages:
        return {}
    metrics = {
        "pipeline.stage_hit_rate": memory / stages,
        "pipeline.profile_builds": profile_builds,
    }
    if has_store:
        metrics["artifacts.hit_rate"] = store / storable
        metrics["artifacts.builds"] = built
    return metrics


def _layer_metrics_of(run: SerialRun) -> dict:
    metrics = dict(run.extra)
    metrics.update(counter_metrics(run.stats))
    stage_cache = getattr(run.workload, "stage_cache", None)
    metrics.update(
        result_metrics(
            run.phase.outcomes,
            has_store=getattr(stage_cache, "artifacts", None) is not None,
        )
    )
    if run.log is not None:
        metrics.update(span_metrics(run.log, run.probes))
    return metrics


def _driver_metrics(name: str, run: SerialRun) -> dict:
    """Untraced serial latency, named after the driver it exercises."""
    driver = DRIVER_OF[name]
    ordered = sorted(run.latencies())
    metrics = {f"{driver}.hit_us": percentile(ordered, 50.0) * 1e6}
    if (tail_percentile(len(ordered)) or 0.0) >= 99.0:  # >= 1 000 samples
        metrics[f"{driver}.serial_p99_us"] = percentile(ordered, 99.0) * 1e6
    return metrics


def collect_layers(target: str, seed: int, quick: bool, scratch: Path):
    """Every per-layer metric, measured in the context of ``target``.

    ``target``'s own traced serial phase is measured first and wins every
    name it can supply; the other workloads then fill in the layers that
    are not on its path (there is no control plane under ``zipf-*``, no
    wire under ``cold-zoo``), so every run reports every layer.  Returns
    ``(metrics, target's span log, counts summed over every phase run)``.
    """
    from loadgen import Counts
    from workloads import xmem_cells

    metrics: dict = {}
    total = Counts()
    target_log = None
    target_requests = None
    for name in [target] + [n for n in FILL_ORDER if n != target]:
        traced = serial_run(name, seed, quick, traced=True)
        total.add(traced.counts)
        found = _layer_metrics_of(traced)
        if name == target or name in DRIVER_OF:
            plain = serial_run(name, seed, quick, traced=False)
            total.add(plain.counts)
            if name in DRIVER_OF:
                found.update(_driver_metrics(name, plain))
            if name == target:
                # traced over untraced serial throughput, best of two each
                again = serial_run(name, seed, quick, traced=True)
                plain_again = serial_run(name, seed, quick, traced=False)
                total.add(again.counts)
                total.add(plain_again.counts)
                found["trace.overhead_ratio"] = max(
                    traced.throughput, again.throughput
                ) / max(plain.throughput, plain_again.throughput)
                target_log = traced.log
                target_requests = list(traced.phase.requests)
        for key, value in found.items():
            metrics.setdefault(key, value)
    # tcp serial p50 minus aio serial p50: what the wire adds
    metrics["tcp.over_aio_us"] = metrics.pop("tcp.hit_us") - metrics["aio.hit_us"]

    cells = xmem_cells(seed, quick)
    replays = {}
    replays.update(replay_pipeline(cells))
    replays.update(replay_pipeline_hits(cells))
    replays.update(replay_artifacts(cells, scratch))
    replays.update(replay_service_layers(target_requests))
    replays.update(replay_wire(target_requests))
    replays.update(replay_tcp())
    replays.update(replay_driver_paths(target_requests))
    replays.update(replay_telemetry(target_requests))
    replays.update(machine_metrics())
    for key, value in replays.items():
        metrics.setdefault(key, value)
    return metrics, target_log, total
