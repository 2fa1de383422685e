"""The estimation service on an asyncio event loop.

The service stack is sans-IO: the middleware onion, fingerprint cache,
single-flight dedup, and gateway routing/shedding are pure policy steps
(:mod:`repro.service.dispatch`), and two thin drivers execute them — the
thread pool (:class:`~repro.service.engine.EstimationService`) and the
event loop (:class:`~repro.service.aio.AsyncEstimationService`).  This
example drives the asyncio side:

1. a burst of concurrent duplicate requests submitted without ever
   blocking the loop (dedup + cache answered inline);
2. an :class:`~repro.service.aio.AsyncServiceGateway` replaying a zipf
   traffic scenario across four shards, then draining gracefully;
3. an admission controller awaiting decisions through the same service.

Run with::

    python examples/async_service_demo.py
"""

import asyncio

from repro import RTX_3060, WorkloadConfig, XMemEstimator, format_gb
from repro.cluster import ServiceAdmissionController
from repro.service import (
    AsyncEstimationService,
    AsyncServiceGateway,
    SyntheticEstimator,
    generate_traffic,
    replay_async,
)

REQUEST_BURST = [
    ("MobileNetV3Small", "sgd", 64),
    ("MobileNetV3Large", "adam", 32),
    ("MobileNetV3Small", "sgd", 64),  # repeat: single-flight/cache
    ("MobileNetV3Small", "sgd", 64),  # repeat again
]


async def serve_burst() -> None:
    print("=== async service: concurrent burst with dedup ===")
    async with AsyncEstimationService(
        estimator=XMemEstimator(iterations=1, curve=False)
    ) as service:
        futures = [
            service.submit(WorkloadConfig(model, optimizer, batch), RTX_3060)
            for model, optimizer, batch in REQUEST_BURST
        ]
        results = await asyncio.gather(*futures)
        for (model, optimizer, batch), result in zip(REQUEST_BURST, results):
            print(
                f"  {model:<20} {optimizer:<6} bs={batch:<4}"
                f"peak {format_gb(result.peak_bytes)}"
            )
        stats = service.stats()["service"]
        print(
            f"  {stats['requests']} requests -> "
            f"{stats['computed']} computed, "
            f"{stats['cache_hits']} cache hits, "
            f"{stats['deduplicated']} deduplicated\n"
        )


async def replay_scenario() -> None:
    print("=== async gateway: zipf replay over 4 shards ===")
    trace = generate_traffic("zipf", 400, seed=1)
    gateway = AsyncServiceGateway(
        num_shards=4,
        estimator_factory=lambda: SyntheticEstimator(work_seconds=0.001),
    )
    try:
        report = await replay_async(trace, gateway)
        aggregate = report.stats["aggregate"]
        print(
            f"  answered {report.answered}/{report.num_requests} at "
            f"{report.throughput_rps:,.0f} req/s, "
            f"hit rate {aggregate['cache_hit_rate']:.1%}, "
            f"routed {report.stats['gateway']['routed_per_shard']}"
        )
        drained = await gateway.drain(timeout=5)
        print(f"  graceful drain: {'idle' if drained else 'timed out'}\n")
    finally:
        await gateway.aclose()


async def admit_jobs() -> None:
    print("=== admission control through the async driver ===")
    async with AsyncEstimationService(
        estimator=XMemEstimator(iterations=1, curve=False)
    ) as service:
        controller = ServiceAdmissionController(service, devices=[RTX_3060])
        for model, batch in (
            ("MobileNetV3Small", 32),
            ("MobileNetV3Small", 16384),  # reservation exceeds the budget
        ):
            decision = await controller.decide_async(
                WorkloadConfig(model, "sgd", batch)
            )
            verdict = "admit" if decision.admitted else "refuse"
            print(
                f"  {model} bs={batch}: {verdict} "
                f"({format_gb(decision.reserved_bytes)} reserved; "
                f"{decision.reason})"
            )


async def main() -> None:
    await serve_burst()
    await replay_scenario()
    await admit_jobs()


if __name__ == "__main__":
    asyncio.run(main())
