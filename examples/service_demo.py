"""The estimation service as cluster middleware.

The paper positions xMem as middleware an admission controller queries
before placing jobs.  This example stands up a full service stack —
rate limiting, validation, fingerprint cache, with telemetry (audit
ledger + latency metrics) switched on — and drives it two ways:

1. a burst of raw requests (repeats are deduplicated and cached);
2. a :class:`ServiceAdmissionController` that turns a job queue into
   scheduled placements, refusing workloads that cannot fit anywhere.

Run with::

    python examples/service_demo.py
"""

from repro import RTX_3060, WorkloadConfig, XMemEstimator, format_gb
from repro.cluster import ServiceAdmissionController
from repro.runtime import run_gpu_ground_truth
from repro.service import (
    CacheMiddleware,
    EstimateCache,
    EstimationService,
    RateLimitMiddleware,
    Telemetry,
    ValidationMiddleware,
    estimate_many,
)

REQUEST_BURST = [
    ("MobileNetV3Small", "sgd", 64),
    ("MobileNetV3Large", "adam", 32),
    ("MobileNetV3Small", "sgd", 64),  # repeat: cache/single-flight
    ("distilgpt2", "adamw", 4),
    ("MobileNetV3Small", "sgd", 64),  # repeat again
    ("no-such-model", "sgd", 8),  # rejected by validation
]

JOB_QUEUE = [
    ("MobileNetV3Small", "sgd", 128),
    ("MobileNetV2", "sgd", 128),
    ("distilgpt2", "adamw", 4),
    ("MnasNet", "rmsprop", 64),
]


def main() -> None:
    cache = EstimateCache(max_entries=256)
    # the chain is policy; what happened to each request is observed by
    # the service core and lands in the telemetry bundle
    telemetry = Telemetry(max_ledger_events=1000)
    service = EstimationService(
        estimator=XMemEstimator(iterations=2),
        middlewares=(
            RateLimitMiddleware(rate_per_second=100, burst=50),
            ValidationMiddleware(),
            CacheMiddleware(cache),
        ),
        cache=cache,
        max_workers=4,
        telemetry=telemetry,
    )

    print("--- request burst through the middleware chain ---")
    requests = [
        (WorkloadConfig(m, o, b), RTX_3060) for m, o, b in REQUEST_BURST
    ]
    outcomes = estimate_many(service, requests, return_exceptions=True)
    for (workload, _), outcome in zip(requests, outcomes):
        if isinstance(outcome, Exception):
            print(f"{workload.label():<40} REJECTED ({outcome})")
        else:
            print(
                f"{workload.label():<40} "
                f"{format_gb(outcome.peak_bytes):>9}  "
                f"{'OOM' if outcome.predicts_oom() else 'fits'}"
            )
    stats = service.stats()["service"]
    print(
        f"\n{stats['requests']} requests: {stats['computed']} computed, "
        f"{stats['cache_hits']} cache hits, "
        f"{stats['deduplicated']} deduplicated, "
        f"{stats['rejected']} rejected "
        f"({len(telemetry.ledger)} ledger events: "
        f"{telemetry.ledger.summary()})"
    )
    latency = stats["latency_seconds"]
    print(
        f"answered latency p50 {latency['p50'] * 1e3:.1f} ms, "
        f"max {latency['max'] * 1e3:.1f} ms over {latency['count']} answers"
    )

    print("\n--- service-backed admission + scheduling ---")
    controller = ServiceAdmissionController(
        service, devices=[RTX_3060], safety_margin=1.15
    )
    submissions = []
    for index, (model, optimizer, batch) in enumerate(JOB_QUEUE):
        truth = run_gpu_ground_truth(
            model, batch, optimizer,
            capacity_bytes=RTX_3060.job_budget(), seed=40 + index,
        )
        submissions.append(
            (WorkloadConfig(model, optimizer, batch), truth.measured_peak)
        )
    outcome, decisions = controller.simulate(
        submissions, duration=2, gpus_per_device=2
    )
    for decision in decisions:
        print(
            f"{decision.workload.label():<40} "
            f"{'admitted' if decision.admitted else 'refused':>8}  "
            f"reserve {format_gb(decision.reserved_bytes):>9}  "
            f"({decision.reason})"
        )
    print(
        f"\nschedule: {outcome.completed} completed, "
        f"{outcome.oom_kills} OOM kills, makespan {outcome.makespan}, "
        f"wasted {format_gb(outcome.total_wasted_bytes)}"
    )
    service.close()


if __name__ == "__main__":
    main()
