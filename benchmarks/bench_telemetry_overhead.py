"""Telemetry overhead gate + cross-driver observability identity.

Two acceptance properties for ``repro.service.telemetry``:

1. **Identity** — with tracing and the audit ledger enabled
   (``detail="full"``), all three drivers (threads, asyncio, process
   pool) answer the same deterministic warm-cache trace with
   byte-identical estimator results, identical canonical span trees,
   and identical ledger decision sequences.

2. **Overhead** — enabling default telemetry (``detail="standard"``)
   costs at most 10% throughput on a warm-cache loadtest of the
   process-pool driver (median on/off ratio >= 0.90 over paired,
   interleaved runs, so a single scheduler hiccup on a 1-CPU CI runner
   cannot flip the verdict).

What the baseline includes, and why the procpool driver is the gated
configuration: a warm-cache request on the thread or asyncio driver is
a few tens of microseconds of pure-Python dispatch, while telemetry
adds a fixed ~5-10us of span/ledger bookkeeping — an honest but large
fraction of a nearly-free request, with run-to-run wall-clock swings of
+/-20% on a single core.  The process driver's per-request cost is
dominated by IPC and pickling — the realistic deployment regime for
the serving stack — so the telemetry fraction is small and the paired
ratio is stable.  The thread and asyncio ratios are reported in every
run (informational), and the thread driver additionally carries an
**absolute** bound: telemetry may add at most ``MAX_ADDED_MICROS``
microseconds per request (generous vs. the ~10us measured), so a
regression that bloats span or ledger construction fails loudly even
though the thread *ratio* is not gated.

``python bench_telemetry_overhead.py [--smoke]`` runs standalone
(``--smoke`` shrinks pair counts for CI); under pytest the smoke size
is used.
"""

from __future__ import annotations

import json
import statistics
import sys
from functools import partial

from repro.core.estimator import XMemEstimator
from repro.service import (
    SyntheticEstimator,
    Telemetry,
    canonical_trace_trees,
)
from repro.service.loadtest import run_trace
from repro.workload import RTX_3060, WorkloadConfig

from _common import emit, waves_of

NUM_SHARDS = 2
#: acceptance floor for the gated (procpool) on/off throughput ratio
MIN_RATIO = 0.90
#: absolute ceiling on telemetry's added cost per thread-driver request
MAX_ADDED_MICROS = 75.0

# module-level partials: picklable estimator factories for the procpool
fast_synthetic = partial(SyntheticEstimator, work_seconds=0.0)
real_estimator = partial(XMemEstimator, iterations=1)

#: identity-check workloads — unique fingerprints within each wave, so
#: the ledger decision sequence is a cross-driver invariant (intra-wave
#: duplicates race between dedup and cache-hit by scheduling)
IDENTITY_WORKLOADS = [
    WorkloadConfig("MobileNetV3Small", "sgd", size) for size in (1, 2, 4, 8)
]


# --------------------------------------------------------------- identity

#: the in-process drivers (``run_trace`` names); the socket's identity
#: with threads is bench_drivers.py's
DRIVERS = ("threads", "asyncio", "processes")


def _run(driver, trace, factory, telemetry, probes=()):
    return run_trace(
        driver,
        trace,
        probes=[(workload, RTX_3060) for workload in probes],
        num_shards=NUM_SHARDS,
        estimator_factory=factory,
        pool_workers=2,
        telemetry=telemetry,
    )


def check_driver_identity() -> dict:
    """Same trace, full telemetry: three drivers, one observable story."""
    trace = waves_of(IDENTITY_WORKLOADS, waves=3)
    outcomes = {}
    for name in DRIVERS:
        telemetry = Telemetry(detail="full")
        report, results = _run(
            name, trace, real_estimator, telemetry, probes=IDENTITY_WORKLOADS
        )
        assert report.answered == len(trace), (name, report.answered)
        outcomes[name] = {
            "payloads": [
                (r.peak_bytes, tuple(sorted(r.detail.items()))) for r in results
            ],
            "trees": canonical_trace_trees(telemetry.spans()),
            "decisions": telemetry.ledger.decision_sequence(),
            "summary": telemetry.ledger.summary(),
        }
    reference = outcomes["threads"]
    for name, outcome in outcomes.items():
        assert outcome["payloads"] == reference["payloads"], name
        assert outcome["trees"] == reference["trees"], name
        assert outcome["decisions"] == reference["decisions"], name
        assert outcome["summary"] == reference["summary"], name
    return {
        "num_requests": len(trace),
        "traces": len(reference["trees"]),
        "decisions": len(reference["decisions"]),
        "decision_summary": reference["summary"],
        "byte_identical": True,
        "drivers": sorted(DRIVERS),
    }


# --------------------------------------------------------------- overhead


def measure_overhead(driver: str, pairs: int, waves: int) -> dict:
    """Median paired on/off throughput ratio for one driver.

    Each pair interleaves a telemetry-off run with a telemetry-on run
    (default ``detail="standard"``) over the same warm-cache trace, so
    slow drift in machine load hits both sides of every ratio.
    """
    workloads = [
        WorkloadConfig("MobileNetV2", "sgd", size)
        for size in (1, 2, 4, 8, 16, 32, 64, 128)
    ]
    trace = waves_of(workloads, waves=waves)
    _run(driver, trace, fast_synthetic, None)  # warm-up: imports, pools
    ratios, added_micros = [], []
    for _ in range(pairs):
        off, _ = _run(driver, trace, fast_synthetic, None)
        on, _ = _run(driver, trace, fast_synthetic, Telemetry())
        ratios.append(on.throughput_rps / off.throughput_rps)
        added_micros.append(
            (1.0 / on.throughput_rps - 1.0 / off.throughput_rps) * 1e6
        )
    return {
        "driver": driver,
        "num_requests": len(trace),
        "pairs": pairs,
        "ratios": [round(r, 4) for r in ratios],
        "median_ratio": round(statistics.median(ratios), 4),
        "median_added_us_per_request": round(
            statistics.median(added_micros), 2
        ),
    }


def run_telemetry_bench(pairs: int = 3, waves: int = 6) -> dict:
    report = {
        "identity": check_driver_identity(),
        "overhead": {
            name: measure_overhead(name, pairs=pairs, waves=waves)
            for name in DRIVERS
        },
        "gate": {
            "gated_driver": "processes",
            "min_ratio": MIN_RATIO,
            "thread_max_added_us": MAX_ADDED_MICROS,
        },
    }
    _check(report)
    return report


def _check(report: dict) -> None:
    assert report["identity"]["byte_identical"]
    gated = report["overhead"]["processes"]["median_ratio"]
    assert gated >= MIN_RATIO, (
        f"procpool telemetry-on/off throughput ratio {gated:.3f} below "
        f"the {MIN_RATIO:.2f} floor (>10% overhead)"
    )
    added = report["overhead"]["threads"]["median_added_us_per_request"]
    assert added <= MAX_ADDED_MICROS, (
        f"thread-driver telemetry adds {added:.1f}us per request, above "
        f"the {MAX_ADDED_MICROS:.0f}us ceiling — span/ledger hot path "
        "has regressed"
    )


def test_telemetry_overhead(capsys):
    report = run_telemetry_bench(pairs=3, waves=6)
    emit("telemetry_overhead", json.dumps(report, indent=2), capsys)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    bench_report = run_telemetry_bench(
        pairs=3 if smoke else 7, waves=6 if smoke else 10
    )
    emit("telemetry_overhead", json.dumps(bench_report, indent=2))
