"""One serving core, four drivers: identity, accounting, three ratios.

Every run goes through :func:`repro.service.loadtest.run_trace`, so the
thread, asyncio, process-pool and TCP drivers are picked by name from
the one table and replay the same deterministic traces.

Acceptance (asserted):

* **accounting** — on every named scenario every driver accounts for
  every request (answered + shed + rejected + errors), all four reject
  the same requests (validation is deterministic, and over TCP a
  rejection arrives as a typed error, not a generic failure), the
  adversarial mix is rejected in part everywhere, and the well-formed
  scenarios produce no error (and no rejection);
* **byte identity** — what a request is answered with, index by index,
  is the same through every driver on every scenario (synthetic peaks),
  and real ``XMemEstimator`` results served through each driver equal a
  direct call: peak, detail, OOM verdict, and the staged-timing keys
  that must survive pickling and the JSON wire;
* **locality** — under zipf, 4-shard consistent-hash routing has a
  strictly higher aggregate cache hit rate than random routing;
* **observability identity** — with ``detail="full"`` telemetry a trace
  free of dedup races (unique fingerprints within each wave; intra-wave
  duplicates race between dedup and cache hit by scheduling, on every
  driver) yields the same probe payloads, ledger summary, decision
  sequence and canonical span trees on all four drivers;
* **asyncio >= threads** on a zero-work duplicate storm (best of
  ``ROUNDS``): a hit or a piggybacked duplicate never leaves the loop,
  the thread driver pays locks and future plumbing for each;
* **warm >= 10x cold** on one service with a hit rate above 0.9: the
  first request for a workload pays the pipeline, a repeat is a lookup.

The CPU-bound processes-vs-threads race lives in
``bench_proc_gateway.py``; per-driver throughput with repeats is the
end-to-end harness's job (``benchmarks/e2e``).

``python bench_drivers.py [--smoke]`` runs standalone (``--smoke``
shrinks the replays for CI); under pytest the smoke size is used.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial

from repro.core.estimator import XMemEstimator
from repro.service import (
    SCENARIO_NAMES,
    EstimationService,
    SyntheticEstimator,
    Telemetry,
    canonical_trace_trees,
    estimate_many,
    generate_traffic,
    make_policy,
)
from repro.service.loadtest import DRIVERS, run_trace
from repro.workload import RTX_3060, WorkloadConfig

from _common import best_of, emit, waves_of

NUM_SHARDS = 4
#: simulated sleep cost (GIL-released): misses dominate cold waves and
#: waves genuinely overlap on every substrate
WORK_SECONDS = 0.001
#: replays per driver in the storm race
ROUNDS = 3
MIN_WARM_SPEEDUP = 10
WELL_FORMED = ("uniform", "zipf", "bursty", "duplicate-storm")

REAL_WORKLOADS = [
    WorkloadConfig("MobileNetV3Small", "sgd", 8),
    WorkloadConfig("MobileNetV3Small", "adam", 16),
]
IDENTITY_WORKLOADS = [
    WorkloadConfig("MobileNetV3Small", "sgd", size) for size in (1, 2, 4, 8)
]
#: distinct workloads of the cold phase, and how often the warm phase
#: repeats the set
CACHE_WORKLOADS = REAL_WORKLOADS + [
    WorkloadConfig("MobileNetV2", "sgd", 16),
    WorkloadConfig("MnasNet", "sgd", 8),
]
WARM_REPEATS = 25

synthetic = partial(SyntheticEstimator, work_seconds=WORK_SECONDS)


def answers_into(served: dict):
    """An ``on_outcome`` that keeps each answered index's result."""

    def on_outcome(index, result, error):
        if error is None:
            served[index] = result

    return on_outcome


def check_scenarios(num_requests: int) -> dict:
    """Every scenario through every driver: accounting and answers."""
    table = {}
    for scenario in SCENARIO_NAMES:
        trace = generate_traffic(scenario, num_requests, seed=0)
        rows, answers = {}, {}
        for driver in DRIVERS:
            served = answers[driver] = {}
            report, _ = run_trace(
                driver,
                trace,
                on_outcome=answers_into(served),
                estimator_factory=synthetic,
                pool_workers=2,
            )
            row = rows[driver] = {
                name: getattr(report, name)
                for name in ("answered", "shed", "rejected", "errors")
            }
            assert sum(row.values()) == len(trace), (scenario, driver, row)
            assert len(served) == report.answered, (scenario, driver)
            row["cache_hit_rate"] = report.stats["aggregate"]["cache_hit_rate"]
        for driver, row in rows.items():
            assert row["rejected"] == rows["threads"]["rejected"], (
                scenario, driver, row,
            )
            if scenario == "adversarial":
                assert row["rejected"] > 0, (driver, row)
            if scenario in WELL_FORMED:
                assert row["errors"] == 0, (scenario, driver, row)
            # same request, same bytes — wherever both answered it
            both = answers[driver].keys() & answers["threads"].keys()
            assert both and all(
                answers[driver][i].peak_bytes
                == answers["threads"][i].peak_bytes
                for i in both
            ), (scenario, driver)
        if scenario in WELL_FORMED:
            assert rows["threads"]["rejected"] == 0, (scenario, rows)
        table[scenario] = rows
    return table


def check_locality(num_requests: int) -> dict:
    """Cache locality is why the gateway routes on the fingerprint."""
    trace = generate_traffic("zipf", num_requests, seed=0)
    rates = {}
    for policy in ("hash", "random"):
        report, _ = run_trace(
            "threads",
            trace,
            estimator_factory=synthetic,
            policy=make_policy(policy, NUM_SHARDS, seed=0),
        )
        rates[policy] = report.stats["aggregate"]["cache_hit_rate"]
    assert rates["hash"] > rates["random"], rates
    return rates


def check_byte_identity() -> dict:
    """The real pipeline through each driver equals a direct call."""
    factory = partial(XMemEstimator, iterations=1, curve=False)
    direct = [factory().estimate(w, RTX_3060) for w in REAL_WORKLOADS]
    for driver in DRIVERS:
        served = {}
        run_trace(
            driver,
            waves_of(REAL_WORKLOADS, 1, "real"),
            on_outcome=answers_into(served),
            num_shards=2,
            estimator_factory=factory,
            pool_workers=2,
        )
        for index, reference in enumerate(direct):
            result = served[index]
            assert result.peak_bytes == reference.peak_bytes, driver
            assert result.detail == reference.detail, driver
            assert result.predicts_oom() == reference.predicts_oom(), driver
            # neither pickling nor the JSON wire may lose the breakdown
            assert set(result.stage_seconds) == set(reference.stage_seconds)
    return {
        "workloads": [w.label() for w in REAL_WORKLOADS],
        "peak_bytes": [r.peak_bytes for r in direct],
        "drivers": list(DRIVERS),
    }


def check_observability_identity(waves: int = 3) -> dict:
    """Same trace, full telemetry: four drivers, one observable story."""
    trace = waves_of(IDENTITY_WORKLOADS, waves)
    seen = {}
    for driver in DRIVERS:
        telemetry = Telemetry(detail="full")
        report, probed = run_trace(
            driver,
            trace,
            probes=[(w, RTX_3060) for w in IDENTITY_WORKLOADS],
            estimator_factory=synthetic,
            pool_workers=2,
            telemetry=telemetry,
        )
        assert report.answered == len(trace), (driver, report.as_dict())
        seen[driver] = {
            "payloads": [
                (r.peak_bytes, tuple(sorted(r.detail.items()))) for r in probed
            ],
            "summary": telemetry.ledger.summary(),
            "decisions": telemetry.ledger.decision_sequence(),
            "trees": canonical_trace_trees(telemetry.spans()),
        }
    reference = seen["threads"]
    for driver, observed in seen.items():
        for view, value in observed.items():
            assert value == reference[view], (driver, view)
    return {
        "num_requests": len(trace),
        "decisions": len(reference["decisions"]),
        "decision_summary": dict(reference["summary"]),
        "traces": len(reference["trees"]),
    }


def race_duplicate_storm(num_requests: int) -> dict:
    """Zero simulated work: the storm is answered from the single-flight
    table and the cache, so the race is substrate against substrate."""
    trace = generate_traffic("duplicate-storm", num_requests, seed=0)
    rps = {
        driver: best_of(
            ROUNDS,
            lambda: run_trace(
                driver, trace, estimator_factory=SyntheticEstimator
            )[0].throughput_rps,
        )
        for driver in ("threads", "asyncio")
    }
    assert rps["asyncio"] >= rps["threads"], (
        f"asyncio driver {rps['asyncio']:,.0f} req/s below thread driver "
        f"{rps['threads']:,.0f} req/s on duplicate-storm"
    )
    return {**rps, "speedup": rps["asyncio"] / rps["threads"]}


def race_warm_cache() -> dict:
    """One service, the distinct set once (cold), then repeated (warm)."""
    cold_requests = [(w, RTX_3060) for w in CACHE_WORKLOADS]
    rps = {}
    with EstimationService(
        estimator=XMemEstimator(iterations=2), max_workers=4
    ) as service:
        for phase, requests in (
            ("cold", cold_requests),
            ("warm", cold_requests * WARM_REPEATS),
        ):
            started = time.perf_counter()
            estimate_many(service, requests)
            rps[phase] = len(requests) / (time.perf_counter() - started)
        hit_rate = service.stats()["service"]["cache_hit_rate"]
    speedup = rps["warm"] / rps["cold"]
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {speedup:.1f}x faster than cold"
    )
    assert hit_rate > 0.9, hit_rate
    return {**rps, "warm_speedup": speedup, "cache_hit_rate": hit_rate}


def run_driver_bench(num_requests: int = 200) -> dict:
    return {
        "num_requests": num_requests,
        "drivers": list(DRIVERS),
        # the clocked sections first, on a heap the sweeps have not grown
        "duplicate_storm_rps": race_duplicate_storm(num_requests),
        "cache": race_warm_cache(),
        "scenarios": check_scenarios(num_requests),
        "routing_hit_rate": check_locality(num_requests),
        "byte_identity": check_byte_identity(),
        "observability_identity": check_observability_identity(),
    }


def test_drivers(capsys):
    emit("drivers", json.dumps(run_driver_bench(), indent=2), capsys)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    emit(
        "drivers",
        json.dumps(run_driver_bench(200 if smoke else 400), indent=2),
    )
