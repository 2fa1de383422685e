"""Control-plane fairness benchmark: noisy neighbor vs. QoS isolation.

Replays the ``noisy-neighbor`` multi-tenant trace (one hostile tenant
flooding at ~10x its quota, one well-behaved tenant on a hot working
set) against a gateway running the calibrated
:class:`~repro.service.control.ControlPlane`, and holds the admission
plane to four acceptance properties:

* **latency isolation** — the well-behaved tenant's p99 latency under
  the flood stays within ``P99_RATIO_CEILING`` (2x) of its solo-run
  baseline (same gateway, hostile traffic removed);
* **shed targeting** — the flood is absorbed by the *hostile* tenant's
  quota bucket: the hostile tenant loses at least
  ``HOSTILE_SHED_FLOOR`` of its submissions while the well-behaved
  tenant suffers **zero** control-plane sheds;
* **cheap admission** — one ``ControlPlane.admit`` decision costs at
  most ``ADMIT_OVERHEAD_CEILING_US`` microseconds (it sits on every
  gateway submission);
* **cross-driver determinism** — the admit/shed decision sequence for
  the same trace is byte-identical across the threads, asyncio,
  procpool, and TCP drivers
  (:meth:`~repro.service.telemetry.AuditLedger.decision_sequence`).

Writes ``BENCH_control.json`` at the repository root; CI gates it on
the checked-in baseline via
``check_regression.py --preset control`` (metrics: ``well_p99_ratio``
lower-is-better, ``hostile_shed_fraction`` higher-is-better,
``admission_overhead_us`` lower-is-better).

``python bench_control_plane.py [--quick]`` runs standalone
(``--quick`` shrinks the trace for CI); under pytest the quick size is
used.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
from pathlib import Path

from repro.service import (
    ControlPlane,
    SyntheticEstimator,
    Telemetry,
    TenantConfig,
    TrafficTrace,
    generate_traffic,
    make_control,
)
from repro.service.loadtest import DRIVERS, run_trace
from repro.service.telemetry.ledger import AUTH, DEADLINE, QUOTA, SHED

from _common import emit

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_control.json"

NUM_SHARDS = 4
#: simulated per-estimate cost (sleep: releases the GIL) — large enough
#: that queue contention would show in the well-behaved tenant's p99 if
#: the hostile flood reached the queues instead of its quota bucket
WORK_SECONDS = 0.002
#: latency repetitions: p99 over few-dozen samples on a shared 1-core
#: runner is noisy, so both solo and contended runs are repeated and the
#: median p99 compared
LATENCY_REPEATS = 3

P99_RATIO_CEILING = 2.0
HOSTILE_SHED_FLOOR = 0.5
ADMIT_OVERHEAD_CEILING_US = 250.0

#: admission decisions in the ledger's decision_sequence() view
_ADMISSION_EVENTS = (QUOTA, AUTH, DEADLINE, SHED)


def _replay(driver: str, trace: TrafficTrace, **gateway_kwargs):
    """One replay against a fresh calibrated control plane."""
    report, _ = run_trace(
        driver,
        trace,
        num_shards=NUM_SHARDS,
        estimator_factory=partial(
            SyntheticEstimator, work_seconds=WORK_SECONDS
        ),
        control=make_control("noisy-neighbor"),
        **gateway_kwargs,
    )
    return report


#: the fairness runs: headroom for the hostile quota burst — the claim
#: is about the *admission* plane, so the few admitted hostile requests
#: must not serialize behind too few workers
FAIRNESS = {"max_queue_depth": 256, "max_workers_per_shard": 4}


def _solo_trace(trace: TrafficTrace) -> TrafficTrace:
    """The same trace with the hostile tenant's traffic removed."""
    return TrafficTrace(
        scenario=trace.scenario,
        seed=trace.seed,
        requests=tuple(
            request
            for request in trace.requests
            if request.tenant == "well-behaved"
        ),
    )


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _well_p99_ms(trace: TrafficTrace) -> float:
    """Median-of-N p99 latency (ms) of the well-behaved tenant."""
    samples = []
    for _ in range(LATENCY_REPEATS):
        report = _replay("threads", trace, **FAIRNESS)
        samples.append(report.tenant_latency_ms("well-behaved", 99))
    return _median(samples)


def measure_admission_overhead_us(calls: int = 2000) -> float:
    """Best-of-5 mean cost of one ControlPlane.admit decision (µs).

    Quota generous enough that every call admits — the hot path, paid
    by every accepted request; denials are rarer and cheaper (no bucket
    is drained).
    """
    best = float("inf")
    for _ in range(5):
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=2.0, quota_burst=calls * 2.0)],
            admit_rate=2.0,
            admit_burst=calls * 2.0,
        )
        started = time.perf_counter()
        for _ in range(calls):
            plane.admit(tenant="t")
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / calls * 1e6)
    return best


def _admission_sequence(ledger) -> list[tuple]:
    return [
        entry
        for entry in ledger.decision_sequence()
        if entry[0] in _ADMISSION_EVENTS
    ]


def check_cross_driver_determinism(num_requests: int, seed: int) -> dict:
    """Same trace, four drivers: one admit/shed decision sequence."""
    trace = generate_traffic("noisy-neighbor", num_requests, seed=seed)
    sequences = {}
    reports = {}
    for driver in DRIVERS:
        telemetry = Telemetry()
        reports[driver] = _replay(driver, trace, telemetry=telemetry)
        sequences[driver] = _admission_sequence(telemetry.ledger)

    reference = sequences["threads"]
    assert reference, "noisy-neighbor trace produced no admission events"
    for driver, sequence in sequences.items():
        assert sequence == reference, (
            f"{driver} admission decisions diverged from threads: "
            f"{sequence[:3]} vs {reference[:3]}"
        )
    # shed targeting must agree too, not just the event stream
    for driver, report in reports.items():
        well = report.tenants["well-behaved"]
        assert well["quota_shed"] == 0, (
            f"{driver}: well-behaved tenant lost {well['quota_shed']} "
            "requests to the control plane"
        )
    return {
        "drivers": sorted(sequences),
        "decision_events": len(reference),
        "identical": True,
    }


def run_control_bench(num_requests: int = 240, seed: int = 0) -> dict:
    trace = generate_traffic("noisy-neighbor", num_requests, seed=seed)
    solo = _solo_trace(trace)

    solo_p99_ms = _well_p99_ms(solo)
    contended_p99_ms = _well_p99_ms(trace)
    # the ratio's denominator gets a small absolute floor so a
    # sub-millisecond all-cache-hit solo run cannot turn scheduler
    # jitter into a fake regression
    ratio = contended_p99_ms / max(solo_p99_ms, 1.0)

    contended = _replay("threads", trace, **FAIRNESS)
    well = contended.tenants["well-behaved"]
    hostile = contended.tenants["hostile"]
    hostile_shed_fraction = hostile["shed"] / hostile["submitted"]

    assert well["quota_shed"] == 0, (
        f"well-behaved tenant lost {well['quota_shed']} requests to the "
        "control plane while inside its quota"
    )
    assert well["answered"] == well["submitted"], (
        f"well-behaved tenant answered {well['answered']} of "
        f"{well['submitted']} under the flood"
    )
    assert ratio <= P99_RATIO_CEILING, (
        f"well-behaved p99 {contended_p99_ms:.2f} ms under the flood is "
        f"{ratio:.2f}x its solo baseline {solo_p99_ms:.2f} ms "
        f"(ceiling {P99_RATIO_CEILING}x)"
    )
    assert hostile_shed_fraction >= HOSTILE_SHED_FLOOR, (
        f"hostile tenant flooding at ~10x quota only shed "
        f"{hostile_shed_fraction:.0%} (floor {HOSTILE_SHED_FLOOR:.0%})"
    )

    overhead_us = measure_admission_overhead_us()
    assert overhead_us <= ADMIT_OVERHEAD_CEILING_US, (
        f"one admit decision costs {overhead_us:.1f} µs "
        f"(ceiling {ADMIT_OVERHEAD_CEILING_US} µs)"
    )

    determinism = check_cross_driver_determinism(
        min(num_requests, 96), seed
    )

    return {
        "quick": num_requests <= 96,
        "grid": [f"noisy-neighbor/{num_requests}req/{NUM_SHARDS}shards"],
        "num_requests": num_requests,
        "num_shards": NUM_SHARDS,
        "solo_p99_ms": solo_p99_ms,
        "contended_p99_ms": contended_p99_ms,
        "well_p99_ratio": ratio,
        "well_behaved": well,
        "hostile": hostile,
        "hostile_shed_fraction": hostile_shed_fraction,
        "admission_overhead_us": overhead_us,
        "cross_driver": determinism,
    }


def _check(report: dict) -> None:
    assert report["well_p99_ratio"] <= P99_RATIO_CEILING
    assert report["well_behaved"]["quota_shed"] == 0
    assert report["hostile_shed_fraction"] >= HOSTILE_SHED_FLOOR
    assert report["admission_overhead_us"] <= ADMIT_OVERHEAD_CEILING_US
    assert report["cross_driver"]["identical"]


def _write_report(report: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_control_plane_fairness(capsys):
    report = run_control_bench(num_requests=96)
    _write_report(report)
    emit("control_plane", json.dumps(report, indent=2), capsys)
    _check(report)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    bench_report = run_control_bench(num_requests=96 if quick else 240)
    _check(bench_report)
    _write_report(bench_report)
    emit("control_plane", json.dumps(bench_report, indent=2))
