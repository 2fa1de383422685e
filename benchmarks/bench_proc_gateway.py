"""Process-pool driver vs. thread driver on CPU-bound estimation.

Races :class:`~repro.service.procpool.ProcServiceGateway` (policy inline
in the parent, estimation in worker processes) against the thread-driven
:class:`~repro.service.gateway.ServiceGateway` on the identical
:class:`~repro.service.core.GatewayCore` state machine.  Identity and
accounting across all four drivers are ``bench_drivers.py``'s; what only
this file has:

* **throughput** — on a **cold-cache, unique-fingerprint, CPU-bound**
  stream (every request a distinct fingerprint, estimation a pure-Python
  busy loop that holds the GIL) with 4 workers each, the process driver
  sustains >= 1.5x the thread driver's throughput.  Threads cannot scale
  a GIL-bound stage past one core; processes can.  The assertion needs
  real parallelism, so it degrades with the host: full 1.5x bar on >= 4
  CPUs (the CI runner), a weaker bar on 2-3, report-only on 1;
* **distribution** — the estimation work really spread across the pool
  (at least two distinct worker processes answered).

The gateways are built here rather than through ``run_trace`` because
every worker is forced to exist *before* the clock starts
(:func:`_warm_substrate`), which needs the gateway open ahead of the
replay.

``python bench_proc_gateway.py [--smoke]`` runs standalone (``--smoke``
shrinks the replay for CI); under pytest the smoke size is used.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial

from repro.service import (
    ProcServiceGateway,
    ServiceGateway,
    SyntheticEstimator,
    TrafficRequest,
    TrafficTrace,
    replay,
)
from repro.workload import RTX_3060, WorkloadConfig

from _common import best_of, emit

#: workers for the race — 4 threads (one per shard) vs. 4 processes
NUM_WORKERS = 4
#: simulated CPU-bound cost (GIL-held busy loop)
SPIN_SECONDS = 0.02
ROUNDS = 2
MIN_PROC_SPEEDUP = 1.5

spinning = partial(SyntheticEstimator, spin_seconds=SPIN_SECONDS)
GATEWAYS = {
    "threads": partial(
        ServiceGateway, estimator_factory=spinning, max_workers_per_shard=1
    ),
    "processes": partial(
        ProcServiceGateway, estimator_factory=spinning, pool_workers=NUM_WORKERS
    ),
}


def cpu_bound_trace(num_requests: int) -> TrafficTrace:
    """Cold-cache worst case: every request a unique fingerprint.

    Distinct batch sizes defeat the result cache and single-flight
    dedup, so every request pays the (simulated) CPU-bound estimation —
    the traffic shape where the execution substrate is the bottleneck.
    """
    return TrafficTrace(
        scenario="cpu-bound-unique",
        seed=0,
        requests=tuple(
            TrafficRequest(
                workload=WorkloadConfig(
                    "MobileNetV3Small", "sgd", batch_size=1 + index
                ),
                device=RTX_3060,
                wave=0,
            )
            for index in range(num_requests)
        ),
    )


def _warm_substrate(gateway) -> None:
    """Force every worker (thread or process) to exist before timing.

    Both executors create workers lazily on first submit; the process
    pool additionally pays a per-worker interpreter/import start-up.
    The race measures steady-state serving throughput, so both drivers
    get the same pre-timed warm-up burst (distinct batch sizes from the
    timed trace, so the timed requests stay cold-cache misses).
    """
    warmup = [
        gateway.submit(
            WorkloadConfig("MobileNetV3Small", "adam", 10_000 + index),
            RTX_3060,
        )
        for index in range(NUM_WORKERS * 2)
    ]
    for future in warmup:
        future.result()


def run_throughput_race(num_requests: int) -> dict:
    """4 GIL-bound threads vs. 4 worker processes on unique requests."""
    trace = cpu_bound_trace(num_requests)
    workers: dict = {}

    def timed_replay(driver: str) -> float:
        with GATEWAYS[driver]() as gateway:
            _warm_substrate(gateway)
            report = replay(trace, gateway)
        workers[driver] = report.stats["aggregate"]["workers"]
        return report.throughput_rps

    rps = {
        driver: best_of(ROUNDS, partial(timed_replay, driver))
        for driver in GATEWAYS
    }
    return {
        "num_requests": num_requests,
        "spin_seconds": SPIN_SECONDS,
        "workers": NUM_WORKERS,
        "cpu_count": os.cpu_count(),
        "threads_rps": rps["threads"],
        "processes_rps": rps["processes"],
        "speedup": rps["processes"] / rps["threads"],
        "process_worker_distribution": workers["processes"],
    }


def _check(race: dict) -> None:
    # the estimation work really spread across the pool
    assert len(race["process_worker_distribution"]) >= 2, race
    cpus = race["cpu_count"] or 1
    if cpus >= 4:
        required = MIN_PROC_SPEEDUP
    elif cpus >= 2:
        # two cores cannot show 1.5x over 4 workers' worth of spin, but
        # the process driver must still beat the GIL-serialized threads
        required = 1.1
    else:
        required = None  # single core: no parallelism to measure
    if required is not None:
        assert race["speedup"] >= required, (
            f"process driver {race['processes_rps']:,.1f} req/s is only "
            f"{race['speedup']:.2f}x the thread driver's "
            f"{race['threads_rps']:,.1f} req/s on the CPU-bound stream "
            f"(need >= {required}x on {cpus} CPUs)"
        )


def test_proc_gateway_driver(capsys):
    race = run_throughput_race(30)
    emit("proc_gateway_driver", json.dumps(race, indent=2), capsys)
    _check(race)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    bench_race = run_throughput_race(30 if smoke else 64)
    _check(bench_race)
    emit("proc_gateway_driver", json.dumps(bench_race, indent=2))
