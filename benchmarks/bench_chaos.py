"""Chaos benchmark: resilience under a seeded shard blackout.

Replays the zipf hot-key trace twice against a 4-shard thread-driver
gateway — once fault-free, once with a :class:`repro.service.faults.FaultPlan`
that blacks out the busiest shard for the middle half of the trace — and
holds the resilience plane (retry/backoff, circuit breaking, re-routing;
see ``docs/resilience.md``) to four acceptance properties:

* **exactly-once settle** — every submitted request resolves exactly
  once, fault plan or not; nothing is lost or double-answered;
* **byte identity** — every answer served during chaos equals the
  fault-free answer for the same request, byte for byte (retries and
  re-routes must never change *what* is served, only *where from*);
* **goodput floor** — during the blackout window, at least 50% of the
  fault-free goodput survives (re-routing around the dead shard, not
  erroring through it);
* **determinism** — two runs of the same seeded plan produce the
  identical resilience decision sequence
  (:meth:`~repro.service.telemetry.AuditLedger.resilience_sequence`);
* **driver agreement** — the seeded plan through every driver (threads,
  asyncio, processes, TCP) yields the same outcome per trace index and
  the same resilience decision sequence.  The full
  ``decision_sequence()`` is not compared: dedup and cache-hit races
  make it differ even between two thread runs (see ``bench_drivers.py``).

``python bench_chaos.py [--quick]`` runs standalone (``--quick`` shrinks
the trace for CI); under pytest the quick size is used.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import partial

from repro.errors import RateLimitExceededError, RequestRejectedError
from repro.service import (
    FaultPlan,
    FaultSpec,
    ServiceGateway,
    SyntheticEstimator,
    Telemetry,
    default_resilience,
    generate_traffic,
)
from repro.service.loadtest import DRIVERS, run_trace

from _common import emit

NUM_SHARDS = 4
#: simulated per-estimate cost; nonzero so retries have a window
WORK_SECONDS = 0.001
GOODPUT_FLOOR = 0.5


#: the gateway of every run here, fault plan or not
GATEWAY = {
    "num_shards": NUM_SHARDS,
    "estimator_factory": partial(
        SyntheticEstimator, work_seconds=WORK_SECONDS
    ),
    "max_queue_depth": 256,
}


def plan_blackout(trace, seed: int) -> FaultPlan:
    """Black out the shard that takes the most traffic mid-trace.

    The window covers the middle half of the submission-index stream;
    the victim is whichever shard hash routing sends the most in-window
    requests to (probed on a throwaway gateway — routing is a pure
    function of the fingerprint and shard count), so the blackout is
    guaranteed to collide with real traffic.
    """
    lo, hi = len(trace) // 4, len(trace) // 4 + len(trace) // 2
    ordered = [request for wave in trace.waves() for request in wave]
    with ServiceGateway(**GATEWAY) as probe:
        routed = [
            probe.shard_for(req.workload, req.device) for req in ordered
        ]
    victim = Counter(routed[lo:hi]).most_common(1)[0][0]
    return FaultPlan(
        specs=(
            FaultSpec(
                kind="shard_blackout", start=lo, stop=hi, shard=victim
            ),
        ),
        seed=seed,
    )


def run_once(trace, fault_plan=None, driver: str = "threads") -> dict:
    """One replay, keeping the outcome of every trace index so the
    identity and goodput checks can compare runs request by request."""
    telemetry = Telemetry()
    outcomes: dict[int, tuple] = {}

    def keep(index, result, error):
        if error is None:
            outcomes[index] = (
                "answered",
                (result.peak_bytes, json.dumps(result.detail)),
            )
        else:
            refused = (RateLimitExceededError, RequestRejectedError)
            status = "shed" if isinstance(error, refused) else "error"
            outcomes[index] = (status, type(error).__name__)

    report, _ = run_trace(
        driver,
        trace,
        on_outcome=keep,
        telemetry=telemetry,
        resilience=default_resilience(),
        fault_plan=fault_plan,
        **GATEWAY,
    )
    return {
        "outcomes": outcomes,
        "stats": report.stats,
        "sequence": telemetry.ledger.resilience_sequence(),
    }


def _answered_in(outcomes, lo: int, hi: int) -> int:
    return sum(
        1
        for index, (status, _) in outcomes.items()
        if lo <= index < hi and status == "answered"
    )


def run_chaos_bench(num_requests: int = 240, seed: int = 0) -> dict:
    trace = generate_traffic("zipf", num_requests, seed=seed)
    plan = plan_blackout(trace, seed)
    blackout = plan.specs[0]

    baseline = run_once(trace)
    chaotic = run_once(trace, plan)
    repeat = run_once(trace, plan)

    # --- exactly-once settle: nothing lost, nothing double-counted ----
    for name, run in (("baseline", baseline), ("chaos", chaotic)):
        assert len(run["outcomes"]) == len(trace), (
            f"{name}: {len(run['outcomes'])} outcomes for "
            f"{len(trace)} submissions — a future was lost"
        )

    # --- byte identity: chaos never changes what is served ------------
    mismatched = [
        index
        for index, (status, payload) in chaotic["outcomes"].items()
        if status == "answered"
        and baseline["outcomes"][index] != ("answered", payload)
    ]
    assert not mismatched, (
        f"answers diverged from fault-free run at indices {mismatched[:5]}"
    )

    # --- goodput floor inside the blackout window ---------------------
    base_goodput = _answered_in(
        baseline["outcomes"], blackout.start, blackout.stop
    )
    chaos_goodput = _answered_in(
        chaotic["outcomes"], blackout.start, blackout.stop
    )
    assert base_goodput > 0, "blackout window saw no baseline traffic"
    ratio = chaos_goodput / base_goodput
    assert ratio >= GOODPUT_FLOOR, (
        f"goodput during blackout {chaos_goodput}/{base_goodput} "
        f"({ratio:.2f}) fell below the {GOODPUT_FLOOR:.0%} floor"
    )

    # --- determinism: same seed, same decision sequence ---------------
    assert chaotic["sequence"], "seeded blackout produced no decisions"
    assert chaotic["sequence"] == repeat["sequence"], (
        "resilience decision sequence diverged across same-seed runs"
    )

    # --- driver agreement: every driver decides and answers alike -----
    for driver in DRIVERS:
        if driver == "threads":
            continue
        other = run_once(trace, plan, driver)
        assert other["outcomes"] == chaotic["outcomes"], (
            f"{driver}: per-index outcomes differ from threads"
        )
        ours, theirs = set(chaotic["sequence"]), set(other["sequence"])
        assert other["sequence"] == chaotic["sequence"], (
            f"{driver}: resilience decision sequence differs from threads; "
            f"only threads {sorted(ours - theirs)[:4]}, "
            f"only {driver} {sorted(theirs - ours)[:4]}"
        )

    faults = chaotic["stats"]["gateway"]["faults"]
    resilience = chaotic["stats"]["gateway"]["resilience"]
    return {
        "num_requests": num_requests,
        "num_shards": NUM_SHARDS,
        "blackout": blackout.as_dict(),
        "baseline_answered": _answered_in(
            baseline["outcomes"], 0, len(trace)
        ),
        "chaos_answered": _answered_in(chaotic["outcomes"], 0, len(trace)),
        "window_goodput": {
            "baseline": base_goodput,
            "chaos": chaos_goodput,
            "ratio": ratio,
        },
        "faults_injected": faults["injected"],
        "retries": resilience["retries"],
        "reroutes": resilience["reroutes"],
        "breaker_opens": resilience["breaker_opens"],
        "decision_events": len(chaotic["sequence"]),
        "deterministic": True,
        "drivers_agree": list(DRIVERS),
    }


def _check(report: dict) -> None:
    assert report["deterministic"]
    assert report["faults_injected"].get("shard_blackout", 0) > 0
    assert report["window_goodput"]["ratio"] >= GOODPUT_FLOOR


def test_chaos_blackout(capsys):
    report = run_chaos_bench(num_requests=96)
    emit("chaos_blackout", json.dumps(report, indent=2), capsys)
    _check(report)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    bench_report = run_chaos_bench(num_requests=96 if quick else 240)
    _check(bench_report)
    emit("chaos_blackout", json.dumps(bench_report, indent=2))
