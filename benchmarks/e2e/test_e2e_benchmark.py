"""Self-tests of the end-to-end benchmark (collected by tier-1, seconds)."""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import json
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import loadgen
import probes
import run
import workloads
from repro.errors import (
    QuotaExceededError,
    RateLimitExceededError,
    RequestRejectedError,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# inputs come from the seed and nothing else
# ----------------------------------------------------------------------


def _inputs(name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name](seed, quick=True)
    workload.make_inputs()
    return repr(workload.next_requests())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3) != _inputs(name, 4)


# ----------------------------------------------------------------------
# accounting on a target that misbehaves on schedule
# ----------------------------------------------------------------------

#: request number -> what the fake target does with it
_SCHEDULE = {
    3: RuntimeError("boom"),  # raised from submit
    5: RateLimitExceededError(0.1),  # a queue shed
    7: RequestRejectedError("nope"),  # a refusal nobody declared
    9: QuotaExceededError("hostile", 0.1),  # the declared refusal
    11: "wrong",  # answers, but not the expected value
    13: "late-error",  # the future fails, not submit
}


def _fake_submit(request: int) -> Future:
    action = _SCHEDULE.get(request)
    if isinstance(action, Exception):
        raise action
    future: Future = Future()
    if action == "late-error":
        future.set_exception(ValueError("late"))
    else:
        future.set_result(-1 if action == "wrong" else request * 2)
    return future


_ORACLE = loadgen.Oracle(
    is_correct=lambda request, result: result == request * 2,
    is_expected_refusal=lambda request, error: isinstance(
        error, QuotaExceededError
    ),
    refusal_types=(RequestRejectedError,),
    shed_types=(RateLimitExceededError,),
)


def _check_scheduled_counts(phase: loadgen.Phase) -> None:
    counts = loadgen.classify(phase, _ORACLE)
    assert counts.attempted == 20
    assert counts.answered == 14
    assert counts.refused == 1
    assert (counts.errors, counts.shed) == (2, 1)
    assert (counts.unexpected_refusals, counts.wrong) == (1, 1)
    assert counts.failed == 5
    assert counts.attempted == counts.answered + counts.refused + counts.failed
    assert loadgen.Counts.from_dict(counts.as_dict()) == counts


def test_failed_accounting_serial_and_windowed():
    requests = list(range(20))
    serial = loadgen.run_serial(_fake_submit, requests)
    _check_scheduled_counts(serial)
    # a latency only where a result came back
    assert [i for i, x in enumerate(serial.latencies) if x is None] == [
        3, 5, 7, 9, 13,
    ]
    _check_scheduled_counts(loadgen.run_windowed(_fake_submit, requests, 4))


def test_failed_accounting_asyncio():
    async def main():
        loop = asyncio.get_running_loop()

        def submit(request):
            action = _SCHEDULE.get(request)
            if isinstance(action, Exception):
                raise action
            future = loop.create_future()
            if action == "late-error":
                future.set_exception(ValueError("late"))
            else:
                future.set_result(-1 if action == "wrong" else request * 2)
            return future

        requests = list(range(20))
        return (
            await loadgen.run_serial_async(submit, requests),
            await loadgen.run_windowed_async(submit, requests, 4),
        )

    for phase in asyncio.run(main()):
        _check_scheduled_counts(phase)


def test_windowed_keeps_at_most_its_window_outstanding():
    outstanding = peak = 0

    class Reply:
        def result(self, timeout=None):
            nonlocal outstanding
            outstanding -= 1
            return 0

    def submit(request):
        nonlocal outstanding, peak
        outstanding += 1
        peak = max(peak, outstanding)
        return Reply()

    phase = loadgen.run_windowed(submit, list(range(30)), 4)
    assert peak == 4 and outstanding == 0
    assert phase.outcomes == [0] * 30


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def test_percentile_rule_names_no_tail_it_cannot_support():
    assert loadgen.tail_percentile(22) is None  # cold-zoo: p50 only
    assert loadgen.tail_percentile(40) == 75.0
    assert loadgen.tail_percentile(999) == 95.0
    assert loadgen.tail_percentile(1000) == 99.0
    assert loadgen.tail_percentile(10000) == 99.9
    summary = loadgen.summarize([float(i) for i in range(1, 1001)])
    assert summary["n"] == 1000 and summary["tail_q"] == 99.0
    assert summary["p50"] == pytest.approx(500.5)
    assert loadgen.summarize([])["p50"] is None


def test_steady_reads_the_best_repeat_and_shows_the_rest():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    low = loadgen.steady(values, "lower")
    high = loadgen.steady(values, "higher")
    assert (low["value"], high["value"]) == (1.0, 5.0)
    assert low["median"] == 3.0 and low["n"] == 5
    assert loadgen.spread([10.0, 10.0, 10.0, 10.0]) == 0.0


def test_span_self_time_is_duration_minus_children():
    spans = [
        # request 0: a hit — chain 100..400 with a 50 ns cache get inside
        ("request", 0, 1000, None, 0),
        ("routing.select", 10, 40, "request", 0),
        ("middleware.chain", 100, 400, "request", 0),
        ("cache.get_hit", 200, 250, "middleware.chain", 0),
        # request 1: a miss — two chain legs, a get and a put inside them
        ("request", 2000, 4000, None, 1),
        ("middleware.chain", 2100, 2300, "request", 1),
        ("cache.get_miss", 2150, 2200, "middleware.chain", 1),
        ("estimator.estimate", 2400, 3000, "request", 1),
        ("middleware.chain", 3100, 3400, "request", 1),
        ("cache.put", 3200, 3260, "middleware.chain", 1),
    ]
    selfs = probes.self_times(spans)
    assert selfs["middleware.chain"] == [300 - 50, (200 + 300) - (50 + 60)]
    assert selfs["request"] == [1000 - 30 - 300, 2000 - 500 - 600]
    assert selfs["cache.put"] == [60]


# ----------------------------------------------------------------------
# correctness checks are live
# ----------------------------------------------------------------------


def test_tenant_flood_outcome_triple_is_exact_for_any_seed():
    for seed in (0, 5):
        flood = workloads.TenantFlood(seed, quick=True)
        flood.setup()
        repeats = [flood.repeat() for _ in range(2)]
        flood.close()
        assert flood.violations == []
        key = f"{flood.sizes.serial}+{flood.sizes.windowed}"
        assert flood.observed_outcomes == flood.golden["tenant_flood"][key]
        for repeat in repeats:
            assert repeat.counts.failed == 0
            # two thirds refused, and every refusal is the hostile tenant's
            assert repeat.counts.refused > repeat.counts.answered


def test_tenant_flood_golden_mismatch_is_a_violation():
    golden = copy.deepcopy(workloads.load_golden())
    for outcomes in golden["tenant_flood"].values():
        outcomes["windowed"][2] += 1
    flood = workloads.TenantFlood(0, quick=True, golden=golden)
    flood.setup()
    flood.repeat()
    flood.close()
    assert flood.violations


def test_one_flipped_byte_of_golden_json_is_refused(tmp_path):
    text = workloads.GOLDEN_PATH.read_text(encoding="utf-8")
    digit = re.search(r"\d", text[text.index("cells"):]).start() + text.index("cells")
    flipped = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
    tampered = tmp_path / "golden.json"
    tampered.write_text(flipped, encoding="utf-8")
    with pytest.raises(ValueError):
        workloads.load_golden(tampered)
    assert workloads.load_golden()["cells"]  # the real one still loads


def _child_result(workload: workloads.Workload) -> dict:
    """What a child reports for this workload, measured in-process."""
    return run.measure_workload(
        workload, spawned_at=time.time(), planned=1, give_up_after=60.0
    )


def test_estimator_off_by_one_byte_fails_the_run(monkeypatch):
    honest = workloads.xmem_estimator

    def off_by_one(**kwargs):
        estimator = honest(**kwargs)
        inner = estimator.estimate

        def estimate(workload, device, trace=None):
            result = inner(workload, device)
            return dataclasses.replace(
                result, peak_bytes=result.peak_bytes + 1
            )

        estimator.estimate = estimate
        return estimator

    good = run.combine("cold-zoo", 0, [_child_result(workloads.ColdZoo(0, True))])
    assert good["correct"] and good["failed"] == 0
    assert run.exit_code([good]) == 0

    monkeypatch.setattr(workloads, "xmem_estimator", off_by_one)
    bad = run.combine("cold-zoo", 0, [_child_result(workloads.ColdZoo(0, True))])
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert bad["failed_share"] == 1.0
    assert run.exit_code([bad]) != 0


# ----------------------------------------------------------------------
# names, and the contract file
# ----------------------------------------------------------------------


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    for entry in spec["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in run.END_TO_END
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = (
        list(run.WORKLOAD_NAMES)
        + [m[0] for m in run.END_TO_END]
        + list(run.PER_LAYER)
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]


# ----------------------------------------------------------------------
# the command itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["zipf-threads", "store-warm"])
def test_quick_run_answers_everything(name):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", "2",
            "--quick",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m[0] for m in run.END_TO_END}
    for name_, unit, _ in run.END_TO_END:
        assert line["metrics"][name_]["unit"] == unit
        assert line["metrics"][name_]["value"] > 0
    report = json.loads(
        (HERE / "results" / "report.json").read_text(encoding="utf-8")
    )
    assert report["quick"] is True  # can never pass for a baseline
    assert report["runs"][0]["failed_share"] == 0
