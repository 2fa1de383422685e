"""End-to-end benchmark of the estimation service: one command, every metric.

Driver contract (one workload, last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload zipf-tcp --seed 3 \\
        --seconds 10 --trace 0

By hand (all workloads, a table, a report under ``results/``)::

    PYTHONPATH=src python -m benchmarks.e2e.run [--workload NAME] [--seed N]
        [--trace] [--aa] [--quick]

A run spawns ``CHILDREN`` fresh interpreters one after the other.  Each
child does set-up (imports, build the target, warm caches; timed as
``setup_s``) and then a fixed number of short repeats of the workload's
timed phases on the same generated inputs.  The parent pools the
per-repeat samples (``loadgen.steady``) and takes the median over children
for ``setup_s`` and ``peak_rss_mb``.  See README.md for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
RESULTS_DIR = HERE / "results"
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import loadgen  # noqa: E402  (sibling module; imports nothing of the program)

#: fresh interpreters per run: three set-up and peak-RSS samples, and a
#: disturbance that swallows one child whole still leaves two
CHILDREN = 3
#: run length the per-child repeat counts in ``workloads.Sizes`` are for
NOMINAL_SECONDS = 10.0
CHILD_TIMEOUT = 170.0

WORKLOAD_NAMES = (
    "cold-zoo",
    "store-warm",
    "device-sweep",
    "zipf-threads",
    "zipf-asyncio",
    "zipf-tcp",
    "tenant-flood",
)

#: (name, unit, better) of every end-to-end metric, same on each workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
#: the end-to-end metrics that have one sample per repeat
PER_REPEAT = ("latency_p50_ms", "throughput_rps", "cpu_ms_per_req")

#: name -> unit of every per-layer metric a traced run reports
PER_LAYER = {
    "profiler.profile_ms": "ms",
    "profiler.events": "count",
    "analyzer.analyze_ms": "ms",
    "analyzer.us_per_event_p50": "us",
    "analyzer.us_per_event_max": "us",
    "orchestrator.orchestrate_ms": "ms",
    "orchestrator.blocks": "count",
    "simulator.simulate_ms": "ms",
    "simulator.us_per_event": "us",
    "pipeline.hit_us": "us",
    "pipeline.trace_fingerprint_us": "us",
    "pipeline.stage_hit_rate": "ratio",
    "pipeline.profile_builds": "count",
    "artifacts.get_ms.profile": "ms",
    "artifacts.get_ms.analyze": "ms",
    "artifacts.get_ms.orchestrate": "ms",
    "artifacts.put_ms": "ms",
    "artifacts.blob_kb.profile": "KiB",
    "artifacts.blob_kb.analyze": "KiB",
    "artifacts.blob_kb.orchestrate": "KiB",
    "artifacts.hit_rate": "ratio",
    "artifacts.builds": "count",
    "fingerprint.us": "us",
    "cache.get_hit_us": "us",
    "cache.put_us": "us",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "middleware.chain_us": "us",
    "middleware.hooks": "count",
    "core.admit_settle_us": "us",
    "core.dedup_share": "ratio",
    "routing.select_us": "us",
    "routing.shard_imbalance": "ratio",
    "control.admit_us": "us",
    "control.refuse_us": "us",
    "control.refused": "count",
    "control.admitted": "count",
    "gateway.hit_us": "us",
    "engine.hit_us": "us",
    "gateway.miss_us": "us",
    "gateway.serial_p99_us": "us",
    "aio.hit_us": "us",
    "aio.miss_us": "us",
    "aio.serial_p99_us": "us",
    "wire.encode_request_us": "us",
    "wire.decode_request_us": "us",
    "wire.encode_response_us": "us",
    "wire.decode_response_us": "us",
    "wire.request_bytes": "count",
    "wire.response_bytes": "count",
    "tcp.ping_us": "us",
    "tcp.transport_self_us": "us",
    "tcp.over_aio_us": "us",
    "tcp.serial_p99_us": "us",
    "metrics.stats_ms": "ms",
    "metrics.record_us": "us",
    "telemetry.capture_ratio": "ratio",
    "machine.spin_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# child side: one fresh interpreter, one workload
# ----------------------------------------------------------------------


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sum_phases(many) -> dict:
    """Add up ``{phase: counts-dict}`` mappings, phase by phase."""
    total: dict = {}
    for phases in many:
        for name, counts in phases.items():
            bucket = total.setdefault(name, dict.fromkeys(counts, 0))
            for key, value in counts.items():
                bucket[key] += value
    return total


def child_measure(spec: dict) -> dict:
    """Build the workload this child was spawned for and measure it."""
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](
        spec["seed"], spec["quick"], child=spec["child"]
    )
    scale = 1.0 if spec["quick"] else spec["seconds"] / NOMINAL_SECONDS
    return measure_workload(
        workload,
        spawned_at=spec["spawned_at"],
        planned=max(2, round(workload.sizes.repeats * scale)),
        # fixed work keeps counts and peak RSS repeatable; the clock only
        # ends a child early when the box is so disturbed it would overrun
        give_up_after=1.5 * spec["seconds"] / CHILDREN,
    )


def measure_workload(
    workload, spawned_at: float, planned: int, give_up_after: float
) -> dict:
    """Set up once, then the fixed repeats; every sample goes back raw."""
    workload.setup()
    setup_s = time.time() - spawned_at
    give_up_at = time.perf_counter() + give_up_after
    repeats, spins = [], []
    spin_every = max(1, planned // 8)
    for index in range(planned):
        if index % spin_every == 0:
            spins.append(loadgen.spin())
        repeats.append(workload.repeat())
        if time.perf_counter() > give_up_at and len(repeats) >= 2:
            break
    workload.close()
    counts = loadgen.Counts()
    for repeat in repeats:
        counts.add(repeat.counts)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "samples": {
            name: [getattr(repeat, name) for repeat in repeats]
            for name in PER_REPEAT
        },
        "latencies": [x for repeat in repeats for x in repeat.latencies],
        "slots": [repeat.slots for repeat in repeats if repeat.slots],
        "spin_ms": spins,
        "counts": counts.as_dict(),
        "phases": _sum_phases(repeat.phases for repeat in repeats),
        "violations": workload.violations,
        "repeats": len(repeats),
        "planned_repeats": planned,
        "sizes": [workload.sizes.serial, workload.sizes.windowed],
        "observed": getattr(workload, "observed_outcomes", None),
    }


def child_trace(spec: dict) -> dict:
    """The traced run: injected probes, then the replayed ones."""
    import probes

    name = spec["workload"]
    metrics, log, counts = probes.collect_layers(
        name, spec["seed"], spec["quick"], RESULTS_DIR / f"tmp-replay-{name}"
    )
    log.write(RESULTS_DIR / f"spans-{name}.jsonl")
    return {
        "layers": metrics,
        "counts": counts.as_dict(),
        "spans": len(log.spans),
    }


def _pin_to_one_cpu() -> None:
    """Keep the child's threads on one CPU (the last one allowed).

    Under the GIL the client, worker and loop threads never run Python in
    parallel, but *where* the scheduler puts them decides what a hand-off
    costs: unpinned on two cores the same miss path read 0.33 ms or
    0.50 ms for tens of seconds at a time.  On one CPU it reads 0.33.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: run where we are put


def child_main(encoded: str) -> int:
    spec = json.loads(encoded)
    _pin_to_one_cpu()
    result = child_trace(spec) if spec["trace"] else child_measure(spec)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def _spawn(name, seed, seconds, quick, child: int, traced: bool) -> dict:
    """Run one child interpreter to the end; return what it printed last."""
    spec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "child": child,
        "trace": int(traced),
    }
    env = dict(os.environ)
    # one hash seed for every child: set/dict order and string hashes are
    # part of the run conditions, not a source of run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    # one malloc arena: with glibc's per-thread arenas the same work left
    # a peak RSS anywhere from 68 to 79 MiB depending on which worker
    # thread got which arena; with one it repeats to within 0.2 MiB
    env["MALLOC_ARENA_MAX"] = "1"
    spec["spawned_at"] = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child for {spec['workload']} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """One untraced run of one workload: the end-to-end metrics."""
    children = [
        _spawn(name, seed, seconds, quick, child=index, traced=False)
        for index in range(1 if quick else CHILDREN)
    ]
    return combine(name, seed, children)


def combine(name: str, seed: int, children: list) -> dict:
    """Pool what the children measured into one run's result."""
    metrics: dict = {}
    better = {n: b for n, _, b in END_TO_END}
    for metric in PER_REPEAT:
        pooled = [x for child in children for x in child["samples"][metric]]
        metrics[metric] = loadgen.steady(pooled, better[metric])
    passes = [p for child in children for p in child.get("slots", ())]
    if passes:  # few long requests: the best pass, request by request
        for metric, value in loadgen.best_pass(passes).items():
            metrics[metric]["value"] = value
    for metric in ("setup_s", "peak_rss_mb"):
        values = [child[metric] for child in children]
        metrics[metric] = {
            "value": statistics.median(values),
            "median": statistics.median(values),
            "q1": min(values),
            "q3": max(values),
            "n": len(values),
        }
    counts = loadgen.Counts()
    violations: list = []
    for child in children:
        counts.add(loadgen.Counts.from_dict(child["counts"]))
        violations.extend(child["violations"])
    correct = not violations and counts.wrong == 0
    failed = counts.failed if correct else counts.attempted
    latencies = [x for child in children for x in child["latencies"]]
    tail = loadgen.summarize(latencies)
    return {
        "workload": name,
        "seed": seed,
        "correct": correct,
        "attempted": counts.attempted,
        "failed": failed,
        "failed_share": failed / counts.attempted,
        "violations": violations[:5],
        "metrics": metrics,
        "counts": counts.as_dict(),
        "phases": _sum_phases(child["phases"] for child in children),
        "serial_latency_ms": {
            "n": tail["n"],
            "p50": tail["p50"] * 1e3 if tail["p50"] is not None else None,
            "tail_q": tail["tail_q"],
            "tail": tail["tail"] * 1e3 if tail["tail"] is not None else None,
        },
        "machine.spin_ms": loadgen.steady(
            [x for child in children for x in child["spin_ms"]], "lower"
        ),
        "children": len(children),
        "repeats": [child["repeats"] for child in children],
        "planned_repeats": [child["planned_repeats"] for child in children],
        "sizes": children[0]["sizes"],
        "observed": children[0]["observed"],
        "samples": [child["samples"] for child in children],
        "setup_samples": [child["setup_s"] for child in children],
        "rss_samples": [child["peak_rss_mb"] for child in children],
    }


def trace(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """One traced run of one workload: every per-layer metric."""
    child = _spawn(name, seed, seconds, quick, child=0, traced=True)
    missing = sorted(set(PER_LAYER) - set(child["layers"]))
    if missing:
        raise RuntimeError(f"traced run of {name} did not measure {missing}")
    counts = child["counts"]
    return {
        "workload": name,
        "seed": seed,
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "layers": {key: child["layers"][key] for key in PER_LAYER},
        "spans": child["spans"],
    }


def driver_line(result: dict, traced: bool) -> str:
    """The one JSON object the driver reads off the last stdout line."""
    if traced:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# by-hand reporting
# ----------------------------------------------------------------------


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _bounds() -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def print_measured(result: dict) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, "
          f"{result['children']} children, repeats {result['repeats']}, "
          f"sizes serial/windowed {result['sizes']})")
    for name, unit, _ in END_TO_END:
        m = result["metrics"][name]
        print(
            f"  {name:<16} {m['value']:>12.4f} {unit:<4} "
            f"median {m['median']:.4f}  [{m['q1']:.4f} .. {m['q3']:.4f}]  "
            f"n={m['n']}"
        )
    print(f"  {'failed_share':<16} {result['failed_share']:>12.4f} ratio")
    tail = result["serial_latency_ms"]
    if tail["tail_q"] is not None:
        print(
            f"  serial latency   p50 {tail['p50']:.4f} ms, "
            f"p{tail['tail_q']:g} {tail['tail']:.4f} ms  n={tail['n']}"
        )
    else:
        print(f"  serial latency   p50 {tail['p50']:.4f} ms  n={tail['n']}")
    spin = result["machine.spin_ms"]
    print(
        f"  machine.spin_ms  {spin['value']:.3f} ms  median "
        f"{spin['median']:.3f}  [{spin['q1']:.3f} .. {spin['q3']:.3f}]"
    )
    for phase, counts in result["phases"].items():
        print(
            f"  phase {phase:<9} attempted {counts['attempted']}  answered "
            f"{counts['answered']}  expected-refused "
            f"{counts['refused']}  failed {counts['failed']}"
        )
    for violation in result["violations"]:
        print(f"  WRONG: {violation}")


def print_layers(result: dict) -> None:
    print(f"\n== {result['workload']}  per-layer (seed {result['seed']}, "
          f"{result['spans']} spans in results/spans-{result['workload']}.jsonl)")
    for name, value in result["layers"].items():
        print(f"  {name:<32} {value:>14.4f} {PER_LAYER[name]}")
    if result["workload"] == "zipf-threads":
        layers = result["layers"]
        parts = (
            "fingerprint.us",
            "middleware.chain_us",
            "cache.get_hit_us",
            "routing.select_us",
            "core.admit_settle_us",
        )
        total = sum(layers[p] for p in parts)
        print(
            f"  sum check: gateway.hit_us {layers['gateway.hit_us']:.2f} = "
            f"layers {total:.2f} ({' + '.join(parts)}) + driver self time "
            f"{layers['gateway.hit_us'] - total:.2f}"
        )


def write_report(runs: list, args, name: str = "report.json") -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    payload = {
        "quick": bool(args.quick),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "children": 1 if args.quick else CHILDREN,
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def run_aa(names, args) -> int:
    """The suite twice, back to back; fail on a median beyond its bound."""
    bounds = _bounds()
    first = [measure(n, args.seed, args.seconds, args.quick) for n in names]
    second = [measure(n, args.seed, args.seconds, args.quick) for n in names]
    worst = 0
    print(f"\nA/A check (seed {args.seed}): value A | value B | "
          "difference | bound; quartile ranges over repeats beside each")
    for a, b in zip(first, second):
        print(f"\n== {a['workload']}")
        for name, _, _ in END_TO_END:
            ma, mb = a["metrics"][name], b["metrics"][name]
            diff = abs(ma["value"] - mb["value"]) / ma["value"]
            ok = diff <= bounds[name]
            worst += not ok
            print(
                f"  {name:<16} {ma['value']:>11.4f} [{ma['q1']:.4f}..{ma['q3']:.4f}]"
                f"  {mb['value']:>11.4f} [{mb['q1']:.4f}..{mb['q3']:.4f}]"
                f"  {diff:6.1%} / {bounds[name]:.0%}  {'ok' if ok else 'FAIL'}"
            )
        for run in (a, b):
            if run["failed"]:
                worst += 1
                print(f"  FAIL: {run['failed']} of {run['attempted']} failed")
        if a["observed"] != b["observed"]:
            worst += 1
            print(f"  FAIL: outcome counts differ {a['observed']} {b['observed']}")
    write_report([first, second], args, "report-aa.json")
    return 1 if worst else 0


def update_golden(args) -> int:
    """Recompute ``golden.json`` from direct calls; print what changed."""
    import workloads
    from repro.workload import RTX_3060

    try:
        old = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = {}
    reference = workloads.xmem_estimator(stage_cache=False)
    cells = {
        workloads.cell_id(cell): reference.estimate(cell, RTX_3060).peak_bytes
        for cell in workloads.xmem_universe()
    }
    new = {"cells": cells, "tenant_flood": {}}
    for quick in (False, True):
        flood = workloads.TenantFlood(args.seed, quick, golden=new)
        flood.setup()
        flood.repeat()
        key = f"{flood.sizes.serial}+{flood.sizes.windowed}"
        new["tenant_flood"][key] = flood.observed_outcomes
    new["sha256"] = workloads.golden_digest(new)
    for section in ("cells", "tenant_flood"):
        for key, value in new[section].items():
            before = old.get(section, {}).get(key)
            if before != value:
                print(f"  {section}.{key}: {before} -> {value}")
    workloads.GOLDEN_PATH.write_text(
        json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


def exit_code(runs: list) -> int:
    """Non-zero when any operation failed or any output was wrong."""
    return int(any(run["failed"] or not run["correct"] for run in runs))


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro").is_dir():
        print(f"program under test not found at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child)
    if args.update_golden:
        return update_golden(args)
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    if args.aa:
        return run_aa(names, args)
    runs = []
    for name in names:
        if args.trace:
            result = trace(name, args.seed, args.seconds, args.quick)
            print_layers(result)
        else:
            result = measure(name, args.seed, args.seconds, args.quick)
            print_measured(result)
        runs.append(result)
    report = write_report(runs, args)
    print(f"\nreport: {report.relative_to(REPO)}"
          f"{'  (quick: not a baseline)' if args.quick else ''}")
    if args.workload:
        print(driver_line(runs[0], bool(args.trace)))
    return exit_code(runs)


if __name__ == "__main__":
    sys.exit(main())
