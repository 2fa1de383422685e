"""Persistent artifact store: the cold path dies across processes.

The stage caches (:mod:`bench_pipeline_stages`) only help within one
process; every fresh CLI run, CI lane, and pool worker used to pay the
full profile -> analyze -> orchestrate chain again.  This benchmark
measures what the **content-addressed sqlite store**
(:mod:`repro.core.artifacts`) recovers across process boundaries:

* **storeless** — a child process runs a cold sweep with stage caching
  off: the baseline every fresh process used to pay;
* **warming** — a second child runs the same sweep against an *empty*
  store: full compute plus the publish cost;
* **stored** — a third child (fresh interpreter, cold L1) runs the sweep
  against the now-warm store: each cell is one simulate-row read.

The store holds orchestrate and simulate rows only — what a fresh
process reads; the profile and analyze stages stay in-process.

Acceptance (asserted):

* the stored child's sweep is faster than the storeless child's, by at
  least ``MIN_STORE_SPEEDUP`` — a store slower than recomputing is a
  failure;
* the stored child is served one row a cell: over its sweep the store's
  persistent counters show no build at all, one ``hit:simulate`` per
  cell and no upstream (``hit:orchestrate``) hit — the promise repeated
  CI runs and CLI sessions buy from the L2;
* every child reports byte-identical peaks, and the full replay agrees
  exactly with the cached peak-only ``pipeline.simulate``;
* a 4-worker :class:`~repro.service.procpool.ProcEstimationService`
  whose factory binds one store path
  (``partial(XMemEstimator, artifact_store=PATH)``) builds each unique
  workload's orchestrate row and its simulate row **exactly once**
  across the whole pool (the store's persistent ``build:orchestrate`` /
  ``build:simulate`` counters, not a wall-clock claim — they hold on
  any host; the orchestrate row's claim is what keeps a profile from
  being built twice).

Writes ``BENCH_artifacts.json`` at the repository root (CI gates it
against ``benchmarks/baselines/BENCH_artifacts.baseline.json``).
``python bench_artifact_store.py [--quick]`` runs standalone; under
pytest the quick size is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
RESULT_PATH = REPO_ROOT / "BENCH_artifacts.json"

ITERATIONS = 2
#: stored vs. storeless sweep; must stay above 1.0 — a store slower than
#: recomputing is a failure.  Measured over 16 --quick runs on a 2-vCPU
#: machine: 17-80x — a cold cell is ~34 ms, a stored one 0.39-1.5 ms
#: (one simulate-row read + unpickle; nothing upstream is loaded; the
#: spread is the stored side's, whose two cells are timed in one fresh
#: interpreter).  The ratio falls as the cold chain gets faster.  The
#: floor is 0.85x the lowest of those runs, still ten times the 1.3x
#: of a store that read its upstream blobs.
MIN_STORE_SPEEDUP = 14.0
POOL_WORKERS = 4


def _grid(quick: bool) -> list[tuple[str, int]]:
    models = ["MobileNetV3Small"] if quick else ["MobileNetV3Small", "MnasNet"]
    batch_sizes = [4, 8] if quick else [4, 8, 16]
    return [(model, bs) for model in models for bs in batch_sizes]


# ----------------------------------------------------------------------
# child side: one cold sweep per interpreter
# ----------------------------------------------------------------------


def _child_sweep(quick: bool, store_path: str | None) -> dict:
    """Cold sweep in *this* process; returns seconds + peaks.

    With a store, the L1 caches are capacity-zero so every cell goes to
    sqlite — the shape of a fresh process with nothing but the store.
    """
    from repro.core.estimator import XMemEstimator
    from repro.core.pipeline import PipelineCache
    from repro.workload import RTX_3060, WorkloadConfig

    grid = _grid(quick)
    store = None
    if store_path:
        cache = PipelineCache(
            max_traces=0,
            max_analyses=0,
            max_sequences=0,
            max_simulations=0,
            artifact_store=store_path,
        )
        store = cache.artifacts
        estimator = XMemEstimator(
            iterations=ITERATIONS, curve=False, stage_cache=cache
        )
    else:
        estimator = XMemEstimator(
            iterations=ITERATIONS, curve=False, stage_cache=False
        )
    before = store.counters() if store else {}
    peaks = {}
    started = time.perf_counter()
    for model, batch_size in grid:
        result = estimator.estimate(
            WorkloadConfig(model, "adam", batch_size), RTX_3060
        )
        peaks[f"{model}/bs{batch_size}"] = result.peak_bytes
    seconds = time.perf_counter() - started
    after = store.counters() if store else {}
    sources = (
        dict(result.stage_sources) if store_path else {}
    )  # last cell's provenance: "store" everywhere once warm
    return {
        "seconds": seconds,
        "peaks": peaks,
        "last_sources": sources,
        # what this sweep did to the store's hit / build counters
        "counters": {
            name: after[name] - before.get(name, 0)
            for name in sorted(after)
            if name.startswith(("hit:", "build:"))
            and after[name] != before.get(name, 0)
        },
    }


def _run_child(quick: bool, store_path: str | None) -> dict:
    """The same sweep, but in a genuinely fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    spec = json.dumps({"quick": quick, "store": store_path})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", spec],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child sweep failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# cached-simulate identity (in-process)
# ----------------------------------------------------------------------


def check_delta_identity() -> dict:
    """Full replay == cached peak-only ``pipeline.simulate``."""
    from dataclasses import replace

    from repro.allocator.constants import DEFAULT_CONFIG
    from repro.core.pipeline import EstimationPipeline, PipelineCache
    from repro.core.simulator import MemorySimulator
    from repro.workload import WorkloadConfig

    pipeline = EstimationPipeline(iterations=ITERATIONS, cache=PipelineCache())
    trace = pipeline.profile(WorkloadConfig("MobileNetV3Small", "adam", 8))
    sequence = pipeline.orchestrate(pipeline.analyze(trace))

    variants = {
        "default": (DEFAULT_CONFIG, True),
        "no_split": (replace(DEFAULT_CONFIG, allow_split=False), True),
        "single_level": (DEFAULT_CONFIG, False),
    }
    peaks = {}
    for name, (config, two_level) in variants.items():
        full = MemorySimulator(
            allocator_config=config, two_level=two_level
        ).replay(sequence, record_timeline=True)
        first = pipeline.simulate(sequence, config, two_level, curve=False)
        again = pipeline.simulate(  # second pass: served from the cache
            sequence, config, two_level, curve=False
        )
        rows = (full, first, again)
        identical = (
            len({r.peak_reserved_bytes for r in rows}) == 1
            and len({r.peak_allocated_bytes for r in rows}) == 1
            and len({r.num_events for r in rows}) == 1
            and again is first
        )
        peaks[name] = {
            "peak_reserved_bytes": full.peak_reserved_bytes,
            "peak_allocated_bytes": full.peak_allocated_bytes,
            "num_events": full.num_events,
            "identical": identical,
        }
    return {
        "variants": peaks,
        "identical": all(row["identical"] for row in peaks.values()),
    }


# ----------------------------------------------------------------------
# procpool: one warm store for the whole pool
# ----------------------------------------------------------------------


def check_procpool_exactly_once(quick: bool, store_path: str) -> dict:
    """4 workers x 2 devices per workload: one orchestrate build and one
    simulate build per workload.

    The persistent ``build:orchestrate`` / ``build:simulate`` counters
    are the proof — claims make the first worker to need a workload build
    it and every other worker (and the second device's request) inherit
    the row; the simulation does not depend on the device.  The store
    path rides the factory's pickle into every worker.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.core.estimator import XMemEstimator
    from repro.service import ProcEstimationService
    from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

    grid = _grid(quick)
    factory = partial(
        XMemEstimator,
        iterations=ITERATIONS,
        curve=False,
        artifact_store=store_path,
    )
    with ProcEstimationService(
        estimator_factory=factory, max_workers=POOL_WORKERS
    ) as service:
        futures = [
            service.submit(WorkloadConfig(model, "adam", bs), device)
            for model, bs in grid
            for device in (RTX_3060, RTX_4060)
        ]
        peaks = [future.result().peak_bytes for future in futures]
    counters = ArtifactStore(store_path).counters()
    return {
        "workers": POOL_WORKERS,
        "requests": len(peaks),
        "unique_workloads": len(grid),
        "orchestrate_builds": counters.get("build:orchestrate", 0),
        "simulate_builds": counters.get("build:simulate", 0),
        "store_counters": {
            name: count
            for name, count in sorted(counters.items())
            if name.startswith(("build:", "hit:"))
        },
    }


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def run_artifact_bench(quick: bool = True) -> dict:
    grid = _grid(quick)
    with tempfile.TemporaryDirectory(prefix="xmem-artifacts-") as tmp:
        sweep_store = os.path.join(tmp, "sweep.sqlite")
        pool_store = os.path.join(tmp, "pool.sqlite")

        storeless = _run_child(quick, None)
        warming = _run_child(quick, sweep_store)
        stored = _run_child(quick, sweep_store)  # fresh process, warm store

        num_cells = len(grid)
        report = {
            "quick": quick,
            "iterations": ITERATIONS,
            "grid": [f"{model}/bs{bs}" for model, bs in grid],
            "num_cells": num_cells,
            "storeless_seconds": storeless["seconds"],
            "warming_seconds": warming["seconds"],
            "stored_seconds": stored["seconds"],
            "store_cell_ms": stored["seconds"] / num_cells * 1e3,
            "store_speedup": storeless["seconds"] / stored["seconds"],
            "warming_overhead": warming["seconds"] / storeless["seconds"],
            "stored_last_sources": stored["last_sources"],
            "stored_counters": stored["counters"],
            "peaks_byte_identical": (
                storeless["peaks"] == warming["peaks"] == stored["peaks"]
            ),
            "peak_bytes": storeless["peaks"],
            "delta_identity": check_delta_identity(),
            "procpool": check_procpool_exactly_once(quick, pool_store),
        }
    return report


def _check(report: dict) -> None:
    assert report["peaks_byte_identical"], (
        "store-served peaks diverged from the storeless pipeline"
    )
    assert report["delta_identity"]["identical"], (
        "cached simulation diverged from the full replay"
    )
    assert report["store_speedup"] >= MIN_STORE_SPEEDUP, (
        f"warm-store cold-process sweep only {report['store_speedup']:.2f}x "
        f"faster than the storeless cold sweep (need >= {MIN_STORE_SPEEDUP}x)"
    )
    # the stored child really was served by the store, not a warm L1
    stages = {"profile", "analyze", "orchestrate", "simulate"}
    sources = report["stored_last_sources"]
    assert all(sources.get(stage) == "store" for stage in stages), sources
    # ... and each cell was one simulate row: no build, nothing upstream
    assert report["stored_counters"] == {
        "hit:simulate": report["num_cells"]
    }, report["stored_counters"]
    pool = report["procpool"]
    assert (
        pool["simulate_builds"]
        == pool["orchestrate_builds"]
        == pool["unique_workloads"]
    ), pool


def _write(report: dict) -> None:
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def test_artifact_store_bench(capsys):
    from _common import emit

    report = run_artifact_bench(quick=True)
    _write(report)
    emit("artifact_store", json.dumps(report, indent=2), capsys)
    _check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spec = json.loads(args.child)
        payload = _child_sweep(spec["quick"], spec["store"])
        print(json.dumps(payload))
        return 0

    from _common import emit

    report = run_artifact_bench(quick=args.quick)
    _write(report)
    _check(report)
    emit("artifact_store", json.dumps(report, indent=2))
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
