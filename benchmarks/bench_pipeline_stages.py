"""Staged-pipeline speedup: intermediate-artifact caches vs. the cold chain.

The serving layer's final-result cache only helps exact repeats; this
benchmark measures what the **stage caches** (:mod:`repro.core.pipeline`)
recover on the traffic shape they were built for — a sweep over batch
sizes crossed with allocator-simulation variants, where every request is
a *distinct* fingerprint but almost all upstream work is shared:

* **cold** — stage caching disabled: every cell pays the full
  profile -> analyze -> orchestrate -> simulate chain;
* **warm** — every variant estimator shares one
  :class:`~repro.core.pipeline.PipelineCache`; after one warming pass,
  each cell re-runs only the simulator.

Acceptance (asserted):

* the warm sweep is >= 3x faster than the cold sweep;
* every warm peak is byte-identical to its cold counterpart;
* the warm pass profiles nothing (trace-store misses stay at the
  warming pass's unique-workload count).

Writes ``BENCH_pipeline.json`` at the repository root (CI uploads it as
an artifact).  ``python bench_pipeline_stages.py [--quick]`` runs
standalone; under pytest the quick size is used.  What the persistent
L2 serves a fresh process is :mod:`bench_artifact_store`'s to check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.allocator.constants import DEFAULT_CONFIG
from repro.core.estimator import XMemEstimator
from repro.core.pipeline import PipelineCache
from repro.workload import RTX_3060, WorkloadConfig

from _common import emit

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

ITERATIONS = 2
MIN_WARM_SPEEDUP = 3.0

#: simulation-side variants: they differ only in knobs the simulate stage
#: consumes, so a warm pipeline re-runs nothing upstream for them
VARIANTS = {
    "default": {},
    "no_split": {
        "allocator_config": replace(DEFAULT_CONFIG, allow_split=False)
    },
    "single_level": {"two_level": False},
}


def _grid(quick: bool) -> list[tuple[str, int]]:
    models = ["MobileNetV3Small"] if quick else ["MobileNetV3Small", "MnasNet"]
    batch_sizes = [4, 8] if quick else [4, 8, 16]
    return [(model, bs) for model in models for bs in batch_sizes]


def _sweep(estimators: dict[str, XMemEstimator], grid) -> dict[tuple, int]:
    """Run every (workload x variant) cell; returns peaks keyed by cell."""
    peaks: dict[tuple, int] = {}
    for model, batch_size in grid:
        workload = WorkloadConfig(model, "adam", batch_size)
        for variant, estimator in estimators.items():
            result = estimator.estimate(workload, RTX_3060)
            peaks[(model, batch_size, variant)] = result.peak_bytes
    return peaks


def run_pipeline_bench(quick: bool = True) -> dict:
    grid = _grid(quick)

    # --- cold: stage caching off, every cell pays the whole chain -------
    cold_estimators = {
        variant: XMemEstimator(
            iterations=ITERATIONS, curve=False, stage_cache=False, **knobs
        )
        for variant, knobs in VARIANTS.items()
    }
    started = time.perf_counter()
    cold_peaks = _sweep(cold_estimators, grid)
    cold_seconds = time.perf_counter() - started

    # --- warm: one shared PipelineCache across every variant -----------
    cache = PipelineCache()
    warm_estimators = {
        variant: XMemEstimator(
            iterations=ITERATIONS, curve=False, stage_cache=cache, **knobs
        )
        for variant, knobs in VARIANTS.items()
    }
    started = time.perf_counter()
    warming_peaks = _sweep(warm_estimators, grid)
    warming_seconds = time.perf_counter() - started
    profiles_after_warming = cache.traces.stats()["misses"]

    started = time.perf_counter()
    warm_peaks = _sweep(warm_estimators, grid)
    warm_seconds = time.perf_counter() - started

    num_cells = len(grid) * len(VARIANTS)
    return {
        "quick": quick,
        "iterations": ITERATIONS,
        "grid": [f"{model}/bs{bs}" for model, bs in grid],
        "variants": sorted(VARIANTS),
        "num_cells": num_cells,
        "cold_seconds": cold_seconds,
        "warming_seconds": warming_seconds,
        "warm_seconds": warm_seconds,
        "cold_cell_ms": cold_seconds / num_cells * 1e3,
        "warm_cell_ms": warm_seconds / num_cells * 1e3,
        "warm_speedup": cold_seconds / warm_seconds,
        "warming_speedup": cold_seconds / warming_seconds,
        "unique_profiles": len(grid),
        "profiles_after_warming": profiles_after_warming,
        "stage_cache": cache.stats(),
        "peaks_byte_identical": cold_peaks == warming_peaks == warm_peaks,
        "peak_bytes": {
            "/".join(map(str, cell)): peak
            for cell, peak in sorted(cold_peaks.items())
        },
    }


def _check(report: dict) -> None:
    assert report["peaks_byte_identical"], (
        "stage-cached peaks diverged from the cold pipeline"
    )
    assert report["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm stage-cache sweep only {report['warm_speedup']:.2f}x "
        f"faster than the cold pipeline (need >= {MIN_WARM_SPEEDUP}x)"
    )
    # the shared cache profiles each unique workload exactly once, and the
    # measured warm pass adds no profile at all
    profiles = report["unique_profiles"]
    assert report["profiles_after_warming"] == profiles
    assert report["stage_cache"]["traces"]["misses"] == profiles


def _write(report: dict) -> None:
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def test_pipeline_stage_caching(capsys):
    report = run_pipeline_bench(quick=True)
    _write(report)
    emit("pipeline_stages", json.dumps(report, indent=2), capsys)
    _check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    bench_report = run_pipeline_bench(quick=args.quick)
    _write(bench_report)
    _check(bench_report)
    emit("pipeline_stages", json.dumps(bench_report, indent=2))
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
