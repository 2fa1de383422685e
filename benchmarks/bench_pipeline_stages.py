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
standalone; under pytest the quick size is used.

``--artifact-store PATH`` additionally wires the persistent L2
(:mod:`repro.core.artifacts`) under both sweeps: the "cold" estimators
share one capacity-zero L1 so every cell goes to sqlite, which is what a
fresh process with a warm store looks like.  ``--expect-warm-store``
(the second CI invocation against the same path) asserts the store
actually served, and served each cell with one row: during the cold
sweep, zero profile and simulate builds, one simulate hit per cell, and
no profile, analyze or orchestrate hit at all (a simulate hit loads
nothing upstream).  Store-mode runs write to ``--output`` (default
``BENCH_pipeline.json``) — CI points the store lane at
``BENCH_pipeline_store.json`` so the plain regression gate keeps
comparing like with like.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.allocator.constants import DEFAULT_CONFIG
from repro.core.artifacts import open_artifact_store
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


def run_pipeline_bench(
    quick: bool = True, artifact_store: str | None = None
) -> dict:
    grid = _grid(quick)
    store = open_artifact_store(artifact_store) if artifact_store else None
    counters_before = store.counters() if store else {}

    # --- cold: no L1 reuse; with a store, every cell goes to sqlite ----
    if store is None:
        cold_caches = {variant: False for variant in VARIANTS}
    else:
        zero_l1 = PipelineCache(
            max_traces=0,
            max_analyses=0,
            max_sequences=0,
            max_simulations=0,
            artifact_store=store,
        )
        cold_caches = {variant: zero_l1 for variant in VARIANTS}
    cold_estimators = {
        variant: XMemEstimator(
            iterations=ITERATIONS,
            curve=False,
            stage_cache=cold_caches[variant],
            **knobs,
        )
        for variant, knobs in VARIANTS.items()
    }
    started = time.perf_counter()
    cold_peaks = _sweep(cold_estimators, grid)
    cold_seconds = time.perf_counter() - started
    counters_after_cold = store.counters() if store else {}

    # --- warm: one shared PipelineCache across every variant -----------
    cache = PipelineCache(artifact_store=store)
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
    report = {
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
    if store is not None:
        delta = {
            name: counters_after_cold.get(name, 0)
            - counters_before.get(name, 0)
            for name in (
                "build:profile",
                "hit:profile",
                "hit:analyze",
                "hit:orchestrate",
                "build:simulate",
                "hit:simulate",
            )
        }
        report["artifact_store"] = {
            "path": artifact_store,
            **{
                f"cold_{name.replace(':', '_')}_delta": value
                for name, value in delta.items()
            },
            "counters": store.counters(),
        }
    return report


def _check(report: dict, expect_warm_store: bool = False) -> None:
    assert report["peaks_byte_identical"], (
        "stage-cached peaks diverged from the cold pipeline"
    )
    store_mode = "artifact_store" in report
    if not store_mode:
        # with a store attached the "cold" side is sqlite-accelerated, so
        # the cold/warm ratio measures the L2, not the stage caches — the
        # counter assertions below are the store mode's contract
        assert report["warm_speedup"] >= MIN_WARM_SPEEDUP, (
            f"warm stage-cache sweep only {report['warm_speedup']:.2f}x "
            f"faster than the cold pipeline (need >= {MIN_WARM_SPEEDUP}x)"
        )
    # the shared cache profiles each unique workload exactly once, and the
    # measured warm pass adds no profile at all; over a store the cold
    # sweep already published every simulate row, so the warm cache never
    # consults its trace store
    profiles = 0 if store_mode else report["unique_profiles"]
    assert report["profiles_after_warming"] == profiles
    assert report["stage_cache"]["traces"]["misses"] == profiles
    if expect_warm_store:
        stats = report["artifact_store"]
        assert stats["cold_build_profile_delta"] == 0, (
            f"a warmed store still built "
            f"{stats['cold_build_profile_delta']} profiles: "
            f"{stats['counters']}"
        )
        # every cold cell is one simulate row: nothing upstream is read
        for stage in ("profile", "analyze", "orchestrate"):
            assert stats[f"cold_hit_{stage}_delta"] == 0, stats
        assert stats["cold_build_simulate_delta"] == 0, stats
        assert stats["cold_hit_simulate_delta"] == report["num_cells"], stats


def _write(report: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_pipeline_stage_caching(capsys):
    report = run_pipeline_bench(quick=True)
    _write(report)
    emit("pipeline_stages", json.dumps(report, indent=2), capsys)
    _check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--artifact-store", metavar="PATH", default=None,
        help="wire a persistent L2 store under both sweeps",
    )
    parser.add_argument(
        "--expect-warm-store", action="store_true",
        help="assert the store (not compute) served the cold sweep — "
        "use on the second run against the same --artifact-store",
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_PATH,
        help="report path (point store-mode runs away from the "
        "regression gate's BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)
    if args.expect_warm_store and not args.artifact_store:
        parser.error("--expect-warm-store requires --artifact-store")

    bench_report = run_pipeline_bench(
        quick=args.quick, artifact_store=args.artifact_store
    )
    _write(bench_report, args.output)
    _check(bench_report, expect_warm_store=args.expect_warm_store)
    emit("pipeline_stages", json.dumps(bench_report, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
