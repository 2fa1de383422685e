"""Benchmark regression gate: BENCH_pipeline.json vs. the checked-in baseline.

The stage-cache benchmark (:mod:`bench_pipeline_stages`) already asserts
*invariants* (warm >= 3x cold, byte-identical peaks); this gate asserts
*non-regression* against a committed reference, so a PR that quietly
halves the stage-cache win — without dipping below the absolute floor —
still fails CI.

Compared metrics (from the report both runs write):

* ``warm_speedup``   — cold/warm wall-clock ratio; **higher is better**.
  Hardware-neutral: both sides of the ratio ran on the same machine.
* ``warm_cell_ms``   — absolute warm per-cell latency; **lower is
  better**.  Hardware-sensitive: expect to retune the tolerance (or the
  baseline) when the CI runner generation changes.
* ``cold_cell_ms``   — absolute cold per-cell latency (the full
  profile -> analyze -> orchestrate -> simulate chain); **lower is
  better**, hardware-sensitive like ``warm_cell_ms``.  The only gate on
  the cold path: the ratio above *improves* when the cold chain slows.

A metric regresses when it is worse than the baseline by more than the
tolerance (default +/-30%, ``--tolerance`` / per-metric ``--override``).
Improvements never fail the gate — refresh the baseline to bank them.

Always writes a trend artifact (``BENCH_pipeline.trend.json``): baseline
vs. current vs. relative delta per metric, plus the verdict — CI uploads
it on success *and* failure, so a regression comes with its numbers.

Exit codes: 0 ok, 1 regression, 2 missing/incomparable inputs.

Usage::

    python benchmarks/check_regression.py \
        [--preset pipeline|artifacts] \
        [--current BENCH_pipeline.json] \
        [--baseline benchmarks/baselines/BENCH_pipeline.baseline.json] \
        [--tolerance 0.30] [--override warm_cell_ms=0.60] \
        [--trend-out BENCH_pipeline.trend.json]

``--preset`` picks the metric set *and* the default report/baseline/
trend paths, so the artifact-store lane is one flag:
``--preset artifacts`` gates ``BENCH_artifacts.json`` on
``store_speedup`` / ``store_cell_ms``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

#: metric -> direction ("higher" / "lower" is better) — the default
#: (pipeline) preset; kept at module level for the gate's own tests
METRICS = {
    "warm_speedup": "higher",
    "warm_cell_ms": "lower",
    "cold_cell_ms": "lower",
}

#: preset -> (metrics, report basename); the basename derives the
#: default --current (repo root), --baseline (benchmarks/baselines/) and
#: --trend-out paths
METRIC_PRESETS = {
    "pipeline": (METRICS, "BENCH_pipeline"),
    "artifacts": (
        {
            "store_speedup": "higher",
            "store_cell_ms": "lower",
        },
        "BENCH_artifacts",
    ),
    "control": (
        {
            # well-behaved p99 under the hostile flood vs. solo, as a
            # ratio — hardware-neutral (both sides ran on this machine)
            "well_p99_ratio": "lower",
            # fraction of the hostile flood absorbed by its own quota
            "hostile_shed_fraction": "higher",
            # absolute cost of one ControlPlane.admit decision
            "admission_overhead_us": "lower",
        },
        "BENCH_control",
    ),
}

DEFAULT_CURRENT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_BASELINE = BASELINES / "BENCH_pipeline.baseline.json"
DEFAULT_TREND = REPO_ROOT / "BENCH_pipeline.trend.json"


def parse_overrides(
    pairs: list[str], metrics: dict | None = None
) -> dict[str, float]:
    metrics = METRICS if metrics is None else metrics
    overrides = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if name not in metrics:
            print(
                f"error: unknown metric {name!r}; known: {sorted(metrics)}",
                file=sys.stderr,
            )
            raise SystemExit(2)  # bad input, not a benchmark regression
        try:
            overrides[name] = float(value)
        except ValueError:
            print(
                f"error: --override wants NAME=FLOAT, got {pair!r}",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    return overrides


def compare(
    baseline: dict,
    current: dict,
    tolerance: float,
    overrides: dict,
    metrics: dict | None = None,
) -> dict:
    """Per-metric verdicts + the overall one (pure, tested directly)."""
    metrics = METRICS if metrics is None else metrics
    rows = {}
    regressions = []
    for metric, direction in metrics.items():
        base = baseline.get(metric)
        now = current.get(metric)
        tol = overrides.get(metric, tolerance)
        row = {
            "baseline": base,
            "current": now,
            "direction": direction,
            "tolerance": tol,
        }
        if base is None or now is None or base == 0:
            row["verdict"] = "not-comparable"
        else:
            delta = (now - base) / base
            row["delta"] = delta
            if direction == "higher":
                regressed = now < base * (1 - tol)
            else:
                regressed = now > base * (1 + tol)
            row["verdict"] = "regression" if regressed else "ok"
            if regressed:
                regressions.append(metric)
        rows[metric] = row
    return {
        "metrics": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # validated by hand below, not argparse choices=: an unknown preset
    # must exit 2 with the valid names on stderr (the same contract as
    # a missing report file), not argparse's usage dump
    parser.add_argument(
        "--preset", default="pipeline",
        help="metric set + default paths "
        f"(one of {', '.join(sorted(METRIC_PRESETS))}; default: pipeline)",
    )
    parser.add_argument("--current", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed relative worsening per metric (default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--override", action="append", default=[], metavar="METRIC=TOL",
        help="per-metric tolerance override, repeatable "
        "(e.g. warm_cell_ms=0.60 for a noisier hosted runner)",
    )
    parser.add_argument("--trend-out", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.preset not in METRIC_PRESETS:
        print(
            f"error: unknown preset {args.preset!r}; "
            f"valid presets: {', '.join(sorted(METRIC_PRESETS))}",
            file=sys.stderr,
        )
        return 2
    metrics, basename = METRIC_PRESETS[args.preset]
    if args.current is None:
        args.current = REPO_ROOT / f"{basename}.json"
    if args.baseline is None:
        args.baseline = BASELINES / f"{basename}.baseline.json"
    if args.trend_out is None:
        args.trend_out = REPO_ROOT / f"{basename}.trend.json"

    for path, what in ((args.current, "current"), (args.baseline, "baseline")):
        if not path.exists():
            print(f"error: {what} report {path} not found", file=sys.stderr)
            return 2
    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())

    verdict = compare(
        baseline,
        current,
        args.tolerance,
        parse_overrides(args.override, metrics),
        metrics,
    )
    comparable = current.get("quick") == baseline.get("quick") and (
        current.get("grid") == baseline.get("grid")
    )
    if not comparable:
        # runs over different work (a --quick run against a full-grid
        # baseline, or an edited quick grid against a stale baseline)
        # measure nothing comparable; gate nothing, but say so loudly in
        # the artifact so the baseline gets refreshed
        verdict["ok"] = True
        verdict["regressions"] = []
        verdict["skipped"] = (
            f"grid mismatch: current quick={current.get('quick')} "
            f"grid={current.get('grid')} vs baseline "
            f"quick={baseline.get('quick')} grid={baseline.get('grid')} "
            f"— not comparable; refresh the baseline"
        )

    trend = {
        "baseline_grid": baseline.get("grid"),
        "current_grid": current.get("grid"),
        **verdict,
    }
    args.trend_out.write_text(json.dumps(trend, indent=2) + "\n")

    for metric, row in verdict["metrics"].items():
        delta = row.get("delta")
        print(
            f"{metric:<14} baseline={row['baseline']!r:<10} "
            f"current={row['current']!r:<10} "
            f"delta={'n/a' if delta is None else f'{delta:+.1%}'} "
            f"[{row['verdict']}]"
        )
    if verdict.get("skipped"):
        print(f"gate skipped: {verdict['skipped']}")
        return 0
    if not verdict["ok"]:
        # name every tripped metric with its numbers: a red CI lane must
        # say *what* regressed, not just that something did
        for metric in verdict["regressions"]:
            row = verdict["metrics"][metric]
            worse = "below" if row["direction"] == "higher" else "above"
            print(
                f"REGRESSION: {metric} ({row['direction']}-is-better) "
                f"went from {row['baseline']:.4g} to {row['current']:.4g} "
                f"({row['delta']:+.1%}), {worse} the "
                f"{row['tolerance']:.0%} tolerance band",
                file=sys.stderr,
            )
        print(
            f"REGRESSION: {', '.join(verdict['regressions'])} worse than "
            f"baseline beyond tolerance (trend written to {args.trend_out})",
            file=sys.stderr,
        )
        return 1
    print(f"benchmark within tolerance (trend written to {args.trend_out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
