"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, printing the
same rows/series the paper reports and saving them under
``benchmarks/results/``.  The ``XMEM_BENCH_SCALE`` environment variable
controls experiment size:

* ``smoke``  (default) — minutes, reduced grids, CI-friendly;
* ``small``  — a denser subsample;
* ``full``   — the paper's full grids (thousands of runs; hours).
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: per-scale knobs: (anova scale name, monte carlo samples, mc seed)
_SCALES = {
    "smoke": ("smoke", 16, 0),
    "small": ("small", 60, 0),
    "full": ("full", 1306, 0),
}


def bench_scale() -> str:
    scale = os.environ.get("XMEM_BENCH_SCALE", "smoke")
    if scale not in _SCALES:
        raise ValueError(
            f"XMEM_BENCH_SCALE={scale!r}; choose from {sorted(_SCALES)}"
        )
    return scale


def anova_scale() -> str:
    return _SCALES[bench_scale()][0]


def monte_carlo_samples() -> int:
    return _SCALES[bench_scale()][1]


def waves_of(workloads, waves: int, scenario: str = "warm"):
    """``waves`` waves, each the same workloads once (on the RTX 3060):
    unique fingerprints within a wave, repeats across waves — the trace
    shape whose ledger decision sequence is a cross-driver invariant."""
    # imported here: the paper-figure benches share this module and do
    # not load the service
    from repro.service import TrafficRequest, TrafficTrace
    from repro.workload import RTX_3060

    return TrafficTrace(
        scenario=scenario,
        seed=0,
        requests=tuple(
            TrafficRequest(workload=workload, device=RTX_3060, wave=wave)
            for wave in range(waves)
            for workload in workloads
        ),
    )


def best_of(rounds: int, measure) -> float:
    """The largest of ``rounds`` calls of ``measure()`` — the one timing
    loop of the driver races: a best-of smooths scheduler noise without
    hiding a real regression."""
    return max(measure() for _ in range(rounds))


def emit(name: str, text: str, capsys=None) -> None:
    """Print a report block (bypassing capture) and persist it."""
    banner = f"\n=== {name} (scale={bench_scale()}) ===\n"
    payload = banner + text + "\n"
    if capsys is not None:
        with capsys.disabled():
            print(payload)
    else:  # pragma: no cover - direct invocation
        print(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(payload)
