"""Figure 6: simulated vs real segment usage over one training run.

The paper validates its allocator simulator by overlaying the xMem-
simulated segment curve on the PyTorch-snapshot-measured curve for three
models.  Here the "real" curve comes from the simulated-GPU execution and
the "simulated" curve from the xMem replay of the CPU trace; the
comparison metrics are the peak gap and the mean absolute curve gap.
"""

from __future__ import annotations

from repro.core.estimator import XMemEstimator
from repro.core.verify import compare_curves
from repro.runtime.ground_truth import run_gpu_ground_truth
from repro.units import GB
from repro.workload import RTX_3060, WorkloadConfig

from _common import bench_scale, emit

MODELS = {
    "smoke": [("distilgpt2", 8)],
    "small": [("distilgpt2", 8), ("gpt-neo-125M", 8)],
    "full": [("distilgpt2", 16), ("gpt-neo-125M", 16), ("ConvNeXtBase", 200)],
}


def test_fig6_simulator_fidelity(benchmark, capsys):
    rows = [
        f"{'model':<16}{'real peak':>11}{'sim peak':>11}{'peak gap':>10}"
        f"{'mean curve gap':>16}"
    ]
    for model, batch in MODELS[bench_scale()]:
        workload = WorkloadConfig(model, "adamw", batch)
        truth = run_gpu_ground_truth(
            model, batch, "adamw",
            capacity_bytes=RTX_3060.job_budget(), seed=4, iterations=3,
        )
        estimate = XMemEstimator().estimate(workload, RTX_3060)
        assert estimate.curve is not None
        peak_gap = abs(
            estimate.peak_bytes - truth.peak_reserved_bytes
        ) / truth.peak_reserved_bytes
        curve_gap = compare_curves(
            truth.timeline, estimate.curve, samples=200
        ).mean_abs_gap
        rows.append(
            f"{model:<16}{truth.peak_reserved_bytes / GB:>10.2f}G"
            f"{estimate.peak_bytes / GB:>10.2f}G"
            f"{peak_gap * 100:>9.1f}%"
            f"{curve_gap / GB:>14.3f}G"
        )
        assert peak_gap < 0.15  # the curves must track each other
    emit("fig6_fidelity", "\n".join(rows), capsys)

    model, batch = MODELS[bench_scale()][0]
    workload = WorkloadConfig(model, "adamw", batch)
    benchmark(lambda: XMemEstimator().estimate(workload, RTX_3060))
