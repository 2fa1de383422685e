"""xMem reproduction: CPU-based a-priori estimation of peak GPU memory for
deep-learning training workloads (Shi, Pezaros, Elkhatib — Middleware '25).

Quickstart::

    from repro import XMemEstimator, WorkloadConfig, RTX_3060

    workload = WorkloadConfig(model="gpt2", optimizer="adamw", batch_size=8)
    result = XMemEstimator().estimate(workload, RTX_3060)
    print(result.summary())

Package layout:

* :mod:`repro.core` — the xMem pipeline (Analyzer, Orchestrator, Simulator)
* :mod:`repro.allocator` — the two-level CUDACachingAllocator simulation
* :mod:`repro.framework` / :mod:`repro.models` — the symbolic DL framework
  and the 25-model zoo of the paper's Table 2
* :mod:`repro.runtime` — CPU profiling and simulated-GPU ground truth
* :mod:`repro.baselines` — DNNMem, SchedTune, LLMem
* :mod:`repro.eval` — metrics (Eqs. 1-8), two-round validation, experiments
* :mod:`repro.cluster` — a scheduler consuming estimates (downstream demo)
* :mod:`repro.service` — the estimation service: middleware chain,
  fingerprint cache, concurrent request engine
"""

from ._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "AllocatorConfig": ".allocator",
    "CachingAllocator": ".allocator",
    "DeviceAllocator": ".allocator",
    "DNNMemEstimator": ".baselines",
    "LLMemEstimator": ".baselines",
    "SchedTuneEstimator": ".baselines",
    "Analyzer": ".core",
    "EstimationPipeline": ".core",
    "EstimationResult": ".core",
    "MemoryOrchestrator": ".core",
    "MemorySimulator": ".core",
    "PipelineCache": ".core",
    "XMemEstimator": ".core",
    "ReproError": ".errors",
    "SimOutOfMemoryError": ".errors",
    "get_model_spec": ".models",
    "list_models": ".models",
    "TrainLoopConfig": ".runtime",
    "profile_on_cpu": ".runtime",
    "run_gpu_ground_truth": ".runtime",
    "EstimateCache": ".service",
    "EstimationService": ".service",
    "ServiceMetrics": ".service",
    "GB": ".units",
    "GiB": ".units",
    "KiB": ".units",
    "MB": ".units",
    "MiB": ".units",
    "format_bytes": ".units",
    "format_gb": ".units",
    "A100_40GB": ".workload",
    "EVAL_DEVICES": ".workload",
    "RTX_3060": ".workload",
    "RTX_4060": ".workload",
    "DeviceSpec": ".workload",
    "WorkloadConfig": ".workload",
}

__version__ = "1.0.0"

__all__ = [
    "A100_40GB",
    "AllocatorConfig",
    "Analyzer",
    "CachingAllocator",
    "DNNMemEstimator",
    "DeviceAllocator",
    "DeviceSpec",
    "EVAL_DEVICES",
    "EstimateCache",
    "EstimationPipeline",
    "EstimationResult",
    "EstimationService",
    "GB",
    "GiB",
    "KiB",
    "LLMemEstimator",
    "MB",
    "MemoryOrchestrator",
    "MemorySimulator",
    "MiB",
    "PipelineCache",
    "RTX_3060",
    "RTX_4060",
    "ReproError",
    "SchedTuneEstimator",
    "ServiceMetrics",
    "SimOutOfMemoryError",
    "TrainLoopConfig",
    "WorkloadConfig",
    "XMemEstimator",
    "__version__",
    "format_bytes",
    "format_gb",
    "get_model_spec",
    "list_models",
    "profile_on_cpu",
    "run_gpu_ground_truth",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
