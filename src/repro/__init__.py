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
    "AllocatorConfig": ".allocator.constants",
    "CachingAllocator": ".allocator.caching",
    "DeviceAllocator": ".allocator.device",
    "DNNMemEstimator": ".baselines.dnnmem",
    "LLMemEstimator": ".baselines.llmem",
    "SchedTuneEstimator": ".baselines.schedtune",
    "Analyzer": ".core.analyzer",
    "EstimationPipeline": ".core.pipeline",
    "EstimationResult": ".core.result",
    "MemoryOrchestrator": ".core.orchestrator",
    "MemorySimulator": ".core.simulator",
    "PipelineCache": ".core.pipeline",
    "XMemEstimator": ".core.estimator",
    "ReproError": ".errors",
    "SimOutOfMemoryError": ".errors",
    "get_model_spec": ".models.registry",
    "list_models": ".models.registry",
    "TrainLoopConfig": ".runtime.loop",
    "profile_on_cpu": ".runtime.profiler",
    "run_gpu_ground_truth": ".runtime.ground_truth",
    "EstimateCache": ".service.cache",
    "EstimationService": ".service.engine",
    "ServiceMetrics": ".service.metrics",
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

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
