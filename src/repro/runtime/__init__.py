"""Training runtime: executes model plans on CPU (profiled) or GPU (truth)."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Backend": ".backend",
    "CpuBackend": ".backend",
    "ExecOp": ".backend",
    "GpuBackend": ".backend",
    "VirtualClock": ".clock",
    "RunResult": ".engine",
    "TrainingEngine": ".engine",
    "GroundTruthResult": ".ground_truth",
    "run_gpu_ground_truth": ".ground_truth",
    "DEFAULT_PROFILE_ITERATIONS": ".loop",
    "POS0": ".loop",
    "POS1": ".loop",
    "TrainLoopConfig": ".loop",
    "DEFAULT_SAMPLE_INTERVAL_US": ".nvml",
    "NvmlSample": ".nvml",
    "sample_timeline": ".nvml",
    "sampled_peak": ".nvml",
    "profile_on_cpu": ".profiler",
    "AllocationHandle": ".sink",
    "AllocatorSink": ".sink",
    "CpuProfilingSink": ".sink",
    "MemorySink": ".sink",
    "NullSink": ".sink",
}

__all__ = [
    "AllocationHandle",
    "AllocatorSink",
    "Backend",
    "CpuBackend",
    "CpuProfilingSink",
    "DEFAULT_PROFILE_ITERATIONS",
    "DEFAULT_SAMPLE_INTERVAL_US",
    "ExecOp",
    "GpuBackend",
    "GroundTruthResult",
    "MemorySink",
    "NullSink",
    "NvmlSample",
    "POS0",
    "POS1",
    "RunResult",
    "TrainLoopConfig",
    "TrainingEngine",
    "VirtualClock",
    "profile_on_cpu",
    "run_gpu_ground_truth",
    "sample_timeline",
    "sampled_peak",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
