"""Training runtime: executes model plans on CPU (profiled) or GPU (truth)."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "run_gpu_ground_truth": ".ground_truth",
    "profile_on_cpu": ".profiler",
    "POS0": "..workload",
    "POS1": "..workload",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
