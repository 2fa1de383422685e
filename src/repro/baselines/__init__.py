"""Baseline estimators: DNNMem (static), SchedTune (ML), LLMem (GPU probe)."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "Estimator": ".base",
    "DNNMemEstimator": ".dnnmem",
    "LLMemEstimator": ".llmem",
    "HistoryRecord": ".schedtune",
    "SchedTuneEstimator": ".schedtune",
}

__all__ = [
    "DNNMemEstimator",
    "Estimator",
    "HistoryRecord",
    "LLMemEstimator",
    "SchedTuneEstimator",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
