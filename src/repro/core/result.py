"""Estimation results — the common output type of every estimator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..allocator.stats import TimelineRecorder
from ..units import format_gb
from ..workload import DeviceSpec, WorkloadConfig


@dataclass(frozen=True, slots=True)
class EstimationResult:
    """One estimator's answer for one workload on one device.

    A result and its mappings (``detail``, ``stage_cached``,
    ``stage_sources``, ``stage_seconds``) are shared: the result cache
    hands one result to every hit, and the answers of one cached cell
    share its ``detail`` report and provenance maps.  Treat them as
    read-only; copy before changing one.
    """

    estimator: str
    workload: WorkloadConfig
    device: DeviceSpec
    #: estimated peak job memory \hat{M}^{peak} (bytes); 0 when unsupported
    peak_bytes: int
    #: wall-clock seconds the estimation took (the paper's RQ4 runtime)
    runtime_seconds: float
    #: False when the estimator does not support this workload (e.g.
    #: LLMem on CNNs) — excluded from metrics like the paper's N/A cells
    supported: bool = True
    #: optional memory-usage curve over (virtual) time
    curve: Optional[TimelineRecorder] = None
    #: free-form diagnostics (role byte breakdown, rule hit counts, ...)
    detail: dict[str, Any] = field(default_factory=dict)
    #: wall-clock seconds per pipeline stage (profile/analyze/orchestrate/
    #: simulate) for estimators that expose staged execution; excluded
    #: from equality so cached replays stay byte-identical to cold runs
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    #: which stages were served from an intermediate-artifact cache
    stage_cached: dict[str, bool] = field(default_factory=dict, compare=False)
    #: where each stage's artifact came from: "memory" (in-process cache),
    #: "store" (persistent artifact store), or "compute" (built this call)
    stage_sources: dict[str, str] = field(default_factory=dict, compare=False)

    def predicts_oom(self) -> bool:
        r"""Eq. (1): \hat{OOM} = [\hat{M}^{peak} > job budget]."""
        return self.peak_bytes > self.device.job_budget()

    def summary(self) -> str:
        state = "OOM" if self.predicts_oom() else "fits"
        return (
            f"{self.estimator}: {format_gb(self.peak_bytes)} "
            f"({state} on {self.device.name}) in {self.runtime_seconds:.2f}s"
        )
