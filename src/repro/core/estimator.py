"""The xMem estimator: the paper's contribution, end to end (Fig. 4).

``estimate`` runs the staged pipeline (:mod:`repro.core.pipeline`):
profile the first iterations of the workload on the CPU, analyse the
trace, orchestrate the memory sequence, and replay it through the
two-level allocator simulation.  The result is the estimated peak GPU
memory plus the optional usage curve — produced a priori, with zero
target-GPU involvement.

By default each estimator owns a :class:`~repro.core.pipeline.PipelineCache`
of intermediate artifacts, so repeat requests that share upstream work —
an allocator ablation over one trace, a device sweep of one workload —
only re-run the stages whose inputs actually changed.

Importing this module loads no stage code: the analyzer and orchestrator
load with the first estimator, the profiler and the allocator with the
first estimate that builds their stage (see :mod:`repro.core.pipeline`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Union

from ..allocator.constants import DEFAULT_CONFIG, AllocatorConfig
from ..runtime.loop import DEFAULT_PROFILE_ITERATIONS
from ..workload import DeviceSpec, WorkloadConfig
from .base import Estimator
from .pipeline import EstimationPipeline, PipelineCache
from .result import EstimationResult

if TYPE_CHECKING:
    from ..trace.reader import Trace


class XMemEstimator(Estimator):
    """CPU-only dynamic-analysis estimator (the paper's xMem).

    ``curve=False`` skips materializing the memory-usage curve (peaks are
    tracked in the same replay pass) — the serving stack's fast path.
    ``stage_cache`` is ``True`` (private cache), ``False`` (stage caching
    off; every call recomputes the full chain), or a shared
    :class:`PipelineCache` instance.  ``artifact_store`` (a path or an
    :class:`~repro.core.artifacts.ArtifactStore`) attaches a persistent
    cross-process L2 under the private stage cache, so repeated runs — and
    every procpool worker sharing the path — start warm; as a plain string
    it pickles through ``functools.partial`` factories unchanged
    (``partial(XMemEstimator, artifact_store=PATH)``).  A shared cache
    brings its own store (``PipelineCache(artifact_store=...)``), so
    passing both is a ``ValueError``.
    """

    name = "xMem"

    def __init__(
        self,
        iterations: int = DEFAULT_PROFILE_ITERATIONS,
        orchestrate: bool = True,
        account: str = "segment",
        two_level: bool = True,
        allocator_config: AllocatorConfig = DEFAULT_CONFIG,
        curve: bool = True,
        stage_cache: Union[PipelineCache, bool] = True,
        artifact_store=None,
    ):
        if iterations < 1:
            raise ValueError("profiling needs at least one iteration")
        self.iterations = iterations
        self.orchestrate = orchestrate
        self.account = account
        self.two_level = two_level
        self.allocator_config = allocator_config
        self.curve = curve
        # the stage code loads with the first estimator, not with this module
        from .analyzer import Analyzer
        from .orchestrator import DEFAULT_RULES, MemoryOrchestrator

        self.analyzer = Analyzer()
        self.orchestrator = MemoryOrchestrator(
            rules=DEFAULT_RULES if orchestrate else ()
        )
        if stage_cache is True:
            stage_cache = PipelineCache(artifact_store=artifact_store)
        elif artifact_store is not None:
            raise ValueError(
                "artifact_store needs the estimator's own stage cache; "
                "give a shared cache its store with "
                "PipelineCache(artifact_store=...)"
            )
        elif stage_cache is False:
            stage_cache = None
        self.stage_cache: Optional[PipelineCache] = stage_cache
        self.pipeline = EstimationPipeline(
            iterations=iterations,
            analyzer=self.analyzer,
            orchestrator=self.orchestrator,
            cache=stage_cache,
        )

    def supports(self, workload: WorkloadConfig) -> bool:
        return True  # model-agnostic by construction

    def estimate(
        self,
        workload: WorkloadConfig,
        device: DeviceSpec,
        trace: Optional[Trace] = None,
    ) -> EstimationResult:
        """Estimate the peak GPU memory of ``workload`` on ``device``.

        ``trace`` short-circuits the profiling stage when the caller
        already holds profiler output (the deployment mode in which users
        hand xMem their existing profiling artifacts).
        """
        start = time.perf_counter()
        run = self.pipeline.run(
            workload,
            trace=trace,
            allocator_config=self.allocator_config,
            two_level=self.two_level,
            curve=self.curve,
        )
        simulation = run.row.simulation
        runtime = time.perf_counter() - start
        # the row's report and the provenance maps are shared by every
        # answer of the cell: passed through, never copied
        return EstimationResult(
            estimator=self.name,
            workload=workload,
            device=device,
            peak_bytes=simulation.peak(self.account),
            runtime_seconds=runtime,
            curve=simulation.timeline if self.curve else None,
            stage_seconds=run.stage_seconds,
            stage_cached=run.stage_cached,
            stage_sources=run.stage_sources,
            detail=run.row.detail,
        )
