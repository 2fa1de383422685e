"""The xMem pipeline: Analyzer -> Memory Orchestrator -> Memory Simulator."""

from .analyzer import AnalyzedTrace, Analyzer
from .artifacts import ArtifactStore, open_artifact_store
from .base import Estimator
from .attribution import AttributedBlock, attribute_blocks, operator_filter
from .estimator import XMemEstimator
from .report import render_report
from .precision import PrecisionPlan, estimate_precision_peak, rescale_sequence
from .verify import CurveFidelity, SnapshotDiff, compare_curves, diff_snapshots
from .lifecycle import (
    LifecycleReport,
    MemoryBlock,
    peak_live_bytes,
    reconstruct_lifecycles,
)
from .orchestrator import (
    DEFAULT_RULES,
    BatchDataRule,
    EventKind,
    GradientRule,
    MemoryOp,
    MemoryOrchestrator,
    OptimizerStateRule,
    OrchestratedSequence,
    OrchestrationRule,
    ParameterRule,
    raw_sequence,
    sequence_fingerprint,
)
from .pipeline import (
    STAGES,
    EstimationPipeline,
    PipelineCache,
    PipelineRun,
    SimulateRow,
    trace_fingerprint,
)
from .result import EstimationResult
from .simulator import MemorySimulator, SimulationResult

__all__ = [
    "AnalyzedTrace",
    "ArtifactStore",
    "CurveFidelity",
    "PrecisionPlan",
    "SnapshotDiff",
    "compare_curves",
    "diff_snapshots",
    "estimate_precision_peak",
    "render_report",
    "rescale_sequence",
    "Analyzer",
    "AttributedBlock",
    "BatchDataRule",
    "DEFAULT_RULES",
    "EstimationPipeline",
    "EstimationResult",
    "Estimator",
    "EventKind",
    "PipelineCache",
    "PipelineRun",
    "SimulateRow",
    "STAGES",
    "trace_fingerprint",
    "GradientRule",
    "LifecycleReport",
    "MemoryBlock",
    "MemoryOp",
    "MemoryOrchestrator",
    "MemorySimulator",
    "OptimizerStateRule",
    "OrchestratedSequence",
    "OrchestrationRule",
    "ParameterRule",
    "SimulationResult",
    "XMemEstimator",
    "attribute_blocks",
    "open_artifact_store",
    "operator_filter",
    "peak_live_bytes",
    "raw_sequence",
    "reconstruct_lifecycles",
    "sequence_fingerprint",
]
