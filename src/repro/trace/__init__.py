"""Profiler trace model: events, JSON schema, builder, reader (paper §3.2)."""

from .builder import TraceBuilder
from .kineto import KinetoImportReport, import_kineto, load_kineto_file
from .events import (
    DATALOADER_NEXT,
    MODEL_TO_DEVICE,
    OPTIMIZER_STEP_PREFIX,
    PROFILER_STEP_PREFIX,
    ZERO_GRAD_PREFIX,
    EventCategory,
    MemoryColumns,
    MemoryEvent,
    SpanColumns,
    SpanEvent,
    is_dataloader_next,
    is_optimizer_step,
    is_profiler_step,
    is_zero_grad,
)
from .reader import Trace
from .schema import (
    SCHEMA_VERSION,
    dump_trace_file,
    load_trace_file,
    trace_from_json,
    trace_to_json,
)
from .stats import TraceSummary, summarize_trace

__all__ = [
    "DATALOADER_NEXT",
    "KinetoImportReport",
    "import_kineto",
    "load_kineto_file",
    "EventCategory",
    "MODEL_TO_DEVICE",
    "MemoryColumns",
    "MemoryEvent",
    "OPTIMIZER_STEP_PREFIX",
    "PROFILER_STEP_PREFIX",
    "SCHEMA_VERSION",
    "SpanColumns",
    "SpanEvent",
    "Trace",
    "TraceBuilder",
    "TraceSummary",
    "ZERO_GRAD_PREFIX",
    "dump_trace_file",
    "is_dataloader_next",
    "is_optimizer_step",
    "is_profiler_step",
    "is_zero_grad",
    "load_trace_file",
    "summarize_trace",
    "trace_from_json",
    "trace_to_json",
]
