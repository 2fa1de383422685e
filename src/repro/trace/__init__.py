"""Profiler trace model: events, JSON schema, builder, reader (paper §3.2)."""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "TraceBuilder": ".builder",
    "DATALOADER_NEXT": ".events",
    "MODEL_TO_DEVICE": ".events",
    "OPTIMIZER_STEP_PREFIX": ".events",
    "PROFILER_STEP_PREFIX": ".events",
    "ZERO_GRAD_PREFIX": ".events",
    "EventCategory": ".events",
    "MemoryColumns": ".events",
    "MemoryEvent": ".events",
    "SpanColumns": ".events",
    "SpanEvent": ".events",
    "is_dataloader_next": ".events",
    "is_optimizer_step": ".events",
    "is_profiler_step": ".events",
    "is_zero_grad": ".events",
    "KinetoImportReport": ".kineto",
    "import_kineto": ".kineto",
    "load_kineto_file": ".kineto",
    "Trace": ".reader",
    "SCHEMA_VERSION": ".schema",
    "dump_trace_file": ".schema",
    "load_trace_file": ".schema",
    "trace_from_json": ".schema",
    "trace_to_json": ".schema",
    "TraceSummary": ".stats",
    "summarize_trace": ".stats",
}

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

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
