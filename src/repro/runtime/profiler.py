"""CPU profiling entry point: run a few iterations, return the trace.

This substitutes for ``torch.profiler.profile(...)`` around the first
iterations of the user's training script (paper §3.1): the job runs on the
CPU backend, the profiler records operator spans, loop annotations, and
memory instant events, and — crucially — the job never needs to proceed
past those iterations.
"""

from __future__ import annotations

from typing import Optional

from ..framework.module import Module
from ..framework.optim import make_optimizer
from ..framework.optim.base import Optimizer
from ..models.registry import ModelSpec, get_model_spec
from ..trace.builder import TraceBuilder
from ..trace.reader import Trace
from .backend import CpuBackend
from .engine import TrainingEngine
from .loop import DEFAULT_PROFILE_ITERATIONS, TrainLoopConfig
from .sink import CpuProfilingSink


def profile_on_cpu(
    model_name: str | ModelSpec,
    batch_size: int,
    optimizer: str | Optimizer = "adam",
    loop: Optional[TrainLoopConfig] = None,
    iterations: int = DEFAULT_PROFILE_ITERATIONS,
    model: Optional[Module] = None,
) -> Trace:
    """Profile ``iterations`` training iterations of a workload on the CPU.

    Returns a :class:`~repro.trace.reader.Trace` with the four event
    categories the Analyzer consumes.  ``model`` overrides the registry
    builder (useful for custom architectures).
    """
    spec = (
        model_name
        if isinstance(model_name, ModelSpec)
        else get_model_spec(model_name)
    )
    if isinstance(optimizer, str):
        optimizer = make_optimizer(optimizer)
    loop = loop or TrainLoopConfig(iterations=iterations)
    if loop.iterations != iterations:
        loop = TrainLoopConfig(
            iterations=iterations,
            zero_grad_position=loop.zero_grad_position,
            set_to_none=loop.set_to_none,
        )
    built_model = model if model is not None else spec.build()
    builder = TraceBuilder(
        metadata={
            "model": spec.name,
            "family": spec.family,
            "batch_size": batch_size,
            "optimizer": optimizer.name,
            "iterations": iterations,
            "zero_grad_position": loop.zero_grad_position,
            "set_to_none": loop.set_to_none,
            "backend": "cpu",
        }
    )
    sink = CpuProfilingSink(builder)
    engine = TrainingEngine(
        model=built_model,
        input_meta=spec.input_meta(batch_size),
        label_meta=spec.label_meta(batch_size),
        optimizer=optimizer,
        backend=CpuBackend(),
        sink=sink,
        loop=loop,
        tracer=builder,
    )
    result = engine.run()
    if result.oom:  # pragma: no cover - the CPU sink cannot OOM
        raise RuntimeError("CPU profiling run reported OOM")
    return builder.finish()
