"""Shared fixtures: tiny models and cached traces keep the suite fast."""

from __future__ import annotations

import pytest

from repro.framework.layers import Conv2d, Linear, make_activation
from repro.framework.layers.activation import ReLU
from repro.framework.loss import CrossEntropyLoss
from repro.framework.module import Sequential
from repro.framework.optim import make_optimizer
from repro.framework.tensor import TensorMeta
from repro.models.registry import ModelSpec
from repro.runtime.backend import CpuBackend, GpuBackend
from repro.runtime.engine import TrainingEngine
from repro.runtime.loop import TrainLoopConfig
from repro.runtime.profiler import profile_on_cpu
from repro.runtime.sink import NullSink
from repro.trace.builder import TraceBuilder
from repro.workload import DeviceSpec


class TinyNet(Sequential):
    """A 3-layer MLP — enough structure for engine/pipeline tests."""

    def __init__(self, in_features: int = 64, hidden: int = 128, classes: int = 10):
        super().__init__(
            Linear(in_features, hidden, name="fc1"),
            ReLU(name="act1"),
            Linear(hidden, hidden, name="fc2"),
            ReLU(name="act2"),
            Linear(hidden, classes, name="fc3"),
            name="tiny",
        )


class TinyConvNet(Sequential):
    """A small CNN exercising conv workspaces and saved indices."""

    def __init__(self, channels: int = 8, classes: int = 10):
        from repro.framework.layers import Flatten, MaxPool2d

        super().__init__(
            Conv2d(3, channels, 3, padding=1, name="conv1"),
            make_activation("relu", inplace=True),
            MaxPool2d(2),
            Conv2d(channels, channels * 2, 3, padding=1, name="conv2"),
            make_activation("relu", inplace=True),
            MaxPool2d(2),
            Flatten(),
            Linear(channels * 2 * 8 * 8, classes, name="fc"),
            name="tinyconv",
        )


def tiny_spec(image_size: int = 32) -> ModelSpec:
    """A ModelSpec for TinyConvNet, usable wherever registry specs are."""
    from repro.framework.dtypes import DType

    return ModelSpec(
        name="TinyConvNet",
        family="cnn",
        build=lambda: TinyConvNet(),
        input_meta=lambda batch: TensorMeta((batch, 3, image_size, image_size)),
        label_meta=lambda batch: TensorMeta((batch,), dtype=DType.int64),
    )


@pytest.fixture
def tiny_model_spec() -> ModelSpec:
    return tiny_spec()


@pytest.fixture
def small_device() -> DeviceSpec:
    from repro.units import MiB

    return DeviceSpec(
        name="test-gpu", capacity_bytes=2048 * MiB, framework_bytes=64 * MiB
    )


def run_tiny_engine(
    loop: TrainLoopConfig | None = None,
    backend=None,
    sink=None,
    tracer: TraceBuilder | None = None,
    batch_size: int = 4,
    optimizer: str = "adam",
):
    """Drive TinyConvNet through the engine; returns (engine, result)."""
    spec = tiny_spec()
    engine = TrainingEngine(
        model=spec.build(),
        input_meta=spec.input_meta(batch_size),
        label_meta=spec.label_meta(batch_size),
        optimizer=make_optimizer(optimizer),
        backend=backend or CpuBackend(),
        sink=sink if sink is not None else NullSink(),
        loop=loop or TrainLoopConfig(iterations=2),
        tracer=tracer,
        loss=CrossEntropyLoss(),
    )
    result = engine.run()
    return engine, result


@pytest.fixture(scope="session")
def tiny_trace():
    """A 3-iteration CPU profile of TinyConvNet (session-cached)."""
    return profile_on_cpu(tiny_spec(), batch_size=4, optimizer="adam")


@pytest.fixture(scope="session")
def distilgpt2_trace():
    """A real-model trace for pipeline tests (session-cached)."""
    return profile_on_cpu("distilgpt2", batch_size=2, optimizer="adamw")


@pytest.fixture(scope="session")
def gpu_backend():
    return GpuBackend(seed=11)
