"""Workload grids of the paper's evaluation (§4.1.2).

* CNN models pair with SGD / Adam / AdamW / RMSprop / Adagrad and batch
  sizes 200-700 (step 100).
* Transformer models pair with SGD / Adafactor / Adam / AdamW and batch
  sizes 5-55 (step 5); the higher-parameter models (Qwen3, Pythia) use
  batch sizes 1-8 (step 1).
* Monte Carlo runs additionally randomize the ``zero_grad`` placement and
  the target GPU.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from ..models.registry import list_models
from ..workload import EVAL_DEVICES, POS0, POS1, DeviceSpec, WorkloadConfig

CNN_OPTIMIZERS: tuple[str, ...] = ("sgd", "adam", "adamw", "rmsprop", "adagrad")
TRANSFORMER_OPTIMIZERS: tuple[str, ...] = ("sgd", "adafactor", "adam", "adamw")

CNN_BATCH_SIZES: tuple[int, ...] = tuple(range(200, 701, 100))
TRANSFORMER_BATCH_SIZES: tuple[int, ...] = tuple(range(5, 56, 5))
SMALL_BATCH_SIZES: tuple[int, ...] = tuple(range(1, 9))

#: Models whose parameter counts force the small batch grid (§4.1.2).
SMALL_BATCH_MODELS: frozenset[str] = frozenset({"Qwen3-0.6B", "pythia-1b"})

#: RQ5 uses only the memory-frugal optimizers so every run fits (§4.1.2).
RQ5_OPTIMIZERS: tuple[str, ...] = ("sgd", "adafactor")


def batch_sizes_for(model: str, family: str) -> tuple[int, ...]:
    if model in SMALL_BATCH_MODELS:
        return SMALL_BATCH_SIZES
    if family == "cnn":
        return CNN_BATCH_SIZES
    return TRANSFORMER_BATCH_SIZES


def optimizers_for(family: str) -> tuple[str, ...]:
    return CNN_OPTIMIZERS if family == "cnn" else TRANSFORMER_OPTIMIZERS


def anova_grid(
    families: Sequence[str] = ("cnn", "transformer"),
    models: Sequence[str] | None = None,
    max_batches_per_model: int | None = None,
    max_optimizers: int | None = None,
) -> list[WorkloadConfig]:
    """The systematic (full-factorial) configuration grid.

    ``max_batches_per_model`` / ``max_optimizers`` subsample the grid
    evenly for scaled-down runs; ``None`` reproduces the paper's full grid.
    """
    configs: list[WorkloadConfig] = []
    for spec in list_models():
        if spec.family not in families:
            continue
        if models is not None and spec.name not in models:
            continue
        optimizers = optimizers_for(spec.family)
        if max_optimizers is not None:
            optimizers = _thin(optimizers, max_optimizers)
        batches = batch_sizes_for(spec.name, spec.family)
        if max_batches_per_model is not None:
            batches = _thin(batches, max_batches_per_model)
        for optimizer in optimizers:
            for batch in batches:
                configs.append(WorkloadConfig(spec.name, optimizer, batch))
    return configs


def monte_carlo_samples(
    num_samples: int,
    seed: int = 0,
    devices: Sequence[DeviceSpec] = EVAL_DEVICES,
    families: Sequence[str] = ("cnn", "transformer"),
) -> Iterator[tuple[WorkloadConfig, DeviceSpec]]:
    """Randomly drawn (configuration, device) pairs (§4.1.4 setting 2).

    The draw covers all models/optimizers/batch sizes of the grids plus
    both ``zero_grad`` placements — the code-structure variation Fig. 1
    motivates.
    """
    rng = random.Random(seed)
    specs = [s for s in list_models() if s.family in families]
    for _ in range(num_samples):
        spec = rng.choice(specs)
        optimizer = rng.choice(optimizers_for(spec.family))
        batch = rng.choice(batch_sizes_for(spec.name, spec.family))
        position = rng.choice((POS0, POS1))
        device = rng.choice(list(devices))
        yield (
            WorkloadConfig(
                spec.name, optimizer, batch, zero_grad_position=position
            ),
            device,
        )


def rq5_grid() -> list[WorkloadConfig]:
    """RQ5: the three large models, batch size 1, SGD/Adafactor."""
    from ..models.registry import rq5_models

    return [
        WorkloadConfig(spec.name, optimizer, 1)
        for spec in rq5_models()
        for optimizer in RQ5_OPTIMIZERS
    ]


def _thin(values: Sequence, keep: int) -> tuple:
    if keep >= len(values):
        return tuple(values)
    if keep <= 0:
        return ()
    stride = max(1, len(values) // keep)
    thinned = list(values[::stride])[:keep]
    return tuple(thinned)
