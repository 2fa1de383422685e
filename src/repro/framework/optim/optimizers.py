"""Concrete optimizer memory models (the paper's Table 2 optimizer set)."""

from __future__ import annotations

from ..tensor import TensorMeta
from .base import Optimizer


class SGD(Optimizer):
    """SGD; with momentum it keeps one buffer per parameter, without it the
    paper's "minimal overhead" case (§3.3 rule 5)."""

    name = "SGD"

    def __init__(self, momentum: float = 0.0):
        self.momentum = momentum

    @property
    def stateful(self) -> bool:  # type: ignore[override]
        return self.momentum != 0.0

    def state_tensors(self, param: TensorMeta) -> list[tuple[str, TensorMeta]]:
        if self.momentum == 0.0:
            return []
        return [("momentum_buffer", param)]

    def step_workspace_bytes(self, param: TensorMeta) -> int:
        return 0


class Adam(Optimizer):
    """Adam: exp_avg + exp_avg_sq per parameter (2x parameter memory)."""

    name = "Adam"
    stateful = True

    def state_tensors(self, param: TensorMeta) -> list[tuple[str, TensorMeta]]:
        return [("exp_avg", param), ("exp_avg_sq", param)]

    def step_workspace_bytes(self, param: TensorMeta) -> int:
        # denom = sqrt(exp_avg_sq) + eps materializes a param-sized temp
        return param.nbytes


class AdamW(Adam):
    """AdamW has Adam's memory profile (decoupled weight decay is free)."""

    name = "AdamW"


class RMSprop(Optimizer):
    """RMSprop: one square_avg buffer per parameter."""

    name = "RMSprop"
    stateful = True

    def state_tensors(self, param: TensorMeta) -> list[tuple[str, TensorMeta]]:
        return [("square_avg", param)]

    def step_workspace_bytes(self, param: TensorMeta) -> int:
        return param.nbytes


class Adagrad(Optimizer):
    """Adagrad: one accumulated squared-gradient buffer per parameter."""

    name = "Adagrad"
    stateful = True

    def state_tensors(self, param: TensorMeta) -> list[tuple[str, TensorMeta]]:
        return [("state_sum", param)]

    def step_workspace_bytes(self, param: TensorMeta) -> int:
        return param.nbytes


class Adafactor(Optimizer):
    """Adafactor: factored second moments for matrices (rows + cols instead
    of rows x cols), full state only for vectors — the memory-frugal choice
    used in the paper's RQ5 large-model runs."""

    name = "Adafactor"
    stateful = True

    def state_tensors(self, param: TensorMeta) -> list[tuple[str, TensorMeta]]:
        if param.ndim >= 2:
            rows = param.numel // param.shape[-1]
            cols = param.shape[-1]
            return [
                ("exp_avg_sq_row", TensorMeta((rows,), dtype=param.dtype)),
                ("exp_avg_sq_col", TensorMeta((cols,), dtype=param.dtype)),
            ]
        return [("exp_avg_sq", param)]

    def step_workspace_bytes(self, param: TensorMeta) -> int:
        # reconstructing the factored second moment materializes one
        # param-sized temp
        return param.nbytes


_OPTIMIZERS = {
    "sgd": lambda: SGD(momentum=0.0),
    "sgd_momentum": lambda: SGD(momentum=0.9),
    "adam": Adam,
    "adamw": AdamW,
    "rmsprop": RMSprop,
    "adagrad": Adagrad,
    "adafactor": Adafactor,
}


def make_optimizer(kind: str) -> Optimizer:
    """Instantiate an optimizer memory model by name."""
    try:
        factory = _OPTIMIZERS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {kind!r}; known: {sorted(_OPTIMIZERS)}"
        ) from None
    return factory()


def optimizer_names() -> list[str]:
    return sorted(_OPTIMIZERS)


def is_optimizer(kind: str) -> bool:
    """Whether ``kind`` (any case) names a registered optimizer."""
    return kind.lower() in _OPTIMIZERS
