"""Symbolic tensors: shape/dtype metadata, no data.

xMem's input signal is the *sizes and lifetimes* of allocations, never
tensor values (paper §1 observation i), so the framework's tensors are pure
metadata.  :class:`TensorRole` labels why a tensor exists — the roles the
Memory Orchestrator reasons about in §3.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dtypes import DEFAULT_DTYPE, DType


class TensorRole(str, Enum):
    """Why a tensor is alive — the §3.3 orchestration categories."""

    PARAMETER = "parameter"
    GRADIENT = "gradient"
    ACTIVATION = "activation"
    SAVED = "saved"
    OPTIMIZER_STATE = "optimizer_state"
    BATCH_DATA = "batch_data"
    TEMPORARY = "temporary"


#: Every role by its int code, the form stage columns store; the last
#: entry is "no role", so code ``NO_ROLE`` (-1) reads back as ``None``.
ROLES: tuple[Optional[TensorRole], ...] = (*TensorRole, None)
NO_ROLE = -1
#: role (or ``None``) -> its code
ROLE_CODES: dict[Optional[TensorRole], int] = {
    role: code for code, role in enumerate(TensorRole)
} | {None: NO_ROLE}


@dataclass(frozen=True)
class TensorMeta:
    """Shape + dtype; the unit of allocation in the symbolic framework."""

    shape: tuple[int, ...]
    dtype: DType = DEFAULT_DTYPE

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"non-positive dimension in shape {self.shape}")

    @property
    def numel(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.numel * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def with_shape(self, shape: tuple[int, ...]) -> "TensorMeta":
        return TensorMeta(shape=shape, dtype=self.dtype)

    def with_dtype(self, dtype: DType) -> "TensorMeta":
        return TensorMeta(shape=self.shape, dtype=dtype)

    def reshape_keep_bytes(self, shape: tuple[int, ...]) -> "TensorMeta":
        """Reshape asserting element count is preserved (a view, no alloc)."""
        reshaped = TensorMeta(shape=shape, dtype=self.dtype)
        if reshaped.numel != self.numel:
            raise ValueError(
                f"reshape {self.shape} -> {shape} changes element count"
            )
        return reshaped

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"{self.dtype.type_name}[{dims}]"


def tensor(*shape: int, dtype: DType = DEFAULT_DTYPE) -> TensorMeta:
    """Convenience constructor: ``tensor(32, 128)`` -> float32[32x128]."""
    return TensorMeta(shape=tuple(shape), dtype=dtype)
