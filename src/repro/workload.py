"""Workload and device descriptions shared by estimators and evaluation.

A *test configuration* :math:`j` in the paper is (model, optimizer, batch
size, ``zero_grad`` placement); a *device* :math:`d` contributes its
capacity :math:`M^{max}_d` plus the memory that is not available to the
job: pre-existing usage :math:`M^{init}_d` and the framework's constant
footprint :math:`M^{fm}` (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .units import GiB, MiB, require_types

#: ``optimizer.zero_grad()`` placements (paper Fig. 1; see
#: :mod:`repro.runtime.loop`): right before ``backward()``, or at the
#: start of the iteration
POS0 = "pos0"
POS1 = "pos1"


@dataclass(frozen=True)
class WorkloadConfig:
    """One test configuration j: model, optimizer, batch size, loop shape."""

    model: str
    optimizer: str
    batch_size: int
    zero_grad_position: str = POS1
    set_to_none: bool = True

    def __post_init__(self) -> None:
        require_types(
            self, model=str, optimizer=str, batch_size=int, set_to_none=bool
        )
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.zero_grad_position not in (POS0, POS1):
            raise ValueError(
                f"zero_grad_position must be pos0/pos1, got "
                f"{self.zero_grad_position!r}"
            )

    def with_batch_size(self, batch_size: int) -> "WorkloadConfig":
        return replace(self, batch_size=batch_size)

    def label(self) -> str:
        return (
            f"{self.model}/{self.optimizer}/bs{self.batch_size}"
            f"/{self.zero_grad_position}"
        )

    def to_key(self) -> tuple:
        """Canonical hashable identity, stable across releases.

        Field order is part of the contract: the service-layer fingerprint
        and the eval caches both key on this tuple, so changing it
        invalidates every persisted fingerprint.
        """
        return (
            self.model,
            self.optimizer,
            self.batch_size,
            self.zero_grad_position,
            self.set_to_none,
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (same fields as :meth:`to_key`)."""
        return {
            "model": self.model,
            "optimizer": self.optimizer,
            "batch_size": self.batch_size,
            "zero_grad_position": self.zero_grad_position,
            "set_to_none": self.set_to_none,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadConfig":
        """Inverse of :meth:`as_dict` (round-trips exactly)."""
        return cls(
            model=payload["model"],
            optimizer=payload["optimizer"],
            batch_size=payload["batch_size"],
            zero_grad_position=payload.get("zero_grad_position", POS1),
            set_to_none=payload.get("set_to_none", True),
        )


@dataclass(frozen=True)
class DeviceSpec:
    """A GPU device d with its capacity and non-job overheads."""

    name: str
    capacity_bytes: int  # M^max
    init_bytes: int = 0  # M^init — memory already used on the device
    framework_bytes: int = 600 * MiB  # M^fm — CUDA context + framework

    def __post_init__(self) -> None:
        require_types(
            self,
            name=str,
            capacity_bytes=int,
            init_bytes=int,
            framework_bytes=int,
        )

    def job_budget(self) -> int:
        """Memory available to the training job itself."""
        budget = self.capacity_bytes - self.init_bytes - self.framework_bytes
        if budget <= 0:
            raise ValueError(f"device {self.name} has no job budget")
        return budget

    def with_init(self, init_bytes: int) -> "DeviceSpec":
        return replace(self, init_bytes=init_bytes)

    def to_key(self) -> tuple:
        """Canonical hashable identity (see :meth:`WorkloadConfig.to_key`)."""
        return (
            self.name,
            self.capacity_bytes,
            self.init_bytes,
            self.framework_bytes,
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (same fields as :meth:`to_key`)."""
        return {
            "name": self.name,
            "capacity_bytes": self.capacity_bytes,
            "init_bytes": self.init_bytes,
            "framework_bytes": self.framework_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeviceSpec":
        """Inverse of :meth:`as_dict` (round-trips exactly)."""
        return cls(
            name=payload["name"],
            capacity_bytes=payload["capacity_bytes"],
            init_bytes=payload.get("init_bytes", 0),
            framework_bytes=payload.get("framework_bytes", 600 * MiB),
        )


#: The paper's evaluation devices (§4.1.3).
RTX_3060 = DeviceSpec(name="GeForce RTX 3060", capacity_bytes=12 * GiB)
RTX_4060 = DeviceSpec(name="GeForce RTX 4060", capacity_bytes=8 * GiB)
A100_40GB = DeviceSpec(name="NVIDIA A100", capacity_bytes=40 * GiB)

EVAL_DEVICES = (RTX_3060, RTX_4060)
