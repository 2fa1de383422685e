"""SchedTune baseline (Albahar et al., CCGrid 2022) — data-driven ML.

SchedTune predicts job memory from model/hardware features using a model
pre-trained on historical cluster executions.  The reimplementation uses
ridge regression over job features, trained on a built-in "historical log"
dominated by CNN-era workloads — faithfully reproducing the approach's
strengths (fast inference, decent interpolation on seen families) and its
weaknesses (cold start on new architectures, blindness to code-level
configuration and allocator behaviour; xMem paper §5.2).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.result import EstimationResult
from ..framework.optim import make_optimizer
from ..models.registry import ModelSpec, get_model_spec
from ..runtime.ground_truth import run_gpu_ground_truth
from ..units import GiB, MiB
from ..workload import RTX_3060, DeviceSpec, WorkloadConfig
from .base import Estimator


@dataclass(frozen=True)
class HistoryRecord:
    """One historical execution: a workload and its observed peak."""

    workload: WorkloadConfig
    peak_bytes: int


#: The built-in historical log: the CNN-heavy job mix of a 2021-era
#: cluster, plus a token amount of (small) transformer jobs.  New model
#: families are by definition absent — the cold-start problem.
_DEFAULT_HISTORY_JOBS: tuple[WorkloadConfig, ...] = tuple(
    WorkloadConfig(model, optimizer, batch)
    for model, batches in (
        ("VGG16", (100, 200, 300)),
        ("ResNet101", (100, 200, 400)),
        ("MobileNetV2", (100, 300, 500)),
        ("MnasNet", (200, 400)),
        ("RegNetX400MF", (200, 400)),
        ("distilgpt2", (5, 10)),
        ("gpt2", (5, 10)),
    )
    for optimizer in ("sgd", "adam")
    for batch in batches
)


_ACTIVATION_CACHE: dict[str, int] = {}


def _activation_bytes_per_sample(spec: ModelSpec) -> int:
    """Sum of op output bytes for one sample — a model characteristic
    SchedTune derives from the architecture description."""
    if spec.name not in _ACTIVATION_CACHE:
        plan = spec.build().build_plan(spec.input_meta(1))
        _ACTIVATION_CACHE[spec.name] = plan.total_output_bytes()
    return _ACTIVATION_CACHE[spec.name]


def _features(workload: WorkloadConfig, spec: ModelSpec) -> list[float]:
    """SchedTune's feature vector: model and job characteristics only.

    Deliberately excludes what SchedTune cannot see: allocator behaviour,
    ``zero_grad`` placement, per-operator lifetimes.
    """
    model = spec.build()
    params = model.num_parameters()
    optimizer = make_optimizer(workload.optimizer)
    state_multiplier = sum(
        len(optimizer.state_tensors(p.meta)) for p in model.parameters()
    ) / max(1, sum(1 for _ in model.parameters()))
    activation_mb = _activation_bytes_per_sample(spec) / 1e6
    return [
        1.0,
        params / 1e6,
        float(workload.batch_size),
        (params / 1e6) * state_multiplier,
        activation_mb * workload.batch_size,
        1.0 if spec.family == "transformer" else 0.0,
    ]


def _solve(matrix: list[list[float]], vector: list[float]) -> list[float]:
    """``x`` with ``matrix @ x == vector``: Gaussian elimination with
    partial pivoting (the ridge system is 6 x 6, symmetric positive
    definite, so it never meets a zero pivot)."""
    size = len(vector)
    rows = [[*row, value] for row, value in zip(matrix, vector)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for row in rows[col + 1 :]:
            factor = row[col] / rows[col][col]
            for k in range(col, size + 1):
                row[k] -= factor * rows[col][k]
    solution = [0.0] * size
    for r in reversed(range(size)):
        tail = sum(rows[r][k] * solution[k] for k in range(r + 1, size))
        solution[r] = (rows[r][size] - tail) / rows[r][r]
    return solution


class SchedTuneEstimator(Estimator):
    """Ridge regression over job features, trained on historical runs."""

    name = "SchedTune"

    def __init__(
        self,
        history: Optional[Sequence[HistoryRecord]] = None,
        ridge_lambda: float = 1e-3,
        training_device: DeviceSpec = RTX_3060,
        headroom: float = 1.15,
    ):
        """``headroom`` is SchedTune's placement-safety calibration: the
        scheduler it feeds over-provisions predictions by this factor to
        absorb regression error (trading MRE for fewer OOM kills)."""
        self.ridge_lambda = ridge_lambda
        self.training_device = training_device
        self.headroom = headroom
        self._history = list(history) if history is not None else None
        self._weights: Optional[list[float]] = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _default_history(self) -> list[HistoryRecord]:
        records = []
        for workload in _DEFAULT_HISTORY_JOBS:
            truth = run_gpu_ground_truth(
                workload.model,
                workload.batch_size,
                workload.optimizer,
                capacity_bytes=64 * GiB,  # history holds only completed jobs
                # a stable seed: ``hash()`` of a str is salted per process
                seed=zlib.crc32(workload.label().encode()) & 0xFFFF,
            )
            records.append(
                HistoryRecord(workload=workload, peak_bytes=truth.measured_peak)
            )
        return records

    def fit(self, history: Optional[Sequence[HistoryRecord]] = None) -> None:
        """(Re)train the regression; uses the built-in log by default."""
        if history is not None:
            self._history = list(history)
        if self._history is None:
            self._history = self._default_history()
        design = [
            _features(record.workload, get_model_spec(record.workload.model))
            for record in self._history
        ]
        target = [record.peak_bytes / GiB for record in self._history]
        columns = list(zip(*design))
        gram = [
            [
                sum(a * b for a, b in zip(left, right))
                + (self.ridge_lambda if i == j else 0.0)
                for j, right in enumerate(columns)
            ]
            for i, left in enumerate(columns)
        ]
        moments = [sum(a * b for a, b in zip(column, target)) for column in columns]
        self._weights = _solve(gram, moments)

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def supports(self, workload: WorkloadConfig) -> bool:
        return True

    def estimate(
        self, workload: WorkloadConfig, device: DeviceSpec
    ) -> EstimationResult:
        start = time.perf_counter()
        if self._weights is None:
            self.fit()
            start = time.perf_counter()  # training is offline, not runtime
        spec = get_model_spec(workload.model)
        prediction_gib = sum(
            feature * weight
            for feature, weight in zip(_features(workload, spec), self._weights)
        )
        # a trained estimator never predicts below a tiny floor
        peak = max(int(prediction_gib * self.headroom * GiB), 64 * MiB)
        runtime = time.perf_counter() - start
        return EstimationResult(
            estimator=self.name,
            workload=workload,
            device=device,
            peak_bytes=peak,
            runtime_seconds=runtime,
            detail={"prediction_gib": prediction_gib},
        )
