"""Bulk estimation APIs: many requests, one call.

``estimate_many`` submits every (workload, device) pair to a service and
collects the results in request order; ``sweep`` builds the (model x
batch size x device) grid the paper's capacity-planning scenarios ask
for.  Both work on any synchronous driver — the thread service or the
process one — and :func:`repro.service.aio.estimate_many_async` is the
awaitable mirror over the same :func:`submit_all`.

Nothing here shares a profile.  The expensive stage of an xMem estimate
is the CPU profile, and it depends only on the workload, not the device;
the estimator's own stage cache keys it that way, so a sweep of one
workload over N devices profiles once per process (and, with an
``artifact_store``, once across processes) — and ``stats()`` counts that
profile as the request's own work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.result import EstimationResult
from ..workload import DeviceSpec, WorkloadConfig
from .engine import EstimationService


def submit_all(
    service,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
    return_exceptions: bool,
) -> list:
    """Submit every request; the submit half of both bulk APIs.

    One future per request, in request order — or, with
    ``return_exceptions``, the exception ``submit`` raised in its place.
    """
    futures: list = []
    for workload, device in requests:
        try:
            futures.append(service.submit(workload, device))
        except Exception as error:
            if not return_exceptions:
                raise
            futures.append(error)
    return futures


def estimate_many(
    service: EstimationService,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
    return_exceptions: bool = False,
) -> list:
    """Estimate every (workload, device) pair; results in request order.

    With ``return_exceptions``, failures come back in-place instead of
    raising on the first bad request.  ``service`` is any synchronous
    driver exposing ``submit`` futures — the thread service or the
    process one.
    """
    results = []
    for item in submit_all(service, requests, return_exceptions):
        if isinstance(item, Exception):
            results.append(item)
            continue
        try:
            results.append(item.result())
        except Exception as error:
            if not return_exceptions:
                raise
            results.append(error)
    return results


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep: the request plus its outcome."""

    workload: WorkloadConfig
    device: DeviceSpec
    result: Optional[EstimationResult]
    error: Optional[Exception] = None

    @property
    def fits(self) -> Optional[bool]:
        if self.result is None:
            return None
        return not self.result.predicts_oom()

    def as_dict(self) -> dict:
        cell = {
            "workload": self.workload.as_dict(),
            "device": self.device.name,
        }
        if self.result is not None:
            cell["estimated_peak_bytes"] = self.result.peak_bytes
            cell["predicts_oom"] = self.result.predicts_oom()
        if self.error is not None:
            cell["error"] = str(self.error)
        return cell


def sweep(
    service: EstimationService,
    models: Sequence[str],
    batch_sizes: Sequence[int],
    devices: Sequence[DeviceSpec],
    optimizer: str = "adam",
    zero_grad_position: Optional[str] = None,
) -> list[SweepCell]:
    """Estimate the full (model x batch size x device) grid.

    Each (model, batch size) workload is profiled at most once per
    process, by the estimator's stage cache.  Per-cell failures are
    captured, not raised: capacity planning should see the whole grid
    even when one corner is invalid.
    """
    workloads = [
        WorkloadConfig(
            model=model,
            optimizer=optimizer,
            batch_size=batch_size,
            **(
                {}
                if zero_grad_position is None
                else {"zero_grad_position": zero_grad_position}
            ),
        )
        for model in models
        for batch_size in batch_sizes
    ]
    requests = [(w, d) for w in workloads for d in devices]
    outcomes = estimate_many(service, requests, return_exceptions=True)
    cells = []
    for (workload, device), outcome in zip(requests, outcomes):
        if isinstance(outcome, Exception):
            cells.append(
                SweepCell(
                    workload=workload, device=device, result=None, error=outcome
                )
            )
        else:
            cells.append(
                SweepCell(workload=workload, device=device, result=outcome)
            )
    return cells
