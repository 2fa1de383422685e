"""Bulk estimation APIs that exploit shared work across requests.

The expensive stage of an xMem estimate is the CPU profiling run, and it
depends only on the *workload* — not the device or allocator config.  A
sweep of one workload over N devices therefore needs one profile, not N.
``estimate_many`` groups requests by workload, profiles each group once,
and hands the shared trace to the service (whose estimator replays it per
device); ``sweep`` builds the (model x batch size x device) grid the
paper's capacity-planning scenarios ask for.

The planning step (:func:`plan_shared_traces`) is driver-agnostic: it
only needs the service surface (``fingerprint`` / ``cache`` /
``estimator``), so :func:`repro.service.aio.estimate_many_async` reuses
it for the asyncio driver and
:meth:`repro.service.procpool.ProcEstimationService.estimate_many` for
the process driver — one planner, three substrates.  Under the process
driver the profile is computed once in the parent and shipped (pickled)
to whichever worker handles each request of the group, so N workers
never profile the same workload N times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.result import EstimationResult
from ..runtime.loop import TrainLoopConfig
from ..runtime.profiler import DEFAULT_PROFILE_ITERATIONS, profile_on_cpu
from ..trace.reader import Trace
from ..workload import DeviceSpec, WorkloadConfig
from .engine import EstimationService


def profile_workload(
    service: EstimationService, workload: WorkloadConfig
) -> Trace:
    """One CPU profile of ``workload``, matching the wrapped estimator's
    own profiling parameters so estimates stay byte-identical.

    A staged estimator profiles through its own pipeline, so the shared
    trace lands in (or comes from) the stage cache — the bulk fast path
    and the per-request stage caches reuse one artifact.
    """
    pipeline = getattr(service.estimator, "pipeline", None)
    if pipeline is not None:
        return pipeline.profile(workload)
    iterations = getattr(
        service.estimator, "iterations", DEFAULT_PROFILE_ITERATIONS
    )
    return profile_on_cpu(
        workload.model,
        batch_size=workload.batch_size,
        optimizer=workload.optimizer,
        loop=TrainLoopConfig(
            iterations=iterations,
            zero_grad_position=workload.zero_grad_position,
            set_to_none=workload.set_to_none,
        ),
        iterations=iterations,
    )


def plan_shared_traces(
    service,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
) -> dict[tuple, Trace]:
    """Profile each workload that appears in >= 2 non-cached requests.

    ``service`` is any driver exposing ``fingerprint`` / ``cache`` /
    ``estimator`` — the thread service or the asyncio one.
    """
    pending: dict[tuple, list[tuple[WorkloadConfig, DeviceSpec]]] = {}
    for workload, device in requests:
        if service.fingerprint(workload, device) in service.cache:
            continue
        pending.setdefault(workload.to_key(), []).append((workload, device))
    traces: dict[tuple, Trace] = {}
    for key, group in pending.items():
        if len(group) < 2:
            continue
        try:
            traces[key] = profile_workload(service, group[0][0])
        except Exception:
            # an unprofilable workload (unknown model, bad optimizer) is
            # not this fast path's problem: leave the group trace-less so
            # each request fails — or is rejected — individually
            continue
    return traces


def submit_all(
    service,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
    traces: dict[tuple, Trace],
    return_exceptions: bool,
) -> list:
    """Submit every request; the submit half of both bulk APIs.

    One future per request, in request order — or, with
    ``return_exceptions``, the exception ``submit`` raised in its place.
    """
    futures: list = []
    for workload, device in requests:
        try:
            futures.append(
                service.submit(
                    workload, device, trace=traces.get(workload.to_key())
                )
            )
        except Exception as error:
            if not return_exceptions:
                raise
            futures.append(error)
    return futures


def estimate_many(
    service: EstimationService,
    requests: Sequence[tuple[WorkloadConfig, DeviceSpec]],
    share_profiles: bool = True,
    return_exceptions: bool = False,
) -> list:
    """Estimate every (workload, device) pair; results in request order.

    With ``share_profiles`` (and a trace-capable estimator), workloads
    repeated across devices are profiled once up front.  With
    ``return_exceptions``, failures come back in-place instead of raising
    on the first bad request.  ``service`` is any synchronous driver
    exposing ``submit`` futures — the thread service or the process one.
    """
    traces: dict[tuple, Trace] = {}
    if share_profiles and service.accepts_trace:
        traces = plan_shared_traces(service, requests)
    results = []
    for item in submit_all(service, requests, traces, return_exceptions):
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

    Each (model, batch size) workload is profiled at most once across all
    devices.  Per-cell failures are captured, not raised: capacity planning
    should see the whole grid even when one corner is invalid.
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
