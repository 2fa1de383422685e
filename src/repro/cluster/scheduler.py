"""A memory-aware GPU-sharing scheduler driven by estimates.

Jobs reserve their *estimated* peak memory; multiple jobs share one GPU as
long as reservations fit.  Under-estimates cause OOM kills (the
reservation was a lie), over-estimates waste capacity — so scheduler
throughput directly reflects estimator quality, which is how the paper's
MCP metric translates into cluster value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ServiceError
from ..workload import DeviceSpec, WorkloadConfig
from .job import Job, JobRecord


@dataclass
class _RunningJob:
    job: Job
    started_at: int
    remaining: int


@dataclass
class _Gpu:
    spec: DeviceSpec
    index: int
    running: list[_RunningJob] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"{self.spec.name}#{self.index}"

    def reserved(self) -> int:
        return sum(r.job.reserved_bytes for r in self.running)

    def free(self) -> int:
        return self.spec.job_budget() - self.reserved()


@dataclass(frozen=True)
class ScheduleOutcome:
    """Aggregate statistics of one scheduling simulation."""

    records: list[JobRecord]
    makespan: int

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def oom_kills(self) -> int:
        return sum(1 for r in self.records if r.oomed)

    @property
    def total_wasted_bytes(self) -> int:
        return sum(r.wasted_bytes for r in self.records)

    def throughput(self) -> float:
        """Completed jobs per tick."""
        if self.makespan == 0:
            return 0.0
        return self.completed / self.makespan


class MemoryAwareScheduler:
    """First-fit GPU-sharing scheduler over reserved memory."""

    def __init__(self, devices: list[DeviceSpec], gpus_per_device: int = 1):
        if not devices:
            raise ValueError("scheduler needs at least one device")
        self._gpus = [
            _Gpu(spec=spec, index=index)
            for spec in devices
            for index in range(gpus_per_device)
        ]

    def simulate(self, jobs: list[Job], max_ticks: int = 100_000) -> ScheduleOutcome:
        """Run the queue to completion; returns per-job records.

        Jobs whose reservation exceeds every GPU's budget are rejected
        (recorded as never started).  Jobs that OOM release their GPU at
        the tick the overflow occurs.
        """
        queue = sorted(jobs, key=lambda j: (j.submitted_at, j.job_id))
        records: dict[int, JobRecord] = {}
        pending = list(queue)
        tick = 0
        while (pending or any(g.running for g in self._gpus)) and tick < max_ticks:
            # 1. finish / OOM running jobs
            for gpu in self._gpus:
                still_running: list[_RunningJob] = []
                for running in gpu.running:
                    if running.job.ooms_under_reservation:
                        records[running.job.job_id] = JobRecord(
                            job_id=running.job.job_id,
                            started_at=running.started_at,
                            finished_at=tick,
                            device=gpu.name,
                            oomed=True,
                            reserved_bytes=running.job.reserved_bytes,
                            actual_peak_bytes=running.job.actual_peak_bytes,
                        )
                        continue
                    running.remaining -= 1
                    if running.remaining <= 0:
                        records[running.job.job_id] = JobRecord(
                            job_id=running.job.job_id,
                            started_at=running.started_at,
                            finished_at=tick + 1,
                            device=gpu.name,
                            oomed=False,
                            reserved_bytes=running.job.reserved_bytes,
                            actual_peak_bytes=running.job.actual_peak_bytes,
                        )
                    else:
                        still_running.append(running)
                gpu.running = still_running
            # 2. place pending jobs first-fit
            placed: list[Job] = []
            for job in pending:
                if job.submitted_at > tick:
                    continue
                gpu = self._first_fit(job)
                if gpu is None:
                    if all(
                        job.reserved_bytes > g.spec.job_budget()
                        for g in self._gpus
                    ):
                        records[job.job_id] = JobRecord(
                            job_id=job.job_id,
                            started_at=None,
                            finished_at=None,
                            device=None,
                            oomed=False,
                            reserved_bytes=job.reserved_bytes,
                            actual_peak_bytes=job.actual_peak_bytes,
                        )
                        placed.append(job)  # rejected: remove from queue
                    continue
                gpu.running.append(
                    _RunningJob(job=job, started_at=tick, remaining=job.duration)
                )
                placed.append(job)
            for job in placed:
                pending.remove(job)
            tick += 1
        return ScheduleOutcome(
            records=[records[j.job_id] for j in queue if j.job_id in records],
            makespan=tick,
        )

    def _first_fit(self, job: Job):
        for gpu in self._gpus:
            if gpu.free() >= job.reserved_bytes:
                return gpu
        return None


@dataclass(frozen=True)
class AdmissionDecision:
    """The admission controller's verdict for one submitted workload."""

    workload: WorkloadConfig
    admitted: bool
    reserved_bytes: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "workload": self.workload.as_dict(),
            "admitted": self.admitted,
            "reserved_bytes": self.reserved_bytes,
            "reason": self.reason,
        }


class ServiceAdmissionController:
    """Service-backed admission: estimates become reservations.

    Where the original demo called raw estimators inline, this path
    consults an :class:`~repro.service.engine.EstimationService` — so
    repeated submissions of the same workload hit the fingerprint cache,
    concurrent duplicates single-flight, and the service's validation
    middleware rejects malformed workloads before any profiling runs.
    Any object with the service's ``estimate(workload, device)`` surface
    works, including a sharded
    :class:`~repro.service.gateway.ServiceGateway` — admission then
    scales with the fleet instead of one worker pool.  The controller is
    driver-agnostic: the blocking methods (``decide`` / ``build_jobs`` /
    ``simulate``) drive the thread services, and the ``*_async`` mirrors
    drive :class:`~repro.service.aio.AsyncEstimationService` /
    :class:`~repro.service.aio.AsyncServiceGateway`, whose ``estimate``
    is a coroutine — the admission policy itself (margin, budget check)
    is shared verbatim between the two paths.

    ``safety_margin`` is the multiplicative headroom schedulers add on top
    of any estimate (the demo's 1.15).  Workloads whose reservation
    exceeds every device's job budget are refused at admission time
    instead of churning through the scheduler queue.
    """

    def __init__(
        self,
        service,
        devices: Sequence[DeviceSpec],
        safety_margin: float = 1.15,
    ):
        if not devices:
            raise ValueError("admission controller needs at least one device")
        if safety_margin < 1.0:
            raise ValueError("safety margin cannot shrink the estimate")
        self.service = service
        self.devices = tuple(devices)
        self.safety_margin = safety_margin

    def _refusal(
        self, workload: WorkloadConfig, error: ServiceError
    ) -> AdmissionDecision:
        return AdmissionDecision(
            workload=workload,
            admitted=False,
            reserved_bytes=0,
            reason=f"rejected by service: {error}",
        )

    def _decision_from_estimate(
        self, workload: WorkloadConfig, result
    ) -> AdmissionDecision:
        """The shared admission policy: margin + budget check."""
        reserved = int(result.peak_bytes * self.safety_margin)
        if all(reserved > d.job_budget() for d in self.devices):
            return AdmissionDecision(
                workload=workload,
                admitted=False,
                reserved_bytes=reserved,
                reason="reservation exceeds every device's job budget",
            )
        return AdmissionDecision(
            workload=workload,
            admitted=True,
            reserved_bytes=reserved,
            reason="fits",
        )

    def decide(self, workload: WorkloadConfig) -> AdmissionDecision:
        """Estimate (through the service) and admit or refuse."""
        try:
            result = self.service.estimate(workload, self.devices[0])
        except ServiceError as error:
            return self._refusal(workload, error)
        return self._decision_from_estimate(workload, result)

    async def decide_async(self, workload: WorkloadConfig) -> AdmissionDecision:
        """``decide`` for asyncio-driver services (awaits the estimate)."""
        try:
            result = await self.service.estimate(workload, self.devices[0])
        except ServiceError as error:
            return self._refusal(workload, error)
        return self._decision_from_estimate(workload, result)

    def build_jobs(
        self,
        submissions: Sequence[tuple[WorkloadConfig, int]],
        duration: int = 1,
    ) -> tuple[list[Job], list[AdmissionDecision]]:
        """Turn (workload, actual peak) submissions into schedulable jobs.

        Returns the admitted jobs plus the decision for every submission
        (refusals included), in submission order.
        """
        jobs: list[Job] = []
        decisions: list[AdmissionDecision] = []
        for workload, actual_peak_bytes in submissions:
            decision = self.decide(workload)
            decisions.append(decision)
            if decision.admitted:
                jobs.append(
                    self._job_from(decision, actual_peak_bytes, duration)
                )
        return jobs, decisions

    @staticmethod
    def _job_from(
        decision: AdmissionDecision, actual_peak_bytes: int, duration: int
    ) -> Job:
        return Job(
            workload=decision.workload,
            reserved_bytes=decision.reserved_bytes,
            actual_peak_bytes=actual_peak_bytes,
            duration=duration,
        )

    def simulate(
        self,
        submissions: Sequence[tuple[WorkloadConfig, int]],
        duration: int = 1,
        gpus_per_device: int = 1,
        scheduler: Optional[MemoryAwareScheduler] = None,
    ) -> tuple[ScheduleOutcome, list[AdmissionDecision]]:
        """Admission + scheduling in one call (the full service-backed path)."""
        jobs, decisions = self.build_jobs(submissions, duration=duration)
        scheduler = scheduler or MemoryAwareScheduler(
            list(self.devices), gpus_per_device=gpus_per_device
        )
        return scheduler.simulate(jobs), decisions
