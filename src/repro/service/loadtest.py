"""Run one traffic trace on one execution driver — the only driver table.

"The same answer, the same decisions, through any of four drivers" is
checked by ``xmem loadtest``, by the identity benches and by the parity
tests; they all come to :func:`run_trace`, which builds what a driver
name stands for, replays the trace on it and tears it down
(docs/service.md, "Running a trace on a driver").  ``repro.service``
does not import this module — serving a request does not need it — and
``benchmarks/e2e/loadgen.py`` measures from outside ``src/`` on purpose.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import partial
from typing import Callable, Optional, Sequence

from ..core.estimator import XMemEstimator
from .control import ControlPlane, TenantConfig
from .resilience import default_resilience
from .routing import make_policy
from .traffic import (
    TENANT_SCENARIOS,
    ReplayReport,
    SyntheticEstimator,
    TrafficTrace,
    chaos_plan,
    make_control,
    replay,
)

__all__ = ["DRIVERS", "gateway_options", "parse_tenant_spec", "run_trace"]

DRIVERS = ("threads", "asyncio", "processes", "tcp")


class _Recorder:
    """Stands in for a target and logs what every ``submit`` got: the
    future, or the exception it raised — one entry per submission."""

    def __init__(self, target, log: list):
        self._target = target
        self._log = log

    def __getattr__(self, name):  # stats, max_queue_depth
        return getattr(self._target, name)

    def submit(self, *args, **kwargs):
        try:
            future = self._target.submit(*args, **kwargs)
        except Exception as error:
            self._log.append(error)
            raise
        self._log.append(future)
        return future


def run_trace(
    driver: str,
    trace: TrafficTrace,
    *,
    probes: Sequence[tuple] = (),
    on_outcome: Optional[Callable] = None,
    connect: Optional[tuple] = None,
    **gateway_kwargs,
) -> tuple[ReplayReport, list]:
    """Replay ``trace`` on ``driver``; returns ``(report, probe results)``.

    ``gateway_kwargs`` are the gateway constructors' own keywords; of
    the worker knobs ``max_workers_per_shard`` / ``pool_workers`` each
    reaches only the constructor that has it.  A control plane is
    stateful — pass a fresh one per call; the estimator factory must
    pickle for ``processes``.  ``tcp`` serves an ``AsyncServiceGateway``
    from a ``TcpServerThread`` and replays through a ``TcpServiceClient``
    (re-dialling iff a fault plan will drop connections), or, given
    ``connect=(host, port)``, against a server that is already running:
    its own configuration applies, ``gateway_kwargs`` are not used.

    ``probes`` are ``(workload, device)`` pairs estimated one by one on
    the still-open target after the replay — what an identity check
    compares across drivers.  ``on_outcome(index, result, error)`` is
    called per request after the replay with the result, or the
    exception ``submit`` raised / the future failed with; ``index``
    counts submissions in replay order, as a fault plan does.
    """
    if driver not in DRIVERS:
        raise ValueError(f"unknown driver {driver!r}; choose from {DRIVERS}")
    if connect is not None and driver != "tcp":
        raise ValueError("connect= needs the tcp driver")
    gateway_kwargs.pop(
        "max_workers_per_shard" if driver == "processes" else "pool_workers",
        None,
    )
    log: list = []
    recorded = partial(_Recorder, log=log) if on_outcome else (lambda t: t)
    # each driver's module is imported in the branch that builds it: a
    # run, like the CLI's parser, loads no substrate it does not use
    if driver == "asyncio":
        import asyncio

        from .aio import AsyncServiceGateway, replay_async

        async def on_loop():
            async with AsyncServiceGateway(**gateway_kwargs) as gateway:
                report = await replay_async(trace, recorded(gateway))
                return report, [await gateway.estimate(*p) for p in probes]

        report, results = asyncio.run(on_loop())
    else:
        with ExitStack() as stack:
            if driver == "threads":
                from .gateway import ServiceGateway

                target = ServiceGateway(**gateway_kwargs)
            elif driver == "processes":
                from .procpool import ProcServiceGateway

                target = ProcServiceGateway(**gateway_kwargs)
            else:
                from .aio import AsyncServiceGateway
                from .tcp import TcpServerThread, TcpServiceClient

                if connect is None:
                    # the gateway is built inside the server's loop thread
                    connect = stack.enter_context(
                        TcpServerThread(
                            partial(AsyncServiceGateway, **gateway_kwargs)
                        )
                    ).address
                target = TcpServiceClient(
                    *connect,
                    reconnect=gateway_kwargs.get("fault_plan") is not None,
                )
            stack.enter_context(target)  # closed before the server is
            report = replay(trace, recorded(target))
            results = [target.estimate(*p) for p in probes]
    # every future has settled: the replay joined each of them
    for index, got in enumerate(log):
        error = got if isinstance(got, Exception) else got.exception()
        on_outcome(index, None if error else got.result(), error)
    return report, results


def parse_tenant_spec(spec: str) -> TenantConfig:
    """``name=rate:burst:weight`` -> TenantConfig (trailing parts optional).

    ``acme=2:16:3`` is a tenant refilling 2 quota tokens per admission
    tick, bursting to 16, holding fair-share weight 3; ``acme`` alone
    takes the defaults (1:8:1).
    """
    name, _, knobs = spec.partition("=")
    if not name.strip():
        raise ValueError(f"tenant spec {spec!r} needs a name")
    parts = knobs.split(":") if knobs else []
    if len(parts) > 3:
        raise ValueError(
            f"tenant spec {spec!r} has more than rate:burst:weight"
        )
    rate, burst, weight = [
        float(parts[i]) if i < len(parts) and parts[i] else default
        for i, default in enumerate((1.0, 8.0, 1.0))
    ]
    return TenantConfig(
        name.strip(), quota_rate=rate, quota_burst=burst, weight=weight
    )


def gateway_options(args, scenario: str, policy: str, num_requests: int) -> dict:
    """``xmem loadtest``'s parsed options (``args``: the argparse
    namespace) as :func:`run_trace` keywords.  Call once per run: the
    control plane among them is stateful (token buckets), so two runs
    sharing one would start the second from the first's drained buckets.
    """
    # partials over importable callables, not lambdas: the process driver
    # ships the factory to its workers, which pickles under spawn
    if args.estimator == "synthetic":
        factory = partial(
            SyntheticEstimator,
            work_seconds=args.work_ms / 1000.0,
            spin_seconds=args.spin_ms / 1000.0,
        )
    else:
        # the store path (a plain string) pickles through the partial, so
        # procpool workers each open the shared store file
        factory = partial(
            XMemEstimator,
            iterations=args.iterations,
            curve=False,
            artifact_store=args.artifact_store,
        )
    options = {
        "num_shards": args.shards,
        "estimator_factory": factory,
        "policy": make_policy(policy, args.shards, seed=args.seed),
        "max_queue_depth": args.max_queue_depth,
        "max_workers_per_shard": args.workers_per_shard,
        "pool_workers": args.pool_workers,
    }
    if args.chaos:
        # a seeded fault plan breaks things on schedule while the default
        # resilience policy (retries + per-shard breakers) absorbs it
        options["fault_plan"] = chaos_plan(
            args.chaos, num_requests, args.shards, seed=args.seed
        )
        options["resilience"] = default_resilience()
    if args.tenants:
        # untenanted requests still flow, under default knobs — explicit
        # rosters on the CLI shape quotas, they don't lock the gate
        options["control"] = ControlPlane(
            tuple(parse_tenant_spec(spec) for spec in args.tenants),
            default_config=TenantConfig("default"),
        )
    elif scenario in TENANT_SCENARIOS:
        options["control"] = make_control(scenario)
    return options
