"""Command-line interface.

``xmem estimate | models | devices | trace | curve | batch | loadtest``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .core.estimator import XMemEstimator
from .models.registry import list_models
from .units import format_gb, parse_size
from .workload import (
    A100_40GB,
    POS0,
    POS1,
    RTX_3060,
    RTX_4060,
    DeviceSpec,
    WorkloadConfig,
)

_DEVICES = {
    "rtx3060": RTX_3060,
    "rtx4060": RTX_4060,
    "a100": A100_40GB,
}


def _device_from_args(args: argparse.Namespace) -> DeviceSpec:
    return args.capacity or _DEVICES[args.device]


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _count(text: str) -> int:
    """The argparse type of every count option: an integer, at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return int(text)


def _address(text: str) -> tuple[str, int]:
    """The argparse type of ``--connect``: ``HOST:PORT`` with a port in
    1-65535 (no host is 127.0.0.1)."""
    host, _, port = text.rpartition(":")
    if not port.isdigit() or not 1 <= int(port) <= 65535:
        raise argparse.ArgumentTypeError(
            f"takes HOST:PORT with a port in 1-65535, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


def _capacity(text: str) -> DeviceSpec:
    """The argparse type of ``--capacity``: a size that leaves the job a
    budget once the framework's reservation is taken out."""
    try:
        device = DeviceSpec(name="custom", capacity_bytes=parse_size(text))
        device.job_budget()
    except (ValueError, OverflowError) as error:
        raise argparse.ArgumentTypeError(
            f"{error}; give a size above the "
            f"{format_gb(DeviceSpec.framework_bytes)} framework reservation, "
            'e.g. "24GiB"'
        ) from None
    return device


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="model name (see `xmem models`)")
    parser.add_argument("--batch-size", type=_count, required=True)
    parser.add_argument("--optimizer", default="adam")
    parser.add_argument(
        "--zero-grad-position",
        choices=(POS0, POS1),
        default=POS1,
        help="placement of optimizer.zero_grad() in the loop (Fig. 1)",
    )
    parser.add_argument(
        "--device", choices=sorted(_DEVICES), default="rtx3060"
    )
    parser.add_argument(
        "--capacity", type=_capacity, default=None,
        help='custom device capacity, e.g. "24GiB"',
    )


def _cmd_estimate(args: argparse.Namespace) -> int:
    workload = WorkloadConfig(
        model=args.model,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        zero_grad_position=args.zero_grad_position,
    )
    device = _device_from_args(args)
    estimator = XMemEstimator(
        iterations=args.iterations,
        artifact_store=getattr(args, "artifact_store", None),
    )
    result = estimator.estimate(workload, device)
    if args.json:
        payload = {
            **workload.as_dict(),
            "device": device.name,
            "estimated_peak_bytes": result.peak_bytes,
            "predicts_oom": result.predicts_oom(),
            "runtime_seconds": result.runtime_seconds,
            "role_bytes": result.detail.get("role_bytes", {}),
        }
        if args.timings:
            payload["stage_seconds"] = result.stage_seconds
            payload["stage_cached"] = result.stage_cached
            payload["stage_sources"] = result.stage_sources
        print(json.dumps(payload))
    elif args.explain:
        from .core.report import render_report

        print(render_report(result))
    else:
        print(f"workload        : {workload.label()}")
        print(f"device          : {device.name}")
        print(f"estimated peak  : {format_gb(result.peak_bytes)}")
        print(f"job budget      : {format_gb(device.job_budget())}")
        print(f"prediction      : {'OOM' if result.predicts_oom() else 'fits'}")
        print(f"estimator time  : {result.runtime_seconds:.2f}s")
    if args.timings and not args.json:
        total = sum(result.stage_seconds.values()) or 1.0
        print("stage breakdown :")
        for stage, seconds in result.stage_seconds.items():
            source = result.stage_sources.get(stage)
            if source == "store":
                cached = " (store)"
            elif result.stage_cached.get(stage):
                cached = " (cached)"
            else:
                cached = ""
            print(
                f"  {stage:<12} {seconds * 1e3:9.2f} ms "
                f"{seconds / total:6.1%}{cached}"
            )
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                {
                    alias: {
                        **spec.as_dict(),
                        "job_budget_bytes": spec.job_budget(),
                    }
                    for alias, spec in sorted(_DEVICES.items())
                }
            )
        )
        return 0
    print(
        f"{'alias':<10}{'device':<22}{'capacity':>10}"
        f"{'framework':>11}{'job budget':>12}"
    )
    for alias, spec in sorted(_DEVICES.items()):
        print(
            f"{alias:<10}{spec.name:<22}{format_gb(spec.capacity_bytes):>10}"
            f"{format_gb(spec.framework_bytes):>11}"
            f"{format_gb(spec.job_budget()):>12}"
        )
    print('\n(--capacity "24GiB" builds a custom device instead)')
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import EstimationService, sweep

    models = args.model
    try:
        batch_sizes = [_count(b) for b in args.batch_sizes.split(",")]
    except argparse.ArgumentTypeError:
        return _usage_error(
            "--batch-sizes must be comma-separated integers >= 1, "
            f"got {args.batch_sizes!r}"
        )
    unknown = [
        name for name in args.devices.split(",") if name not in _DEVICES
    ]
    if unknown:
        return _usage_error(
            f"unknown device alias(es) {unknown}; "
            f"known: {sorted(_DEVICES)} (see `xmem devices`)"
        )
    devices = [_DEVICES[name] for name in args.devices.split(",")]
    with EstimationService(
        # the sweep only reads peaks: skip materializing usage curves
        estimator=XMemEstimator(iterations=args.iterations, curve=False),
        max_workers=args.workers,
    ) as service:
        cells = sweep(
            service,
            models,
            batch_sizes,
            devices,
            optimizer=args.optimizer,
            zero_grad_position=args.zero_grad_position,
        )
        stats = service.stats()
    if args.json:
        print(
            json.dumps(
                {"cells": [c.as_dict() for c in cells], "stats": stats}
            )
        )
        return 0
    print(
        f"{'model':<22}{'batch':>6}{'peak':>9}"
        + "".join(f"{d.name.split()[-1]:>12}" for d in devices)
    )
    for index in range(0, len(cells), len(devices)):
        row = cells[index : index + len(devices)]
        workload = row[0].workload
        peak = next(
            (c.result.peak_bytes for c in row if c.result is not None), None
        )
        verdicts = "".join(
            f"{('ERROR' if c.result is None else 'OOM' if c.result.predicts_oom() else 'fits'):>12}"
            for c in row
        )
        print(
            f"{workload.model:<22}{workload.batch_size:>6}"
            f"{(format_gb(peak) if peak is not None else 'N/A'):>9}{verdicts}"
        )
    service_stats = stats["service"]
    print(
        f"\n{service_stats['requests']} requests, "
        f"hit rate {service_stats['cache_hit_rate']:.0%}, "
        f"p50 {(service_stats['latency_seconds']['p50'] or 0) * 1e3:.1f} ms"
    )
    return 0


def _print_loadtest_report(trace, args, report) -> None:
    from .service.telemetry.report import render_recovery_and_tenants

    aggregate = report.stats["aggregate"]
    gateway_stats = report.stats["gateway"]
    print(
        f"scenario {trace.scenario!r}: {report.num_requests} requests "
        f"({trace.unique_fingerprint_keys()} unique keys, "
        f"{args.waves} waves) over {args.shards} shards "
        f"[{gateway_stats['policy']} routing]"
    )
    print(
        f"answered {report.answered}  shed {report.shed}  "
        f"rejected {report.rejected}  errors {report.errors}"
    )
    print(
        f"throughput      : {report.throughput_rps:,.0f} req/s "
        f"({report.elapsed_seconds * 1e3:.0f} ms total)"
    )
    print(f"cache hit rate  : {aggregate['cache_hit_rate']:.1%}")
    print(f"shed rate       : {report.shed_rate:.1%}")
    print(f"routed per shard: {gateway_stats['routed_per_shard']}")
    p95 = aggregate["latency_seconds"]["p95"]
    if p95 is not None:
        print(f"latency p95     : {p95 * 1e3:.2f} ms")
    for line in render_recovery_and_tenants(report):
        print(line)


def _print_loadtest_comparison(runs) -> None:
    """Per-scenario comparison across the requested policy/driver combos."""

    def _ms(value):
        return f"{value * 1e3:.2f}" if value is not None else "n/a"

    header = (
        f"{'policy':<14}{'driver':<9}{'hit rate':>9}{'p50 ms':>9}"
        f"{'p95 ms':>9}{'shed':>6}{'req/s':>10}"
    )
    for scenario in dict.fromkeys(run["scenario"] for run in runs):
        print(f"\nscenario {scenario!r}:")
        print(header)
        for run in runs:
            if run["scenario"] != scenario:
                continue
            report = run["report"]
            latency = report.stats["aggregate"]["latency_seconds"]
            print(
                f"{run['policy']:<14}{run['driver']:<9}"
                f"{report.stats['aggregate']['cache_hit_rate']:>8.1%} "
                f"{_ms(latency['p50']):>8} {_ms(latency['p95']):>8}"
                f"{report.shed:>6}{report.throughput_rps:>10,.0f}"
            )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay named traffic scenarios against sharded gateways.

    ``--scenario`` / ``--policy`` / ``--driver`` are repeatable; a single
    combo prints the detailed report, several print a per-scenario
    comparison table (hit rate, p50/p95, shed, throughput).
    ``--report`` (and ``--spans-out`` / ``--ledger-out``) enable
    telemetry capture: each run gets its own tracer + audit ledger, and
    the report panel adds latency histograms, shard heat, and the ledger
    decision summary.
    """
    from .service import (
        TENANT_SCENARIOS,
        Telemetry,
        generate_traffic,
        qos_priority,
        render_loadtest_report,
    )
    from .service.loadtest import gateway_options, parse_tenant_spec, run_trace

    scenarios = args.scenario or ["zipf"]
    policies = args.policy or ["hash"]
    drivers = args.driver or ["threads"]
    connect = args.connect
    if connect:
        if "tcp" not in drivers:
            return _usage_error("--connect needs --driver tcp")
        tenanted = args.tenants or any(s in TENANT_SCENARIOS for s in scenarios)
        if args.chaos or tenanted:
            return _usage_error(
                "--chaos, --tenants and multi-tenant scenarios configure "
                "the gateway at construction time and cannot be applied to "
                "an already-running server (--connect)"
            )
    try:
        qos = qos_priority(args.qos) if args.qos else None
        for spec in args.tenants or ():
            parse_tenant_spec(spec)
    except ValueError as error:
        return _usage_error(str(error))
    if args.artifact_store and args.estimator != "xmem":
        return _usage_error(
            "--artifact-store caches pipeline-stage artifacts and "
            "needs the real pipeline (--estimator xmem)"
        )
    capture = args.report or args.spans_out or args.ledger_out
    runs = []
    for scenario in scenarios:
        try:
            trace = generate_traffic(
                scenario,
                args.requests,
                seed=args.seed,
                unique_workloads=args.unique,
                waves=args.waves,
            )
        except ValueError as error:  # --unique beyond the scenario's catalog
            return _usage_error(f"--unique: {error}")
        if qos is not None:
            # pin every request to one QoS class — e.g. replay the same
            # mix as all-batch vs all-interactive to see the reserve act
            trace = replace(
                trace,
                requests=tuple(
                    replace(request, priority=qos)
                    for request in trace.requests
                ),
            )
        for policy_name in policies:
            for driver in drivers:
                # full detail: the report panel exists to show the
                # per-layer breakdown, so include middleware hook spans
                telemetry = (
                    Telemetry(ledger_path=args.ledger_out, detail="full")
                    if capture
                    else None
                )
                try:
                    report, _ = run_trace(
                        driver,
                        trace,
                        connect=connect if driver == "tcp" else None,
                        telemetry=telemetry,
                        **gateway_options(args, scenario, policy_name, len(trace)),
                    )
                except OSError as error:
                    if not connect or driver != "tcp":
                        raise
                    host, port = connect
                    print(f"error: --connect {host}:{port}: {error}", file=sys.stderr)
                    return 1
                if telemetry is not None and args.spans_out:
                    # spans stay in memory during the run (the report
                    # panel reads them back); dump afterwards so several
                    # runs append to one capture file, like the ledger
                    with open(args.spans_out, "a", encoding="utf-8") as fh:
                        fh.writelines(
                            json.dumps(span.as_dict(), sort_keys=True) + "\n"
                            for span in telemetry.spans()
                        )
                if telemetry is not None:
                    telemetry.close()
                runs.append(
                    {
                        "scenario": scenario,
                        "policy": policy_name,
                        "driver": driver,
                        "trace": trace,
                        "report": report,
                        "telemetry": telemetry,
                    }
                )
    if args.json:
        payloads = [
            {
                **{key: run[key] for key in ("scenario", "policy", "driver")},
                **run["report"].as_dict(),
            }
            for run in runs
        ]
        # single combo keeps the original flat payload
        flat = runs[0]["report"].as_dict()
        print(json.dumps(flat if len(runs) == 1 else {"runs": payloads}))
        return 0
    if args.report:
        # --report implies capture: every run has its telemetry
        panels = (
            render_loadtest_report(
                run,
                ledger=run["telemetry"].ledger,
                spans=run["telemetry"].spans(),
            )
            for run in runs
        )
        print("\n\n".join(panels))
        if len(runs) > 1:
            _print_loadtest_comparison(runs)
    elif len(runs) == 1:
        _print_loadtest_report(runs[0]["trace"], args, runs[0]["report"])
    else:
        _print_loadtest_comparison(runs)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    for spec in list_models(include_rq5=True):
        model = spec.build()
        marker = " *" if spec.rq5_only else ""
        print(
            f"{spec.name:34s} {spec.family:12s} "
            f"{model.num_parameters() / 1e6:9.1f}M params{marker}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .runtime.profiler import profile_on_cpu
    from .trace.stats import summarize_trace

    trace = profile_on_cpu(
        args.model,
        batch_size=args.batch_size,
        optimizer=args.optimizer,
        iterations=args.iterations,
    )
    if args.output:
        trace.save(args.output)
        print(f"trace written to {args.output}")
    summary = summarize_trace(trace)
    for key, value in summary.as_dict().items():
        print(f"{key:24s} {value}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    workload = WorkloadConfig(
        model=args.model,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        zero_grad_position=args.zero_grad_position,
    )
    device = _device_from_args(args)
    result = XMemEstimator(iterations=args.iterations).estimate(workload, device)
    assert result.curve is not None
    points = result.curve.downsample(args.points).points
    for point in points:
        print(f"{point.ts}\t{point.allocated_bytes}\t{point.reserved_bytes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmem",
        description=(
            "CPU-based a-priori estimation of peak GPU memory for DL "
            "training (Middleware '25 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="estimate peak GPU memory")
    _add_workload_args(estimate)
    estimate.add_argument("--iterations", type=_count, default=3)
    estimate.add_argument("--json", action="store_true")
    estimate.add_argument(
        "--explain", action="store_true",
        help="print the role breakdown and orchestration adjustments",
    )
    estimate.add_argument(
        "--timings", action="store_true",
        help="print the per-stage latency breakdown "
        "(profile/analyze/orchestrate/simulate)",
    )
    estimate.add_argument(
        "--artifact-store", metavar="PATH", default=None,
        help="sqlite file caching orchestrate/simulate rows across runs "
        "— repeated invocations start warm",
    )
    estimate.set_defaults(func=_cmd_estimate)

    models = sub.add_parser("models", help="list the model zoo")
    models.set_defaults(func=_cmd_models)

    devices = sub.add_parser(
        "devices", help="list the known devices (name, capacity, job budget)"
    )
    devices.add_argument("--json", action="store_true")
    devices.set_defaults(func=_cmd_devices)

    batch = sub.add_parser(
        "batch",
        help="sweep (model x batch size x device) through the service",
    )
    batch.add_argument(
        "--model", action="append", required=True,
        help="model name; repeat for several models",
    )
    batch.add_argument(
        "--batch-sizes", required=True,
        help='comma-separated batch sizes, e.g. "8,16,32"',
    )
    batch.add_argument(
        "--devices", default="rtx3060",
        help=f'comma-separated device aliases from {sorted(_DEVICES)}',
    )
    batch.add_argument("--optimizer", default="adam")
    batch.add_argument(
        "--zero-grad-position", choices=(POS0, POS1), default=None
    )
    batch.add_argument("--iterations", type=_count, default=3)
    batch.add_argument("--workers", type=_count, default=4)
    batch.add_argument("--json", action="store_true")
    batch.set_defaults(func=_cmd_batch)

    loadtest = sub.add_parser(
        "loadtest",
        help="replay a deterministic traffic scenario at a sharded gateway",
    )
    from .service import (
        CHAOS_SCENARIOS,
        POLICY_NAMES,
        QOS_CLASSES,
        SCENARIO_NAMES,
    )
    from .service.loadtest import DRIVERS

    loadtest.add_argument(
        "--scenario", choices=SCENARIO_NAMES, action="append", default=None,
        help="traffic shape, repeatable (default zipf; see docs/service.md; "
        "multi-tenant scenarios install a calibrated control plane)",
    )
    loadtest.add_argument(
        "--tenants", action="append", default=None, metavar="SPEC",
        help='tenant roster as "name=rate:burst:weight", repeatable — '
        "installs a control plane with token-bucket quotas and weighted "
        "fair-share admission (see docs/control_plane.md)",
    )
    loadtest.add_argument(
        "--qos", choices=sorted(QOS_CLASSES), default=None,
        help="pin every replayed request to one QoS class "
        "(batch admission stops at the fair-share reserve floor)",
    )
    loadtest.add_argument(
        "--chaos", choices=CHAOS_SCENARIOS, default=None,
        help="inject a seeded fault scenario while the trace replays, "
        "with the default resilience policy (retries + per-shard "
        "circuit breakers) absorbing it; see docs/resilience.md",
    )
    loadtest.add_argument("--requests", type=_count, default=200)
    loadtest.add_argument(
        "--unique", type=_count, default=8,
        help="distinct workloads the scenario draws from",
    )
    loadtest.add_argument("--waves", type=_count, default=4)
    loadtest.add_argument("--shards", type=_count, default=4)
    loadtest.add_argument(
        "--policy", choices=POLICY_NAMES, action="append", default=None,
        help="routing policy, repeatable (default hash — preserves "
        "per-shard cache locality); several values print a comparison",
    )
    loadtest.add_argument(
        "--driver", choices=DRIVERS,
        action="append", default=None,
        help="execution driver over the sans-IO core, repeatable "
        "(default threads); several values print a comparison; tcp "
        "spawns an in-process socket server unless --connect is given",
    )
    loadtest.add_argument(
        "--connect", type=_address, default=None, metavar="HOST:PORT",
        help="with --driver tcp: replay against an already-running "
        "server instead of spawning one in-process (the remote "
        "gateway's policy/estimator apply; local telemetry is empty)",
    )
    loadtest.add_argument("--max-queue-depth", type=_count, default=64)
    loadtest.add_argument("--workers-per-shard", type=_count, default=2)
    loadtest.add_argument(
        "--pool-workers", type=_count, default=4,
        help="worker processes shared by all shards (--driver processes)",
    )
    loadtest.add_argument(
        "--estimator", choices=("synthetic", "xmem"), default="synthetic",
        help="synthetic = measure the serving layer; xmem = real pipeline",
    )
    loadtest.add_argument(
        "--artifact-store", metavar="PATH", default=None,
        help="persistent stage-artifact store shared by every worker "
        "(xmem estimator only); procpool workers all open this file",
    )
    loadtest.add_argument(
        "--work-ms", type=float, default=0.0,
        help="simulated per-estimate cost for the synthetic estimator "
        "(sleep: releases the GIL)",
    )
    loadtest.add_argument(
        "--spin-ms", type=float, default=0.0,
        help="simulated CPU-bound per-estimate cost for the synthetic "
        "estimator (busy loop: holds the GIL — what --driver processes "
        "parallelizes and the other drivers cannot)",
    )
    loadtest.add_argument(
        "--iterations", type=_count, default=2,
        help="profiling iterations for --estimator xmem",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--json", action="store_true")
    loadtest.add_argument(
        "--report", action="store_true",
        help="enable telemetry and print the full panel per run: latency "
        "histogram, shard heat, ledger decision summary, span accounting",
    )
    loadtest.add_argument(
        "--spans-out", default=None, metavar="PATH",
        help="append captured spans as JSON lines (implies telemetry)",
    )
    loadtest.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="append audit-ledger events as JSON lines (implies telemetry)",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    trace = sub.add_parser("trace", help="profile a workload on the CPU")
    trace.add_argument("--model", required=True)
    trace.add_argument("--batch-size", type=_count, required=True)
    trace.add_argument("--optimizer", default="adam")
    trace.add_argument("--iterations", type=_count, default=3)
    trace.add_argument("--output", default=None, help="trace JSON path")
    trace.set_defaults(func=_cmd_trace)

    curve = sub.add_parser(
        "curve", help="print the estimated memory curve (ts, tensor, segment)"
    )
    _add_workload_args(curve)
    curve.add_argument("--iterations", type=_count, default=3)
    curve.add_argument("--points", type=_count, default=200)
    curve.set_defaults(func=_cmd_curve)

    return parser


#: exit status of a command whose stdout reader went away: what a shell
#: reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """Run one ``xmem`` command and return its exit status.

    A reader that closes stdout early (``xmem models | head -1``) stops
    the command quietly with ``EXIT_BROKEN_PIPE`` (141); any other error
    raises.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # what is still buffered meets a closed pipe here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
