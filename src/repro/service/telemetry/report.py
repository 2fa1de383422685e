"""Human-readable rendering of telemetry: histograms, heat, trends.

Everything here is pure string formatting over JSON-shaped inputs — the
renderers take the dicts that :meth:`ServiceMetrics.as_dict`, the
gateway snapshot, the :class:`~.ledger.AuditLedger`, and
``benchmarks/check_regression.py`` already produce, so they can run on
live objects or on captures loaded back from disk (and are unit-tested
as plain functions, like the regression gate itself).
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "render_histogram",
    "render_shard_heat",
    "render_loadtest_report",
    "render_recovery_and_tenants",
    "render_trend_summary",
]

#: Width of the bar column in rendered histograms.
BAR_WIDTH = 40


def _format_bound(seconds: float) -> str:
    if seconds == float("inf"):
        return "+inf"
    if seconds >= 1.0:
        return f"{seconds:g}s"
    return f"{seconds * 1e3:g}ms"


def render_histogram(
    histogram: dict, title: str = "latency", width: int = BAR_WIDTH
) -> str:
    """ASCII bar chart of a ``{"bounds": [...], "counts": [...]}`` dict.

    ``bounds`` are upper edges (the final count is the overflow bucket);
    empty leading/trailing buckets are elided so the interesting range
    fills the chart.
    """
    bounds = list(histogram.get("bounds", ()))
    counts = list(histogram.get("counts", ()))
    if not counts or not any(counts):
        return f"{title}: no samples"
    edges = [_format_bound(bound) for bound in bounds] + ["+inf"]
    first = next(i for i, count in enumerate(counts) if count)
    last = max(i for i, count in enumerate(counts) if count)
    peak = max(counts)
    total = sum(counts)
    lines = [f"{title} ({total} samples):"]
    for index in range(first, last + 1):
        count = counts[index]
        bar = "#" * max(1 if count else 0, round(count / peak * width))
        lines.append(f"  <= {edges[index]:>8}  {count:>6}  {bar}")
    return "\n".join(lines)


def render_shard_heat(shards: Sequence[dict], routed: Optional[dict] = None) -> str:
    """Per-shard load table: routed, answered, hit rate, p95.

    ``shards`` is the gateway snapshot's per-shard stats list (each entry
    a ``ServiceMetrics.as_dict`` payload, possibly nested under
    ``"service"``); ``routed`` the gateway's routed-per-shard counter
    (a list indexed by shard, or a dict keyed by shard index).
    """
    lines = [
        f"{'shard':>5}{'routed':>8}{'requests':>10}{'hits':>7}"
        f"{'hit rate':>10}{'p95 ms':>9}"
    ]
    for index, entry in enumerate(shards):
        stats = entry.get("service", entry)
        latency = stats.get("latency_seconds", {})
        p95 = latency.get("p95")
        routed_count = ""
        if isinstance(routed, (list, tuple)):
            routed_count = routed[index] if index < len(routed) else 0
        elif routed is not None:
            routed_count = routed.get(str(index), routed.get(index, 0))
        lines.append(
            f"{index:>5}{routed_count!s:>8}{stats.get('requests', 0):>10}"
            f"{stats.get('cache_hits', 0):>7}"
            f"{stats.get('cache_hit_rate', 0.0):>9.1%}"
            f"{(f'{p95 * 1e3:.2f}' if p95 is not None and p95 == p95 else '-'):>9}"
        )
    return "\n".join(lines)


def render_recovery_and_tenants(report) -> list[str]:
    """What a chaos run and a tenanted run add to a replay's summary.

    Lines, not text: the plain ``loadtest`` output prints them after its
    own, the ``--report`` panel puts them in a block.  Faults and
    resilience counters come from the gateway snapshot (present only
    when a fault plan / resilience policy was configured), the table
    from the report's per-tenant buckets; an open, fault-free,
    untenanted run yields nothing.
    """
    gateway = report.stats.get("gateway", {})
    lines = []
    faults = gateway.get("faults")
    if faults:
        lines.append(
            f"faults injected : {faults['injected']} "
            f"(seed {faults['seed']}, {faults['planned']} planned)"
        )
    resilience = gateway.get("resilience")
    if resilience:
        lines.append(
            f"resilience      : retries {resilience['retries']}  "
            f"reroutes {resilience['reroutes']}  "
            f"breaker opens {resilience['breaker_opens']}  "
            f"shed on drain {resilience['shed_on_drain']}"
        )
        lines.append(f"breaker states  : {resilience['breaker_states']}")
    if report.tenants:
        lines.append("per-tenant      :")
        for name in sorted(report.tenants):
            bucket = report.tenants[name]
            lines.append(
                f"  {name:<14} submitted {bucket['submitted']:>5}  "
                f"answered {bucket['answered']:>5}  "
                f"quota-shed {bucket['quota_shed']:>4}  "
                f"shed {bucket['shed']:>4}  "
                f"rejected {bucket['rejected']:>4}  "
                f"p99 {report.tenant_latency_ms(name, 99):.2f} ms"
            )
    return lines


def render_loadtest_report(
    run: dict, ledger=None, spans: Optional[Sequence] = None
) -> str:
    """The full ``loadtest --report`` panel for one replay run.

    ``run`` carries ``scenario``/``policy``/``driver`` plus the
    :class:`~repro.service.replayer.ReplayReport`; ``ledger`` and
    ``spans`` (when telemetry was enabled) add the decision summary and
    span accounting.
    """
    report = run["report"]
    stats = report.stats
    aggregate = stats.get("aggregate", {})
    gateway = stats.get("gateway", {})
    header = (
        f"=== {run['scenario']} / {run.get('policy', '?')} policy / "
        f"{run.get('driver', '?')} driver ==="
    )
    lines = [
        header,
        f"requests {report.num_requests}  answered {report.answered}  "
        f"shed {report.shed}  rejected {report.rejected}  "
        f"errors {report.errors}",
        f"throughput {report.throughput_rps:,.0f} req/s  "
        f"cache hit rate {aggregate.get('cache_hit_rate', 0.0):.1%}",
    ]
    histogram = aggregate.get("latency_seconds", {}).get("histogram")
    if histogram:
        lines.append("")
        lines.append(render_histogram(histogram, title="latency"))
    shards = stats.get("shards")
    if shards:
        lines.append("")
        lines.append("shard heat:")
        lines.append(
            render_shard_heat(shards, gateway.get("routed_per_shard"))
        )
    recovery = render_recovery_and_tenants(report)
    if recovery:
        lines.append("")
        lines.extend(recovery)
    if ledger is not None:
        lines.append("")
        lines.append("ledger decisions:")
        for event, count in ledger.summary().items():
            lines.append(f"  {event:<12} {count:>6}")
    if spans is not None:
        by_name: dict[str, tuple[int, float]] = {}
        for span in spans:
            duration = span.duration or 0.0
            count, total = by_name.get(span.name, (0, 0.0))
            by_name[span.name] = (count + 1, total + duration)
        lines.append("")
        lines.append(f"spans ({len(spans)} exported):")
        top = sorted(
            by_name.items(), key=lambda item: item[1][1], reverse=True
        )[:10]
        for name, (count, total) in top:
            lines.append(
                f"  {name:<24} x{count:<6} {total * 1e3:9.2f} ms total"
            )
    return "\n".join(lines)


def render_trend_summary(trend: dict) -> str:
    """Render ``check_regression.py``'s trend JSON as a readable table.

    CI uploads this next to the raw trend so a regression is legible
    from the artifact listing without re-deriving deltas by hand.
    """
    lines = ["# Benchmark trend", ""]
    baseline_grid = trend.get("baseline_grid")
    current_grid = trend.get("current_grid")
    if baseline_grid or current_grid:
        lines.append(f"grid: {baseline_grid} -> {current_grid}")
        lines.append("")
    if trend.get("skipped"):
        lines.append(f"SKIPPED: {trend['skipped']}")
        return "\n".join(lines)
    lines.append(
        f"{'metric':<28}{'baseline':>12}{'current':>12}"
        f"{'delta':>9}{'verdict':>9}"
    )
    for name, entry in sorted(trend.get("metrics", {}).items()):
        if not isinstance(entry, dict):
            # hand-edited or truncated trend files happen; a malformed
            # entry loses its row, not the whole report
            lines.append(f"{name:<28}{'(malformed entry — skipped)':>42}")
            continue
        delta = entry.get("delta")
        delta_text = f"{delta:+.1%}" if delta is not None else "n/a"
        lines.append(
            f"{name:<28}{entry.get('baseline', 'n/a')!s:>12}"
            f"{entry.get('current', 'n/a')!s:>12}"
            f"{delta_text:>9}{entry.get('verdict', '?'):>9}"
        )
    lines.append("")
    regressions = trend.get("regressions") or []
    if regressions:
        lines.append(f"REGRESSIONS: {', '.join(regressions)}")
    else:
        lines.append("ok: all metrics within tolerance")
    return "\n".join(lines)
