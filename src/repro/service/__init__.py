"""The estimation service: xMem as queryable middleware (paper §1, §6).

Wraps any estimator behind a request pipeline — fingerprint-keyed
caching, validation, rate limiting, an audit ledger — with a concurrent
worker pool and single-flight deduplication, so schedulers and admission
controllers can query estimates at cluster rates instead of once per
blocking call.  For traffic beyond one worker pool,
:class:`~repro.service.gateway.ServiceGateway` shards the service behind
pluggable fingerprint routing, and :mod:`repro.service.traffic` supplies
deterministic load scenarios to measure it with.

Quickstart::

    from repro import RTX_3060, WorkloadConfig
    from repro.service import EstimationService

    with EstimationService() as service:
        result = service.estimate(
            WorkloadConfig("gpt2", "adamw", 8), RTX_3060
        )
        print(result.summary())
        print(service.stats()["service"]["cache_hit_rate"])

The package re-exports only the names some caller outside ``tests/``
imports from it; everything else is imported from its defining module
(``repro.service.core``, ``repro.service.resilience``, ...).  A
re-export loads its module when it is first read, so importing the
package loads no driver: ``EstimationService`` brings no event loop,
and no process pool.
"""

from .._lazy import lazy_exports

#: every export and the module that defines it, imported on first use
_EXPORTS = {
    "estimate_many": ".batch",
    "sweep": ".batch",
    "EstimateCache": ".cache",
    "QOS_CLASSES": ".control",
    "AuthShimMiddleware": ".control",
    "ControlPlane": ".control",
    "RateLimitMiddleware": ".control",
    "TenantConfig": ".control",
    "TenantGrant": ".control",
    "qos_priority": ".control",
    "GatewayCore": ".core",
    "EstimationService": ".engine",
    "FaultPlan": ".faults",
    "FaultSpec": ".faults",
    "default_resilience": ".resilience",
    "fingerprint_request": ".fingerprint",
    "ServiceGateway": ".gateway",
    "POLICY_NAMES": ".routing",
    "ConsistentHashRouting": ".routing",
    "make_policy": ".routing",
    "ServiceMetrics": ".metrics",
    "Telemetry": ".telemetry",
    "render_loadtest_report": ".telemetry.report",
    "canonical_trace_trees": ".telemetry.spans",
    "CHAOS_SCENARIOS": ".traffic",
    "SCENARIO_NAMES": ".traffic",
    "TENANT_SCENARIOS": ".traffic",
    "SyntheticEstimator": ".traffic",
    "TrafficRequest": ".traffic",
    "TrafficTrace": ".traffic",
    "generate_traffic": ".traffic",
    "make_control": ".traffic",
    "replay": ".traffic",
    "AsyncEstimationService": ".aio",
    "AsyncServiceGateway": ".aio",
    "replay_async": ".aio",
    "ProcEstimationService": ".procpool",
    "ProcServiceGateway": ".procpool",
    "FrameDecoder": ".wire",
    "encode_frame": ".wire",
    "TcpServerThread": ".tcp",
    "TcpServiceClient": ".tcp",
    "CacheMiddleware": ".middleware",
    "ServiceMiddleware": ".middleware",
    "ValidationMiddleware": ".middleware",
    "default_middlewares": ".middleware",
}

__all__ = [
    "AsyncEstimationService",
    "AsyncServiceGateway",
    "AuthShimMiddleware",
    "CHAOS_SCENARIOS",
    "CacheMiddleware",
    "ConsistentHashRouting",
    "ControlPlane",
    "EstimateCache",
    "EstimationService",
    "FaultPlan",
    "FaultSpec",
    "FrameDecoder",
    "GatewayCore",
    "POLICY_NAMES",
    "ProcEstimationService",
    "ProcServiceGateway",
    "QOS_CLASSES",
    "RateLimitMiddleware",
    "SCENARIO_NAMES",
    "ServiceGateway",
    "ServiceMetrics",
    "ServiceMiddleware",
    "SyntheticEstimator",
    "TENANT_SCENARIOS",
    "TcpServerThread",
    "TcpServiceClient",
    "Telemetry",
    "TenantConfig",
    "TenantGrant",
    "TrafficRequest",
    "TrafficTrace",
    "ValidationMiddleware",
    "canonical_trace_trees",
    "default_middlewares",
    "default_resilience",
    "encode_frame",
    "estimate_many",
    "fingerprint_request",
    "generate_traffic",
    "make_control",
    "make_policy",
    "qos_priority",
    "render_loadtest_report",
    "replay",
    "replay_async",
    "sweep",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
