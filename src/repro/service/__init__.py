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
"""

from .batch import SweepCell, estimate_many, sweep
from .cache import CacheStats, EstimateCache
from .context import NullLock, RequestContext, ServiceRequest
from .control import (
    DEFAULT_PRIORITY,
    QOS_CLASSES,
    AuthShimMiddleware,
    ControlPlane,
    RateLimitMiddleware,
    TenantConfig,
    TenantGrant,
    TokenBucket,
    qos_class,
    qos_priority,
)
from .core import (
    Admission,
    GatewayCore,
    ServiceCore,
    SingleFlight,
    aggregate_shard_stats,
)
from .engine import EstimationService
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    apply_fault_directive,
)
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    HedgePolicy,
    ResilienceCore,
    ResiliencePolicy,
    RetryBudget,
    RetryPolicy,
    default_resilience,
    is_transient,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    fingerprint_request,
    request_payload,
)
from .gateway import ServiceGateway
from .routing import (
    POLICY_NAMES,
    BroadcastWarmupRouting,
    ConsistentHashRouting,
    LeastLoadedRouting,
    RandomRouting,
    RoutingPolicy,
    make_policy,
)
from .metrics import ServiceMetrics, latency_histogram, percentile
from .telemetry import (
    AuditLedger,
    InMemorySpanExporter,
    JsonLinesSpanExporter,
    LedgerEvent,
    NullSpanExporter,
    Span,
    SpanExporter,
    Telemetry,
    Tracer,
    canonical_trace_trees,
    render_histogram,
    render_loadtest_report,
    render_trend_summary,
)
from .traffic import (
    CHAOS_SCENARIOS,
    SCENARIO_NAMES,
    TENANT_SCENARIOS,
    ReplayReport,
    SyntheticEstimator,
    TrafficRequest,
    TrafficTrace,
    chaos_plan,
    generate_traffic,
    make_control,
    replay,
    tenant_configs,
    workload_catalog,
)
from .aio import (
    AsyncEstimationService,
    AsyncServiceGateway,
    estimate_many_async,
    replay_async,
)
from .procpool import (
    MAX_WORKER_REDISPATCHES,
    PoolSupervisor,
    ProcEstimationService,
    ProcServiceGateway,
    default_estimator_factory,
)
from .wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    RemoteServiceError,
    WireProtocolError,
    encode_frame,
)
from .tcp import (
    AsyncTcpServiceClient,
    TcpEstimationServer,
    TcpServerThread,
    TcpServiceClient,
)
from .middleware import (
    CacheMiddleware,
    DeadlineMiddleware,
    MiddlewareChain,
    ServiceMiddleware,
    ValidationMiddleware,
    default_middlewares,
)

__all__ = [
    "Admission",
    "AsyncEstimationService",
    "AsyncServiceGateway",
    "AsyncTcpServiceClient",
    "AuditLedger",
    "AuthShimMiddleware",
    "BreakerConfig",
    "BroadcastWarmupRouting",
    "CHAOS_SCENARIOS",
    "CacheMiddleware",
    "CacheStats",
    "CircuitBreaker",
    "ConsistentHashRouting",
    "ControlPlane",
    "DEFAULT_PRIORITY",
    "DeadlineMiddleware",
    "EstimateCache",
    "EstimationService",
    "FAULT_KINDS",
    "FINGERPRINT_VERSION",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FrameDecoder",
    "GatewayCore",
    "HedgePolicy",
    "InMemorySpanExporter",
    "JsonLinesSpanExporter",
    "LeastLoadedRouting",
    "LedgerEvent",
    "MAX_FRAME_BYTES",
    "MAX_WORKER_REDISPATCHES",
    "MiddlewareChain",
    "NullLock",
    "NullSpanExporter",
    "POLICY_NAMES",
    "QOS_CLASSES",
    "PoolSupervisor",
    "ProcEstimationService",
    "ProcServiceGateway",
    "RandomRouting",
    "RateLimitMiddleware",
    "RemoteServiceError",
    "ReplayReport",
    "RequestContext",
    "ResilienceCore",
    "ResiliencePolicy",
    "RetryBudget",
    "RetryPolicy",
    "RoutingPolicy",
    "SCENARIO_NAMES",
    "ServiceCore",
    "ServiceGateway",
    "ServiceMetrics",
    "ServiceMiddleware",
    "ServiceRequest",
    "SingleFlight",
    "Span",
    "SpanExporter",
    "SweepCell",
    "SyntheticEstimator",
    "TENANT_SCENARIOS",
    "TcpEstimationServer",
    "TcpServerThread",
    "TcpServiceClient",
    "Telemetry",
    "TenantConfig",
    "TenantGrant",
    "TokenBucket",
    "Tracer",
    "TrafficRequest",
    "TrafficTrace",
    "ValidationMiddleware",
    "WireProtocolError",
    "aggregate_shard_stats",
    "apply_fault_directive",
    "canonical_trace_trees",
    "chaos_plan",
    "default_estimator_factory",
    "default_middlewares",
    "default_resilience",
    "encode_frame",
    "estimate_many",
    "estimate_many_async",
    "fingerprint_request",
    "generate_traffic",
    "is_transient",
    "latency_histogram",
    "make_control",
    "make_policy",
    "percentile",
    "qos_class",
    "qos_priority",
    "render_histogram",
    "render_loadtest_report",
    "render_trend_summary",
    "replay",
    "replay_async",
    "request_payload",
    "sweep",
    "tenant_configs",
    "workload_catalog",
]
