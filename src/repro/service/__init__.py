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
(``repro.service.core``, ``repro.service.resilience``, ...).
"""

from .batch import estimate_many, sweep
from .cache import EstimateCache
from .control import (
    QOS_CLASSES,
    AuthShimMiddleware,
    ControlPlane,
    RateLimitMiddleware,
    TenantConfig,
    TenantGrant,
    qos_priority,
)
from .core import GatewayCore
from .engine import EstimationService
from .faults import FaultPlan, FaultSpec
from .resilience import default_resilience
from .fingerprint import fingerprint_request
from .gateway import ServiceGateway
from .routing import POLICY_NAMES, ConsistentHashRouting, make_policy
from .metrics import ServiceMetrics
from .telemetry import Telemetry
from .telemetry.report import render_loadtest_report
from .telemetry.spans import canonical_trace_trees
from .traffic import (
    CHAOS_SCENARIOS,
    SCENARIO_NAMES,
    TENANT_SCENARIOS,
    SyntheticEstimator,
    TrafficRequest,
    TrafficTrace,
    generate_traffic,
    make_control,
    replay,
)
from .aio import AsyncEstimationService, AsyncServiceGateway, replay_async
from .procpool import ProcEstimationService, ProcServiceGateway
from .wire import FrameDecoder, encode_frame
from .tcp import TcpServerThread, TcpServiceClient
from .middleware import (
    CacheMiddleware,
    ServiceMiddleware,
    ValidationMiddleware,
    default_middlewares,
)

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
