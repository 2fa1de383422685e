"""The multi-tenant control plane: quotas, fair share, QoS, auth shim.

Property tests pin the token-bucket edge cases (zero capacity, exact
refill boundary, clock skew) and the determinism claim the cross-driver
benchmark rides on: the same admission request sequence against two
freshly built planes produces the identical decision sequence.  Unit
tests cover the decision order (hopeless deadline before auth before
quota before fair share), the QoS reserve, the gateway integration
(counters, ledger events, snapshots), and the auth shim's authn/authz
split.
"""

from __future__ import annotations

import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    DeadlineExceededError,
    QuotaExceededError,
    RateLimitExceededError,
)
from repro.service import (
    QOS_CLASSES,
    AuthShimMiddleware,
    ControlPlane,
    EstimationService,
    ServiceGateway,
    SyntheticEstimator,
    Telemetry,
    TenantConfig,
    TenantGrant,
    generate_traffic,
    make_control,
    qos_priority,
    replay,
)
from repro.service.control import DEFAULT_PRIORITY, TokenBucket, qos_class
from repro.service.traffic import tenant_configs
from repro.service import control
from repro.service.wire import error_from_wire, error_to_wire
from repro.workload import RTX_3060, WorkloadConfig

WORKLOAD = WorkloadConfig(model="MobileNetV3Small", optimizer="sgd", batch_size=8)


# ----------------------------------------------------------------------
# QoS classes
# ----------------------------------------------------------------------


class TestQosClasses:
    def test_names_round_trip(self):
        for name, priority in QOS_CLASSES.items():
            assert qos_class(priority) == name
            assert qos_priority(name) == priority

    def test_unknown_priority_clamps_to_batch(self):
        assert qos_class(99) == "batch"
        assert qos_class(-3) == "interactive"

    def test_unknown_class_name_raises(self):
        with pytest.raises(ValueError, match="interactive"):
            qos_priority("platinum")


# ----------------------------------------------------------------------
# token bucket properties
# ----------------------------------------------------------------------

rates = st.floats(
    min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False
)


class TestTokenBucketProperties:
    @settings(max_examples=120, deadline=None)
    @given(rate=rates, steps=st.lists(rates, min_size=1, max_size=20))
    def test_zero_capacity_never_grants(self, rate, steps):
        bucket = TokenBucket(0.0, rate)
        now = 0.0
        for step in steps:
            now += step
            bucket.refill(now)
            assert not bucket.peek()
            assert bucket.tokens == 0.0

    @settings(max_examples=120, deadline=None)
    @given(rate=rates)
    def test_exact_refill_boundary_grants_again(self, rate):
        bucket = TokenBucket(1.0, rate)
        bucket.take()
        assert not bucket.peek()
        bucket.refill(1.0 / rate)  # exactly cost/rate later: >=, not >
        assert bucket.peek()

    @settings(max_examples=120, deadline=None)
    @given(
        rate=rates,
        capacity=st.floats(min_value=1.0, max_value=100.0),
        jumps=st.lists(
            st.floats(
                min_value=-50.0,
                max_value=50.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_clock_skew_mints_nothing_and_caps_at_capacity(
        self, rate, capacity, jumps
    ):
        bucket = TokenBucket(capacity, rate)
        bucket.take()
        now = 0.0
        for jump in jumps:
            before = bucket.tokens
            now += jump
            bucket.refill(now)
            if jump <= 0:  # a backwards (or frozen) clock mints nothing
                assert bucket.tokens == before
            assert bucket.tokens <= capacity + 1e-9

    def test_deficit_time(self):
        bucket = TokenBucket(4.0, 0.5)
        assert bucket.deficit_time() == 0.0
        for _ in range(4):
            bucket.take()
        assert bucket.deficit_time() == pytest.approx(2.0)
        assert TokenBucket(0.0, 0.0).deficit_time() == float("inf")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, -1.0)


# ----------------------------------------------------------------------
# control plane determinism + decision order
# ----------------------------------------------------------------------

ROSTER = (
    TenantConfig("gold", quota_rate=0.6, quota_burst=4.0, weight=3.0),
    TenantConfig("bronze", quota_rate=0.2, quota_burst=2.0, weight=1.0),
)


def _decide(plane: ControlPlane, calls) -> list[tuple]:
    outcomes = []
    for tenant, priority, deadline_remaining in calls:
        try:
            cause = plane.admit(
                tenant=tenant,
                priority=priority,
                deadline_remaining=deadline_remaining,
            )
            outcomes.append(("admitted", cause))
        except QuotaExceededError as error:
            outcomes.append(("denied", error.scope, error.tenant))
        except DeadlineExceededError:
            outcomes.append(("hopeless",))
        except AuthenticationError:
            outcomes.append(("unauthenticated",))
    return outcomes


#: registered tenants plus more strangers than the patched-down cap
#: below admits on their own buckets, so the shared overflow state is
#: part of what must replay identically
TENANTS = ("gold", "bronze", "stranger") + tuple(f"s{i}" for i in range(5))
small_stranger_table = mock.patch.object(control, "MAX_LAZY_TENANTS", 3)

admission_calls = st.lists(
    st.tuples(
        st.sampled_from(TENANTS),
        st.sampled_from((0, 1, 2)),
        st.sampled_from((None, -0.5, 5.0)),
    ),
    min_size=1,
    max_size=80,
)


class TestControlPlaneProperties:
    @small_stranger_table
    @settings(max_examples=80, deadline=None)
    @given(calls=admission_calls)
    def test_same_sequence_same_decisions(self, calls):
        build = lambda: ControlPlane(  # noqa: E731 - local factory
            ROSTER,
            admit_rate=0.8,
            admit_burst=8.0,
            default_config=TenantConfig("guest", quota_rate=0.1),
        )
        assert _decide(build(), calls) == _decide(build(), calls)

    @small_stranger_table
    @settings(max_examples=80, deadline=None)
    @given(calls=admission_calls)
    def test_admitted_never_exceeds_quota_budget(self, calls):
        plane = ControlPlane(
            ROSTER, admit_rate=10.0, admit_burst=1000.0, strict=False,
            default_config=TenantConfig("guest", quota_rate=0.1),
        )
        _decide(plane, calls)
        snapshot = plane.snapshot()
        assert len(snapshot["tenants"]) <= len(ROSTER) + 3
        ticks = snapshot["tick"]
        for name, counters in snapshot["tenants"].items():
            config = next(
                (c for c in ROSTER if c.name == name),
                TenantConfig("guest", quota_rate=0.1),
            )
            budget = config.quota_burst + config.quota_rate * ticks
            assert counters["admitted"] <= budget + 1e-9, (name, counters)


class TestControlPlaneDecisions:
    def test_hopeless_deadline_sheds_before_spending_tokens(self):
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=0.0, quota_burst=2.0)],
            admit_rate=0.0,
            admit_burst=2.0,
        )
        with pytest.raises(DeadlineExceededError):
            plane.admit(tenant="t", deadline_remaining=0.0)
        # both admissions still succeed: the hopeless shed burned nothing
        plane.admit(tenant="t")
        plane.admit(tenant="t")
        snapshot = plane.snapshot()["tenants"]["t"]
        assert snapshot["hopeless_shed"] == 1
        assert snapshot["admitted"] == 2

    def test_strict_mode_refuses_unknown_tenants(self):
        plane = ControlPlane(ROSTER, strict=True)
        with pytest.raises(AuthenticationError):
            plane.admit(tenant="stranger")

    def test_no_default_also_refuses_unknown_tenants(self):
        plane = ControlPlane(ROSTER)
        with pytest.raises(AuthenticationError):
            plane.admit(tenant="stranger")

    def test_default_config_admits_strangers_without_renormalizing(self):
        plane = ControlPlane(
            ROSTER,
            admit_rate=4.0,
            admit_burst=8.0,
            default_config=TenantConfig("guest", quota_rate=1.0),
        )
        before = plane.snapshot()["tenants"]["gold"]["weight"]
        assert plane.admit(tenant="stranger") == "tenant:stranger"
        # the stranger's arrival must not shrink existing tenants' shares
        assert plane.snapshot()["tenants"]["gold"]["weight"] == before

    def test_stranger_table_is_bounded_and_counters_conserve(self):
        """Tenant names come off the wire: minting them must not grow
        the plane.  Past the cap strangers share one overflow state."""
        plane = ControlPlane(
            ROSTER,
            admit_rate=4.0,
            admit_burst=8.0,
            default_config=TenantConfig("guest", quota_rate=0.1),
        )
        names = [f"minted-{i}" for i in range(control.MAX_LAZY_TENANTS + 1000)]
        outcomes = _decide(plane, [(name, 1, None) for name in names])
        tenants = plane.snapshot()["tenants"]
        assert len(tenants) == control.MAX_LAZY_TENANTS + len(ROSTER)
        # under the cap a stranger is admitted on its own buckets, under
        # its own name; past it, on the shared state (which soon sheds)
        assert outcomes[0] == ("admitted", "tenant:minted-0")
        overflow = tenants[control.OVERFLOW_TENANT]
        assert overflow["admitted"] >= 1 and overflow["quota_shed"] >= 1
        assert ("denied", "quota", control.OVERFLOW_TENANT) in outcomes
        decided = sum(
            row["admitted"] + row["quota_shed"] + row["share_shed"]
            for row in tenants.values()
        )
        assert decided == len(names) == plane.snapshot()["tick"]
        # a name seen before the table filled keeps its own state
        assert plane._state("minted-0") is not plane._state("minted-late")
        assert plane._state("minted-late").config.name == control.OVERFLOW_TENANT

    def test_registering_the_overflow_name_is_refused(self):
        with pytest.raises(ValueError, match="reserved"):
            ControlPlane([TenantConfig(control.OVERFLOW_TENANT)])

    def test_quota_exhaustion_is_scope_quota(self):
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=0.0, quota_burst=1.0)],
            admit_rate=100.0,
            admit_burst=100.0,
        )
        plane.admit(tenant="t")
        with pytest.raises(QuotaExceededError) as info:
            plane.admit(tenant="t")
        assert info.value.scope == "quota"
        assert info.value.tenant == "t"
        # a quota denial is shed-shaped for every existing handler
        assert isinstance(info.value, RateLimitExceededError)

    def test_share_exhaustion_is_scope_fair_share(self):
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=100.0, quota_burst=100.0)],
            admit_rate=0.0,
            admit_burst=2.0,
        )
        plane.admit(tenant="t")
        plane.admit(tenant="t")
        with pytest.raises(QuotaExceededError) as info:
            plane.admit(tenant="t")
        assert info.value.scope == "fair_share"

    def test_denial_burns_no_tokens_from_the_other_bucket(self):
        # quota bucket of 1, share bucket of 2: the second (quota-denied)
        # admit must not drain the share bucket, so after the quota is
        # manually refilled the share still has its token
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=0.5, quota_burst=1.0)],
            admit_rate=0.0,
            admit_burst=2.0,
        )
        plane.admit(tenant="t")
        with pytest.raises(QuotaExceededError):
            plane.admit(tenant="t")  # quota dry; share must be untouched
        plane.admit(tenant="t")  # tick 3: quota refilled 2 x 0.5 = 1
        snapshot = plane.snapshot()["tenants"]["t"]
        assert snapshot["admitted"] == 2
        assert snapshot["quota_shed"] == 1
        assert snapshot["share_shed"] == 0

    def test_batch_stops_at_the_reserve_interactive_continues(self):
        # share capacity 4 with a 50% batch reserve: batch drains the
        # share to 2 and stops; interactive still has 2 tokens to spend
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=10.0, quota_burst=100.0)],
            admit_rate=0.0,
            admit_burst=4.0,
        )
        batch = qos_priority("batch")
        interactive = qos_priority("interactive")
        assert plane.admit(tenant="t", priority=batch)
        assert plane.admit(tenant="t", priority=batch)
        with pytest.raises(QuotaExceededError) as info:
            plane.admit(tenant="t", priority=batch)
        assert info.value.scope == "fair_share"
        assert plane.admit(tenant="t", priority=interactive)
        assert plane.admit(tenant="t", priority=interactive)
        with pytest.raises(QuotaExceededError):
            plane.admit(tenant="t", priority=interactive)

    def test_wall_clock_mode_takes_an_injectable_clock(self):
        clock = [0.0]
        plane = ControlPlane(
            [TenantConfig("t", quota_rate=1.0, quota_burst=1.0)],
            admit_rate=100.0,
            admit_burst=100.0,
            clock=lambda: clock[0],
        )
        plane.admit(tenant="t")
        with pytest.raises(QuotaExceededError):
            plane.admit(tenant="t")
        clock[0] = 1.0  # one clock unit refills one token
        plane.admit(tenant="t")

    def test_empty_roster_needs_a_default(self):
        with pytest.raises(ValueError):
            ControlPlane([])
        ControlPlane([], default_config=TenantConfig("guest"))


# ----------------------------------------------------------------------
# gateway integration
# ----------------------------------------------------------------------


def _gateway(control, telemetry=None, **kwargs):
    return ServiceGateway(
        num_shards=2,
        estimator_factory=SyntheticEstimator,
        control=control,
        telemetry=telemetry,
        **kwargs,
    )


class TestGatewayIntegration:
    def test_quota_denial_counts_as_shed_and_ledger_quota_event(self):
        telemetry = Telemetry()
        control = ControlPlane(
            [TenantConfig("t", quota_rate=0.0, quota_burst=1.0)],
            admit_rate=100.0,
            admit_burst=100.0,
        )
        with _gateway(control, telemetry) as gateway:
            gateway.submit(WORKLOAD, RTX_3060, tenant="t").result()
            with pytest.raises(QuotaExceededError):
                gateway.submit(WORKLOAD, RTX_3060, tenant="t")
            stats = gateway.stats()["gateway"]
        assert stats["shed"] == 1
        assert stats["control"]["tenants"]["t"]["quota_shed"] == 1
        events = [
            entry
            for entry in telemetry.ledger.decision_sequence()
            if entry[0] == "quota"
        ]
        assert events and events[0][1] == "quota:t"

    def test_auth_refusal_counts_as_rejected_not_shed(self):
        control = ControlPlane(ROSTER, strict=True)
        with _gateway(control) as gateway:
            with pytest.raises(AuthenticationError):
                gateway.submit(WORKLOAD, RTX_3060, tenant="stranger")
            stats = gateway.stats()["gateway"]
        assert stats["rejected"] == 1
        assert stats["shed"] == 0

    def test_hopeless_deadline_is_shed_at_the_gateway(self):
        telemetry = Telemetry()
        control = ControlPlane([TenantConfig("t")])
        with _gateway(control, telemetry) as gateway:
            with pytest.raises(DeadlineExceededError):
                gateway.submit(
                    WORKLOAD,
                    RTX_3060,
                    tenant="t",
                    deadline=time.perf_counter() - 1.0,
                )
            stats = gateway.stats()["gateway"]
        assert stats["rejected"] == 1
        causes = [
            entry[1]
            for entry in telemetry.ledger.decision_sequence()
            if entry[0] == "deadline"
        ]
        assert "hopeless_at_gateway" in causes

    def test_control_less_gateway_unchanged(self):
        with ServiceGateway(
            num_shards=2, estimator_factory=SyntheticEstimator
        ) as gateway:
            gateway.submit(WORKLOAD, RTX_3060).result()
            stats = gateway.stats()["gateway"]
        assert "control" not in stats

    def test_decision_sequence_identical_threads_vs_asyncio(self):
        import asyncio

        from repro.service import AsyncServiceGateway, replay_async

        trace = generate_traffic("noisy-neighbor", 48, seed=3)
        threads_t = Telemetry()
        with _gateway(make_control("noisy-neighbor"), threads_t) as gateway:
            threads_report = replay(trace, gateway)

        async def _go(telemetry):
            gateway = AsyncServiceGateway(
                num_shards=2,
                estimator_factory=SyntheticEstimator,
                control=make_control("noisy-neighbor"),
                telemetry=telemetry,
            )
            try:
                return await replay_async(trace, gateway)
            finally:
                await gateway.aclose()

        asyncio_t = Telemetry()
        asyncio_report = asyncio.run(_go(asyncio_t))
        assert threads_report.tenants == asyncio_report.tenants
        admission = lambda ledger: [  # noqa: E731 - local filter
            entry
            for entry in ledger.decision_sequence()
            if entry[0] in ("quota", "auth", "deadline", "shed")
        ]
        assert admission(threads_t.ledger) == admission(asyncio_t.ledger)
        assert admission(threads_t.ledger), "flood produced no decisions"


# ----------------------------------------------------------------------
# auth shim middleware
# ----------------------------------------------------------------------


class TestAuthShim:
    def _service(self, *grants, tokens=None):
        return EstimationService(
            estimator=SyntheticEstimator(),
            middlewares=(AuthShimMiddleware(grants, tokens=tokens),),
        )

    def test_valid_token_passes(self):
        with self._service(TenantGrant("acme")) as service:
            result = service.submit(
                WORKLOAD,
                RTX_3060,
                tenant="acme",
                metadata={"auth_token": "token-acme"},
            ).result()
        assert result.peak_bytes > 0

    def test_missing_token_is_unauthenticated(self):
        with self._service(TenantGrant("acme")) as service:
            with pytest.raises(AuthenticationError, match="no auth_token"):
                service.submit(WORKLOAD, RTX_3060, tenant="acme")

    def test_unknown_token_is_unauthenticated(self):
        with self._service(TenantGrant("acme")) as service:
            with pytest.raises(AuthenticationError, match="unknown"):
                service.submit(
                    WORKLOAD,
                    RTX_3060,
                    tenant="acme",
                    metadata={"auth_token": "forged"},
                )

    def test_token_tenant_mismatch_is_unauthenticated(self):
        grants = (TenantGrant("acme"), TenantGrant("rival"))
        with self._service(*grants) as service:
            with pytest.raises(AuthenticationError, match="claims"):
                service.submit(
                    WORKLOAD,
                    RTX_3060,
                    tenant="acme",
                    metadata={"auth_token": "token-rival"},
                )

    def test_an_untenanted_request_cannot_borrow_a_token(self):
        """The token's tenant must match the claimed one, and claiming
        none is no match: a token holder is never admitted under the
        gateway's stranger bucket instead of its own quota."""
        with self._service(TenantGrant("acme")) as service:
            with pytest.raises(AuthenticationError, match="claims ''"):
                service.submit(
                    WORKLOAD,
                    RTX_3060,
                    metadata={"auth_token": "token-acme"},
                )

    def test_model_outside_grant_is_unauthorized(self):
        grant = TenantGrant("acme", models=frozenset({"SqueezeNet"}))
        with self._service(grant) as service:
            with pytest.raises(AuthorizationError, match="no grant"):
                service.submit(
                    WORKLOAD,
                    RTX_3060,
                    tenant="acme",
                    metadata={"auth_token": "token-acme"},
                )

    def test_priority_above_grant_floor_is_unauthorized(self):
        grant = TenantGrant("acme", min_priority=1)
        with self._service(grant) as service:
            with pytest.raises(AuthorizationError, match="interactive"):
                service.submit(
                    WORKLOAD,
                    RTX_3060,
                    tenant="acme",
                    priority=qos_priority("interactive"),
                    metadata={"auth_token": "token-acme"},
                )
            # the floor itself is fine
            service.submit(
                WORKLOAD,
                RTX_3060,
                tenant="acme",
                priority=DEFAULT_PRIORITY,
                metadata={"auth_token": "token-acme"},
            ).result()

    def test_explicit_token_map(self):
        grant = TenantGrant("acme")
        with self._service(tokens={"s3cret": grant}) as service:
            service.submit(
                WORKLOAD,
                RTX_3060,
                tenant="acme",
                metadata={"auth_token": "s3cret"},
            ).result()


# ----------------------------------------------------------------------
# wire compatibility
# ----------------------------------------------------------------------


class TestWireCompat:
    def test_quota_error_round_trips_with_tenant_and_scope(self):
        error = QuotaExceededError(
            "acme", retry_after_seconds=1.5, scope="fair_share"
        )
        restored = error_from_wire(error_to_wire(error))
        assert isinstance(restored, QuotaExceededError)
        assert restored.tenant == "acme"
        assert restored.scope == "fair_share"
        assert restored.retry_after_seconds == 1.5

    def test_auth_errors_round_trip_as_their_own_types(self):
        for error in (
            AuthenticationError("bad token"),
            AuthorizationError("no grant"),
        ):
            restored = error_from_wire(error_to_wire(error))
            assert type(restored) is type(error)


# ----------------------------------------------------------------------
# calibrated tenant scenarios
# ----------------------------------------------------------------------


class TestTenantScenarios:
    def test_tenant_configs_matches_generated_traffic(self):
        for scenario in ("noisy-neighbor", "quota-storm"):
            names = {config.name for config in tenant_configs(scenario)}
            trace = generate_traffic(scenario, 60, seed=0)
            assert {r.tenant for r in trace.requests} <= names

    def test_unknown_tenant_scenario_raises(self):
        with pytest.raises(ValueError, match="noisy-neighbor"):
            tenant_configs("zipf")

    def test_make_control_builds_fresh_state(self):
        first = make_control("noisy-neighbor")
        first.admit(tenant="hostile")
        second = make_control("noisy-neighbor")
        assert second.snapshot()["tick"] == 0

    def test_priority_inversion_interactive_survives_the_batch_flood(self):
        trace = generate_traffic("priority-inversion", 100, seed=1)
        with _gateway(make_control("priority-inversion")) as gateway:
            interactive_denied = 0
            interactive_total = 0
            for request in trace.requests:
                if request.priority == 0:
                    interactive_total += 1
                try:
                    gateway.submit(
                        request.workload,
                        request.device,
                        tenant=request.tenant,
                        priority=request.priority,
                    ).result()
                except QuotaExceededError:
                    if request.priority == 0:
                        interactive_denied += 1
                except RateLimitExceededError:
                    pass
        assert interactive_total > 0
        assert interactive_denied == 0, (
            f"{interactive_denied}/{interactive_total} interactive "
            "requests starved by the same tenant's batch flood"
        )
