"""The fault plane is data: specs validate, plans look up, seeds replay.

Covers :mod:`repro.service.faults` in isolation — spec validation,
plan lookup precedence (blackouts dominate point faults, connection
drops never reach a dispatched request), seeded generation determinism,
JSON round-trips, and the injector's index/count bookkeeping that the
chaos reports and determinism tests build on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InjectedFaultError, ShardBlackoutError
from repro.service import FaultPlan, FaultSpec
from repro.service.faults import (
    FAULT_KINDS,
    FaultInjector,
    apply_fault_directive,
)


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="power_outage", index=0)

    @pytest.mark.parametrize(
        "kind",
        ["estimator_error", "latency_spike", "worker_kill", "connection_drop"],
    )
    def test_point_fault_needs_index(self, kind):
        kwargs = {"latency_seconds": 0.01} if kind == "latency_spike" else {}
        with pytest.raises(ValueError, match="submission index"):
            FaultSpec(kind=kind, **kwargs)

    def test_blackout_needs_window_and_shard(self):
        with pytest.raises(ValueError, match="start, stop and shard"):
            FaultSpec(kind="shard_blackout", start=0, stop=8)

    def test_blackout_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="0 <= start < stop"):
            FaultSpec(kind="shard_blackout", start=8, stop=8, shard=0)

    def test_latency_spike_needs_duration(self):
        with pytest.raises(ValueError, match="latency_seconds"):
            FaultSpec(kind="latency_spike", index=3)

    def test_spec_round_trips_through_json(self):
        spec = FaultSpec(
            kind="latency_spike", index=7, latency_seconds=0.25
        )
        payload = json.loads(json.dumps(spec.as_dict()))
        assert FaultSpec.from_dict(payload) == spec


class TestFaultPlanLookup:
    def test_point_fault_fires_at_its_index_only(self):
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="estimator_error", index=3)]
        )
        assert plan.directive_for(3, shard=0) == {"kind": "estimator_error"}
        assert plan.directive_for(2, shard=0) is None
        assert plan.directive_for(4, shard=0) is None

    def test_blackout_covers_half_open_window_on_one_shard(self):
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="shard_blackout", start=4, stop=8, shard=1)]
        )
        assert plan.directive_for(4, shard=1) == {
            "kind": "shard_blackout",
            "shard": 1,
        }
        assert plan.directive_for(7, shard=1) is not None
        assert plan.directive_for(8, shard=1) is None  # stop is exclusive
        assert plan.directive_for(5, shard=0) is None  # other shards healthy

    def test_blackout_dominates_point_fault(self):
        plan = FaultPlan.from_specs(
            [
                FaultSpec(kind="estimator_error", index=5),
                FaultSpec(kind="shard_blackout", start=0, stop=10, shard=2),
            ]
        )
        assert plan.directive_for(5, shard=2)["kind"] == "shard_blackout"
        assert plan.directive_for(5, shard=0)["kind"] == "estimator_error"

    def test_connection_drop_never_dispatches(self):
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="connection_drop", index=2)]
        )
        assert plan.directive_for(2, shard=0) is None
        assert plan.is_connection_drop(2)
        assert not plan.is_connection_drop(1)

    def test_window_directive_ignores_point_faults(self):
        plan = FaultPlan.from_specs(
            [
                FaultSpec(kind="estimator_error", index=5),
                FaultSpec(kind="shard_blackout", start=0, stop=10, shard=1),
            ]
        )
        # a retry re-checks only window coverage: one-shot point faults
        # do not chase the request across attempts
        assert plan.window_directive(5, shard=0) is None
        assert plan.window_directive(5, shard=1)["kind"] == "shard_blackout"

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan.seeded(
            7, 64, 4, worker_kills=2, connection_drops=3, blackouts=1
        )
        payload = json.loads(json.dumps(plan.as_dict()))
        assert FaultPlan.from_dict(payload) == plan


class TestSeededGeneration:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            error_rate=0.1,
            latency_rate=0.1,
            worker_kills=2,
            connection_drops=2,
            blackouts=1,
        )
        assert FaultPlan.seeded(11, 128, 4, **kwargs) == FaultPlan.seeded(
            11, 128, 4, **kwargs
        )

    def test_different_seed_different_plan(self):
        assert FaultPlan.seeded(1, 256, 4, error_rate=0.2) != FaultPlan.seeded(
            2, 256, 4, error_rate=0.2
        )

    def test_point_faults_never_collide(self):
        plan = FaultPlan.seeded(
            3, 64, 4, error_rate=0.2, worker_kills=8, connection_drops=8
        )
        indices = [s.index for s in plan.specs if s.index is not None]
        assert len(indices) == len(set(indices))

    def test_every_generated_kind_is_known(self):
        plan = FaultPlan.seeded(
            5, 64, 4, worker_kills=1, connection_drops=1, blackouts=1
        )
        assert plan.specs  # non-degenerate
        assert {s.kind for s in plan.specs} <= set(FAULT_KINDS)


class TestFaultInjector:
    def test_next_index_is_a_counter(self):
        injector = FaultInjector(FaultPlan())
        assert [injector.next_index() for _ in range(3)] == [0, 1, 2]
        assert injector.cursor == 3

    def test_counts_tally_what_fired(self):
        plan = FaultPlan.from_specs(
            [
                FaultSpec(kind="estimator_error", index=0),
                FaultSpec(kind="shard_blackout", start=1, stop=3, shard=0),
            ]
        )
        injector = FaultInjector(plan)
        injector.directive_for(0, shard=0)
        injector.directive_for(1, shard=0)
        injector.directive_for(2, shard=1)  # healthy shard: nothing fires
        assert injector.snapshot()["injected"] == {
            "estimator_error": 1,
            "shard_blackout": 1,
        }

    def test_peek_window_counts_nothing_and_tolerates_none(self):
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="shard_blackout", start=0, stop=4, shard=0)]
        )
        injector = FaultInjector(plan)
        assert injector.peek_window(1, shard=0) is not None
        assert injector.peek_window(None, shard=0) is None
        assert injector.counts == {}

    def test_take_connection_drop_consumes_only_planned_indices(self):
        plan = FaultPlan.from_specs(
            [FaultSpec(kind="connection_drop", index=1)]
        )
        injector = FaultInjector(plan)
        assert not injector.take_connection_drop()  # index 0: not planned
        assert injector.next_index() == 0
        assert injector.take_connection_drop()  # index 1: dropped
        assert injector.next_index() == 2  # the drop consumed index 1
        assert injector.counts == {"connection_drop": 1}


class TestApplyFaultDirective:
    def test_none_is_a_no_op(self):
        apply_fault_directive(None)
        apply_fault_directive({})

    def test_estimator_error_raises_injected_fault(self):
        with pytest.raises(InjectedFaultError):
            apply_fault_directive({"kind": "estimator_error"})

    def test_worker_kill_degrades_to_injected_fault(self):
        # on substrates without killable workers the directive still fails
        with pytest.raises(InjectedFaultError):
            apply_fault_directive({"kind": "worker_kill"})

    def test_blackout_raises_typed_error_with_shard(self):
        with pytest.raises(ShardBlackoutError):
            apply_fault_directive({"kind": "shard_blackout", "shard": 2})

    def test_latency_spike_sleeps_then_proceeds(self):
        apply_fault_directive(
            {"kind": "latency_spike", "latency_seconds": 0.0}
        )
