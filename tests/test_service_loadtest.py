"""``service.loadtest.run_trace``: one entry point, four drivers."""

from functools import partial

import pytest

from repro.errors import RateLimitExceededError, RequestRejectedError
from repro.service import (
    AsyncServiceGateway,
    SyntheticEstimator,
    TcpServerThread,
    generate_traffic,
    make_control,
)
from repro.service.loadtest import (
    DRIVERS,
    parse_tenant_spec,
    run_trace,
)

#: a worker pool costs a second to start: keep it out of the fast lane
ALL_DRIVERS = [
    pytest.param(driver, marks=pytest.mark.slow)
    if driver == "processes"
    else driver
    for driver in DRIVERS
]


def refusals_into(indices: list):
    """An ``on_outcome`` that keeps the index of every shed request."""

    def on_outcome(index, result, error):
        if isinstance(error, RateLimitExceededError):
            indices.append(index)

    return on_outcome


class TestOutcomeParity:
    @pytest.mark.parametrize("driver", ["threads", "asyncio", "tcp"])
    def test_zipf_2000_at_cli_defaults_is_answered_in_full(self, driver):
        """``xmem loadtest --scenario zipf --requests 2000`` — the
        gateway constructors' defaults are the CLI's.  Was 510 answered,
        1 490 shed on asyncio: a 500-request wave went in before the loop
        could settle one completion."""
        trace = generate_traffic("zipf", 2000, seed=0)
        report, _ = run_trace(
            driver, trace, estimator_factory=SyntheticEstimator
        )
        assert (report.answered, report.shed) == (2000, 0)
        assert report.rejected == report.errors == 0

    @pytest.mark.parametrize("driver", ["threads", "asyncio", "tcp"])
    def test_zipf_2000_of_slow_estimates_is_answered_in_full(self, driver):
        """The same trace at 20 ms an estimate.  The TCP client has no
        ``max_queue_depth``, so the replayer reads the server gateway's
        from ``stats()``; it once sent each 500-request wave whole, and
        one read's frames went in before a completion could reach the
        loop: 1 853 answered, 147 shed."""
        trace = generate_traffic("zipf", 2000, seed=0)
        report, _ = run_trace(
            driver,
            trace,
            estimator_factory=partial(SyntheticEstimator, work_seconds=0.02),
        )
        assert (report.answered, report.shed) == (2000, 0)
        assert report.rejected == report.errors == 0

    @pytest.mark.slow
    def test_processes_shed_only_while_the_first_answers_are_in_flight(self):
        """The same trace on the process pool: a cold miss is a round
        trip to a worker (milliseconds), so a submitter that did not wait
        would fill a shard's queue with duplicates before the first
        answer.  The replayer keeps at most ``max_queue_depth`` requests
        in flight, so the pool answers in full, like the other three
        drivers."""
        trace = generate_traffic("zipf", 2000, seed=0)
        shed_at = []
        report, _ = run_trace(
            "processes",
            trace,
            on_outcome=refusals_into(shed_at),
            estimator_factory=SyntheticEstimator,
        )
        assert (report.answered, report.shed) == (2000, 0)
        assert report.rejected == report.errors == 0
        assert shed_at == []

    @pytest.mark.parametrize("driver", ALL_DRIVERS)
    def test_a_queue_that_is_full_sheds_where_the_submitter_does_not_wait(
        self, driver
    ):
        """Slow estimates, one shard, depth 2, one 40-request wave: both
        replayers wait for a slot before submitting past the depth, on
        the TCP client too (the depth read from the server's stats), so
        no driver sheds."""
        trace = generate_traffic("uniform", 40, seed=0, waves=1)
        report, _ = run_trace(
            driver,
            trace,
            num_shards=1,
            max_queue_depth=2,
            estimator_factory=partial(SyntheticEstimator, work_seconds=0.01),
        )
        assert (report.answered, report.shed) == (40, 0)


class TestRunTrace:
    @pytest.mark.parametrize("driver", ALL_DRIVERS)
    def test_outcomes_arrive_by_submission_index(self, driver):
        trace = generate_traffic("adversarial", 30, seed=0)
        seen = {}

        def on_outcome(index, result, error):
            assert index not in seen
            seen[index] = result if error is None else error

        report, _ = run_trace(
            driver,
            trace,
            on_outcome=on_outcome,
            estimator_factory=SyntheticEstimator,
        )
        ordered = [request for wave in trace.waves() for request in wave]
        assert sorted(seen) == list(range(len(trace)))
        answered = [i for i, got in seen.items() if not isinstance(got, Exception)]
        assert len(answered) == report.answered
        for index in answered:
            assert seen[index].workload == ordered[index].workload
        rejected = [
            i for i, got in seen.items() if isinstance(got, RequestRejectedError)
        ]
        assert len(rejected) == report.rejected > 0

    @pytest.mark.parametrize("driver", ALL_DRIVERS)
    def test_probes_run_on_the_still_warm_target(self, driver):
        trace = generate_traffic("zipf", 20, seed=0)
        pairs = [(r.workload, r.device) for r in trace.requests[:3]]
        report, results = run_trace(
            driver, trace, probes=pairs, estimator_factory=SyntheticEstimator
        )
        direct = SyntheticEstimator()
        assert [r.peak_bytes for r in results] == [
            direct.estimate(w, d).peak_bytes for w, d in pairs
        ]
        # the report was taken before the probes: they are not in it
        assert report.stats["aggregate"]["requests"] == 20

    def test_quota_sheds_are_reported_on_every_driver_alike(self):
        trace = generate_traffic("noisy-neighbor", 48, seed=3)
        tenants = {}
        for driver in ("threads", "asyncio", "tcp"):
            sheds = []
            report, _ = run_trace(
                driver,
                trace,
                on_outcome=refusals_into(sheds),
                num_shards=2,
                estimator_factory=SyntheticEstimator,
                control=make_control("noisy-neighbor"),
            )
            assert len(sheds) == report.shed > 0
            tenants[driver] = (report.tenants, sheds)
        assert tenants["asyncio"] == tenants["tcp"] == tenants["threads"]

    def test_connect_drives_a_server_that_is_already_running(self):
        factory = partial(
            AsyncServiceGateway,
            num_shards=3,
            estimator_factory=SyntheticEstimator,
        )
        trace = generate_traffic("zipf", 20, seed=0)
        with TcpServerThread(factory) as server:
            # local gateway keywords are not used: the remote has 3 shards
            report, _ = run_trace(
                "tcp", trace, connect=server.address, num_shards=1
            )
        assert report.answered == 20
        assert report.stats["gateway"]["num_shards"] == 3

    def test_connect_is_refused_off_the_tcp_driver(self):
        trace = generate_traffic("zipf", 4, seed=0)
        with pytest.raises(ValueError, match="tcp"):
            run_trace("threads", trace, connect=("127.0.0.1", 1))
        with pytest.raises(ValueError, match="unknown driver"):
            run_trace("fibers", trace)


class TestTenantSpec:
    def test_trailing_parts_are_optional(self):
        full = parse_tenant_spec("acme=2:16:3")
        assert (full.name, full.quota_rate, full.quota_burst, full.weight) == (
            "acme", 2.0, 16.0, 3.0,
        )
        bare = parse_tenant_spec("acme")
        assert (bare.quota_rate, bare.quota_burst, bare.weight) == (1.0, 8.0, 1.0)
        assert parse_tenant_spec("acme=:4").quota_burst == 4.0

    @pytest.mark.parametrize("spec", ["=1", " =2:3", "a=1:2:3:4", "a=x"])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_tenant_spec(spec)
