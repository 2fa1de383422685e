"""Traffic scenarios: determinism, shape guarantees, replay accounting."""

import asyncio
import hashlib
import json
import threading
from collections import deque
from concurrent.futures import Future
from functools import partial

import pytest

from repro.errors import RateLimitExceededError
from repro.service import (
    SCENARIO_NAMES,
    TENANT_SCENARIOS,
    ServiceGateway,
    SyntheticEstimator,
    generate_traffic,
    make_control,
    replay,
    replay_async,
)
from repro.service.faults import CHAOS_SCENARIOS, chaos_plan
from repro.service.traffic import (
    TrafficRequest,
    TrafficTrace,
    workload_catalog,
)
from repro.service.middleware import (
    RequestContext,
    ServiceRequest,
    ValidationMiddleware,
)
from repro.workload import RTX_3060


class TestCatalog:
    def test_deterministic_and_distinct(self):
        first = workload_catalog(12, seed=5)
        second = workload_catalog(12, seed=5)
        assert first == second
        assert len({w.to_key() for w in first}) == 12

    def test_different_seeds_differ(self):
        assert workload_catalog(12, seed=1) != workload_catalog(12, seed=2)

    def test_catalog_entries_pass_validation(self):
        middleware = ValidationMiddleware()
        for workload in workload_catalog(16, seed=0):
            request = ServiceRequest(
                workload=workload, device=RTX_3060, fingerprint="x"
            )
            ctx = RequestContext(request_id=1, submitted_at=0.0)
            assert middleware.on_request(request, ctx) is None

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            workload_catalog(0)
        with pytest.raises(ValueError):
            workload_catalog(10_000)


class TestGeneration:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_deterministic_per_seed(self, scenario):
        first = generate_traffic(scenario, 80, seed=9)
        second = generate_traffic(scenario, 80, seed=9)
        assert first == second
        assert len(first) == 80

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_waves_partition_the_trace(self, scenario):
        trace = generate_traffic(scenario, 50, seed=0, waves=5)
        waves = trace.waves()
        assert sum(len(wave) for wave in waves) == 50
        assert len(waves) == 5

    def test_zipf_concentrates_on_a_hot_key(self):
        trace = generate_traffic("zipf", 300, seed=0, unique_workloads=8)
        counts: dict = {}
        for request in trace.requests:
            key = (request.workload.to_key(), request.device.to_key())
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts.values())
        assert hottest > 300 / 8  # far above the uniform share

    def test_duplicate_storm_is_mostly_one_request(self):
        trace = generate_traffic("duplicate-storm", 200, seed=1)
        counts: dict = {}
        for request in trace.requests:
            key = (request.workload.to_key(), request.device.to_key())
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) > 0.7 * 200

    def test_adversarial_never_repeats_its_cache_busters(self):
        trace = generate_traffic("adversarial", 90, seed=0)
        busters = [
            r.workload
            for r in trace.requests
            if r.workload.batch_size >= 64
        ]
        assert busters  # a third of the stream
        assert len({w.to_key() for w in busters}) == len(busters)

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("num_requests", (1, 2, 3))
    def test_size_contract_holds_below_wave_count(
        self, scenario, num_requests
    ):
        # fewer requests than waves must still produce exactly the asked
        # number (bursty used to pad every wave to at least one request)
        trace = generate_traffic(scenario, num_requests, seed=0, waves=4)
        assert len(trace) == num_requests

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            generate_traffic("tsunami", 10)
        with pytest.raises(ValueError):
            generate_traffic("uniform", 0)
        with pytest.raises(ValueError):
            generate_traffic("uniform", 10, waves=0)


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:16]


def _trace_rows(trace: TrafficTrace) -> list:
    return [
        (r.workload.to_key(), r.device.to_key(), r.wave, r.tenant, r.priority)
        for r in trace.requests
    ]


#: ``generate_traffic(name, 64, seed=seed)`` per (name, seed): the
#: inputs the benchmarks and the end-to-end workloads are built from
TRAFFIC_DIGESTS = {
    ("uniform", 0): "c9c5ad518246bf98",
    ("uniform", 7): "e054a4b342875c0c",
    ("zipf", 0): "3663b4528dcbcb60",
    ("zipf", 7): "c026ca5f59202918",
    ("bursty", 0): "ef777fffc7f27871",
    ("bursty", 7): "920a59002ee0b827",
    ("duplicate-storm", 0): "25b4dd13938f9de2",
    ("duplicate-storm", 7): "89a2c895b817ede9",
    ("adversarial", 0): "ff2ff933bc00942a",
    ("adversarial", 7): "b5609dd1daba035b",
    ("noisy-neighbor", 0): "bc4cef5368813ab6",
    ("noisy-neighbor", 7): "2a736145abd6b843",
    ("quota-storm", 0): "17565ec450f4e819",
    ("quota-storm", 7): "614f371814c129ac",
    ("priority-inversion", 0): "b20a5e757b1c6901",
    ("priority-inversion", 7): "4cc291a9910e3252",
}
#: ``chaos_plan(name, 120, 4, seed=0).as_dict()`` per chaos scenario
CHAOS_DIGESTS = {
    "shard-kill": "ae93fe7c0db93fef",
    "worker-massacre": "da72cb9d45d9decd",
    "flapping-network": "5c2f43e272b6cbbc",
    "latency-storm": "06e0900ec1929262",
}
#: ``make_control(name).snapshot()`` per tenant scenario
CONTROL_DIGESTS = {
    "noisy-neighbor": "1d23982f1f5b1dc9",
    "quota-storm": "dda4d3c4af30eec2",
    "priority-inversion": "5ac78c659608ff68",
}


class TestCatalogsArePinned:
    """The catalogs the benchmarks read, pinned by digest: moving a
    catalog between modules must not change one request of a trace, one
    fault of a plan or one knob of a control plane."""

    def test_every_trace(self):
        digests = {
            (name, seed): _digest(
                _trace_rows(generate_traffic(name, 64, seed=seed))
            )
            for name in SCENARIO_NAMES
            for seed in (0, 7)
        }
        assert digests == TRAFFIC_DIGESTS

    def test_every_chaos_plan(self):
        digests = {
            name: _digest(chaos_plan(name, 120, 4, seed=0).as_dict())
            for name in CHAOS_SCENARIOS
        }
        assert digests == CHAOS_DIGESTS

    def test_every_tenant_control_plane(self):
        digests = {
            name: _digest(make_control(name).snapshot())
            for name in TENANT_SCENARIOS
        }
        assert digests == CONTROL_DIGESTS


class TestSyntheticEstimator:
    def test_deterministic_across_instances(self):
        catalog = workload_catalog(4, seed=0)
        first = SyntheticEstimator()
        second = SyntheticEstimator()
        for workload in catalog:
            a = first.estimate(workload, RTX_3060)
            b = second.estimate(workload, RTX_3060)
            assert a.peak_bytes == b.peak_bytes

    def test_distinct_requests_get_distinct_peaks(self):
        estimator = SyntheticEstimator()
        peaks = {
            estimator.estimate(workload, RTX_3060).peak_bytes
            for workload in workload_catalog(8, seed=0)
        }
        assert len(peaks) == 8

    def test_counts_calls(self):
        estimator = SyntheticEstimator()
        workload = workload_catalog(1, seed=0)[0]
        estimator.estimate(workload, RTX_3060)
        estimator.estimate(workload, RTX_3060)
        assert estimator.calls == 2


class TestReplay:
    def test_every_request_is_accounted_for(self):
        trace = generate_traffic("adversarial", 120, seed=0)
        with ServiceGateway(
            num_shards=2,
            estimator_factory=SyntheticEstimator,
            max_queue_depth=8,
        ) as gateway:
            report = replay(trace, gateway)
        assert (
            report.answered
            + report.shed
            + report.rejected
            + report.errors
            == 120
        )
        assert report.rejected > 0  # the invalid third was refused
        assert report.as_dict()["reject_rate"] == pytest.approx(
            report.rejected / 120
        )

    def test_replay_works_against_a_bare_service(self):
        from repro.service import EstimationService

        trace = generate_traffic("uniform", 30, seed=0)
        with EstimationService(
            estimator=SyntheticEstimator(), max_workers=2
        ) as service:
            report = replay(trace, service)
        assert report.answered == 30
        assert report.throughput_rps > 0


class _ScriptedTarget:
    """Settles each tenant's request as ``script[tenant]`` says:
    ``(seconds, "result" | "cancel")``; zero seconds settles at submit."""

    def __init__(self, script):
        self.script = script

    def submit(self, workload, device, tenant=""):
        future = Future()
        delay, outcome = self.script[tenant]
        if outcome == "cancel":
            settle = future.cancel
        else:
            settle = partial(future.set_result, tenant)
        if delay:
            threading.Timer(delay, settle).start()
        else:
            settle()
        return future

    def stats(self):
        return {}


def _one_wave(*tenants):
    return _waves(tenants)


def _waves(*waves):
    workload = workload_catalog(1, seed=0)[0]
    return TrafficTrace(
        scenario="scripted",
        seed=0,
        requests=tuple(
            TrafficRequest(workload, RTX_3060, wave=index, tenant=tenant)
            for index, tenants in enumerate(waves)
            for tenant in tenants
        ),
    )


def _replay_on_a_loop(trace, target):
    return asyncio.run(replay_async(trace, target))


#: both shells over the one pacing core
SHELLS = pytest.mark.parametrize(
    "shell", [replay, _replay_on_a_loop], ids=["replay", "replay_async"]
)


class TestReplayLatency:
    @SHELLS
    def test_latency_is_read_when_the_future_settles(self, shell):
        """A request answered at submit is not charged for an earlier,
        slower request of its wave (the join order)."""
        target = _ScriptedTarget(
            {"slow": (0.2, "result"), "fast": (0, "result")}
        )
        report = shell(_one_wave("slow", "fast"), target)
        assert report.answered == 2
        assert report.tenant_latency_ms("fast", 50) < 50
        assert report.tenant_latency_ms("slow", 50) >= 150

    @SHELLS
    def test_a_cancelled_future_is_an_error_and_the_wave_still_ends(
        self, shell
    ):
        target = _ScriptedTarget(
            {"gone": (0.05, "cancel"), "fast": (0, "result")}
        )
        report = shell(_one_wave("gone", "fast"), target)
        assert report.answered == 1
        assert report.errors == 1
        assert report.tenants["gone"]["errors"] == 1


class _PressedTarget:
    """Answers a request only under pressure, with no clock.

    Tenant ``"hit"`` is answered at submit and ``"shed"`` refused.  Any
    other request stays pending until ``max_queue_depth`` are pending
    (the oldest is answered) or its wave is all in (all are), each on a
    thread of its own.  Without ``max_queue_depth`` only the wave's end
    answers.  ``outstanding`` logs how many futures were unanswered at
    each submit, ``returned`` what each submit returned or raised, and
    ``turns`` how many loop turns had run (on the asyncio shell, whose
    hits are loop futures).
    """

    def __init__(self, wave_size: int, max_queue_depth=None):
        if max_queue_depth is not None:
            self.max_queue_depth = max_queue_depth
        self.wave_size = wave_size
        self.press = max_queue_depth or wave_size
        self.pending: deque = deque()
        self.futures: list = []
        self.outstanding: list = []
        self.returned: list = []
        self.threads: list = []
        self.turns: list = []
        self._ticks: list = []

    def submit(self, workload, device, tenant=""):
        loop = _running_loop()
        self.turns.append(len(self._ticks))
        if loop is not None:
            loop.call_soon(self._ticks.append, None)
        self.outstanding.append(sum(not f.done() for f in self.futures))
        wave_ends = (len(self.returned) + 1) % self.wave_size == 0
        if tenant == "shed":
            self.returned.append(RateLimitExceededError(0.0))
            raise self.returned[-1]
        if tenant == "hit":  # a loop future runs its callbacks a turn later
            future = Future() if loop is None else loop.create_future()
            future.set_result("hit")
        else:
            future = Future()
            release = threading.Event()
            self.pending.append(release)
            thread = threading.Thread(target=_answer, args=(future, release))
            thread.start()
            self.threads.append(thread)
        self.futures.append(future)
        self.returned.append(future)
        if len(self.pending) >= self.press:
            self.pending.popleft().set()
        while wave_ends and self.pending:
            self.pending.popleft().set()
        return future

    def stats(self):
        return {}


def _running_loop():
    try:
        return asyncio.get_running_loop()
    except RuntimeError:  # the thread shell
        return None


def _answer(future: Future, release: threading.Event) -> None:
    # the timeout only turns a replayer that never lets a wave in whole
    # into a failed assertion instead of a hang
    release.wait(timeout=10)
    future.set_result("answered")


#: one wave of the pacing test: four pending requests, two hits, a shed
PACED_WAVE = ("", "hit", "", "shed", "", "hit", "")


class TestPacing:
    @SHELLS
    @pytest.mark.parametrize("depth", [2, None], ids=["window", "no-window"])
    def test_the_window_the_hits_and_the_submission_log(self, shell, depth):
        """At most ``max_queue_depth`` futures are outstanding at any
        submit, and a target without it gets each wave whole; hits take
        no slot from the pending requests; the report logs every
        submission, refusals included, in order."""
        target = _PressedTarget(len(PACED_WAVE), depth)
        report = shell(_waves(PACED_WAVE, PACED_WAVE), target)
        for thread in target.threads:
            thread.join()
        if depth is None:  # nothing is answered before the wave is in
            assert target.outstanding == [0, 1, 1, 2, 2, 3, 3] * 2
        else:  # the window holds one pending request and waits
            assert target.outstanding == [0, 1, 1, 1, 1, 1, 1] * 2
        assert report.submissions == target.returned
        assert [f.result() for f in target.futures] == [
            "answered", "hit", "answered", "answered", "hit", "answered",
        ] * 2
        assert (report.answered, report.shed) == (12, 2)

    @SHELLS
    def test_a_future_done_at_submit_holds_no_slot(self, shell):
        """A wave of hits at a window of one is submitted without a wait:
        on a loop, where a done-callback runs a turn later, the replayer
        never yields to it before the wave is in."""
        target = _PressedTarget(4, max_queue_depth=1)
        report = shell(_waves(("hit",) * 4), target)
        assert target.turns == [0, 0, 0, 0]
        assert report.answered == 4
