"""Closed-loop load generation, outcome accounting and the statistics rules.

The callers this service has (``ServiceAdmissionController.decide``, the
CLI) block on the reply, so every driver here is *closed loop*: one client
sends its next request only after an earlier one completed.  Two shapes:

* **serial** — one outstanding request; gives per-request latency;
* **windowed** — ``WINDOW`` outstanding requests from the one client;
  gives throughput.  ``WINDOW`` (16) is below the gateway's
  ``max_queue_depth`` (64), so a queue shed cannot happen by construction
  and any shed that does happen is a failure, not load.

``traffic.replay`` / ``replay_async`` are deliberately not reused: they
submit a whole wave before joining it, which is what sheds ~13% of a
default ``loadtest`` on the asyncio and tcp drivers.

Nothing in this module imports the program under test.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional, Sequence

#: outstanding requests in the windowed phase (< max_queue_depth = 64)
WINDOW = 16
#: seconds one reply may take before it counts as an error
RESULT_TIMEOUT = 60.0
#: iterations of the machine probe (:func:`spin`)
SPIN_ITERATIONS = 100_000

_clock = time.perf_counter


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """What one closed-loop phase sent and what came back, untouched.

    ``outcomes[i]`` is the result object or the exception for
    ``requests[i]``; classification happens after the clock stopped
    (:func:`classify`), so checking never sits inside a timed region.
    """

    name: str
    requests: Sequence
    outcomes: list
    #: submit -> result in hand, seconds; None where no result came back
    latencies: list
    wall_seconds: float
    cpu_seconds: float
    #: (wall, cpu) seconds per request where the phase was timed request
    #: by request (:func:`run_serial_slots`); empty otherwise
    slots: list = field(default_factory=list)


def run_serial(submit: Callable[[Any], Any], requests: Sequence) -> Phase:
    """One outstanding request: ``submit(request).result()`` in a loop."""
    outcomes: list = []
    latencies: list = []
    cpu_started = time.process_time()
    started = _clock()
    for request in requests:
        sent = _clock()
        try:
            outcomes.append(submit(request).result(RESULT_TIMEOUT))
            latencies.append(_clock() - sent)
        except Exception as error:  # a refusal or failure is an outcome
            outcomes.append(error)
            latencies.append(None)
    wall = _clock() - started
    cpu = time.process_time() - cpu_started
    return Phase("serial", requests, outcomes, latencies, wall, cpu)


def run_serial_slots(submit: Callable[[Any], Any], requests: Sequence) -> Phase:
    """:func:`run_serial` with wall and CPU time kept per request.

    For phases of a few long requests (tens of milliseconds each), where
    the best pass is better assembled request by request: a quiet 100 ms
    is easier to find than a quiet second (:func:`best_pass`).
    """
    parts = [run_serial(submit, [request]) for request in requests]
    return Phase(
        "serial",
        requests,
        [part.outcomes[0] for part in parts],
        [part.latencies[0] for part in parts],
        sum(part.wall_seconds for part in parts),
        sum(part.cpu_seconds for part in parts),
        [(part.wall_seconds, part.cpu_seconds) for part in parts],
    )


def run_windowed(
    submit: Callable[[Any], Any], requests: Sequence, window: int = WINDOW
) -> Phase:
    """At most ``window`` outstanding; the oldest is joined to make room."""
    outcomes: list = [None] * len(requests)
    pending: deque = deque()

    def join_oldest() -> None:
        index, future = pending.popleft()
        try:
            outcomes[index] = future.result(RESULT_TIMEOUT)
        except Exception as error:
            outcomes[index] = error

    cpu_started = time.process_time()
    started = _clock()
    for index, request in enumerate(requests):
        if len(pending) >= window:
            join_oldest()
        try:
            pending.append((index, submit(request)))
        except Exception as error:  # synchronous refusal: nothing enqueued
            outcomes[index] = error
    while pending:
        join_oldest()
    wall = _clock() - started
    cpu = time.process_time() - cpu_started
    return Phase("windowed", requests, outcomes, [], wall, cpu)


async def run_serial_async(
    submit: Callable[[Any], Any], requests: Sequence
) -> Phase:
    """:func:`run_serial` for a target whose ``submit`` returns awaitables."""
    outcomes: list = []
    latencies: list = []
    cpu_started = time.process_time()
    started = _clock()
    for request in requests:
        sent = _clock()
        try:
            outcomes.append(await submit(request))
            latencies.append(_clock() - sent)
        except Exception as error:
            outcomes.append(error)
            latencies.append(None)
    wall = _clock() - started
    cpu = time.process_time() - cpu_started
    return Phase("serial", requests, outcomes, latencies, wall, cpu)


async def run_windowed_async(
    submit: Callable[[Any], Any], requests: Sequence, window: int = WINDOW
) -> Phase:
    """:func:`run_windowed` on the event loop."""
    outcomes: list = [None] * len(requests)
    pending: deque = deque()

    async def join_oldest() -> None:
        index, future = pending.popleft()
        try:
            outcomes[index] = await future
        except Exception as error:
            outcomes[index] = error

    cpu_started = time.process_time()
    started = _clock()
    for index, request in enumerate(requests):
        if len(pending) >= window:
            await join_oldest()
        try:
            pending.append((index, submit(request)))
        except Exception as error:
            outcomes[index] = error
    while pending:
        await join_oldest()
    wall = _clock() - started
    cpu = time.process_time() - cpu_started
    return Phase("windowed", requests, outcomes, [], wall, cpu)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


@dataclass
class Counts:
    """Outcome counts of one phase (or a sum of phases).

    ``attempted == answered + refused + failed`` always; ``refused`` holds
    only refusals the workload declared expected.
    """

    attempted: int = 0
    answered: int = 0
    refused: int = 0
    errors: int = 0
    shed: int = 0
    unexpected_refusals: int = 0
    wrong: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.shed + self.unexpected_refusals + self.wrong

    @property
    def decided(self) -> int:
        """Requests the service gave its intended decision on."""
        return self.answered + self.refused

    def add(self, other: "Counts") -> None:
        for name in _COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return {**asdict(self), "failed": self.failed}

    @classmethod
    def from_dict(cls, payload: dict) -> "Counts":
        return cls(**{name: payload[name] for name in _COUNT_FIELDS})


_COUNT_FIELDS = tuple(f.name for f in fields(Counts))


@dataclass
class Oracle:
    """What a workload expects back.

    ``is_correct(request, result)`` judges an answer;
    ``is_expected_refusal(request, error)`` says whether an exception is a
    refusal this workload declares part of its traffic.  ``refusal_types``
    and ``shed_types`` only sort the *unexpected* exceptions into the
    ``unexpected_refusals`` / ``shed`` / ``errors`` buckets.
    """

    is_correct: Callable[[Any, Any], bool]
    is_expected_refusal: Callable[[Any, BaseException], bool] = (
        lambda request, error: False
    )
    refusal_types: tuple = ()
    shed_types: tuple = ()


def classify(phase: Phase, oracle: Oracle) -> Counts:
    """Sort every outcome of a phase into exactly one bucket."""
    counts = Counts(attempted=len(phase.requests))
    for request, outcome in zip(phase.requests, phase.outcomes):
        if isinstance(outcome, BaseException):
            if oracle.is_expected_refusal(request, outcome):
                counts.refused += 1
            elif isinstance(outcome, oracle.refusal_types):
                counts.unexpected_refusals += 1
            elif isinstance(outcome, oracle.shed_types):
                counts.shed += 1
            else:
                counts.errors += 1
        elif outcome is not None and oracle.is_correct(request, outcome):
            counts.answered += 1
        else:
            counts.wrong += 1
    if counts.attempted != counts.decided + counts.failed:
        raise AssertionError(f"outcome accounting does not add up: {counts}")
    return counts


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

#: (percentile, samples needed to leave ten beyond it), tried from the top
_TAILS = ((99.9, 10_000), (99.0, 1_000), (95.0, 200), (90.0, 100), (75.0, 40))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    position = (q / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile that leaves at least ten samples beyond it.

    p99 needs 1 000 samples, p95 200, p75 40; below that there is no tail
    worth naming and only the median is reported — never an extrapolation.
    """
    for q, needed in _TAILS:
        if count >= needed:
            return q
    return None


def summarize(samples: Sequence[float]) -> dict:
    """``{"n", "p50", "tail_q", "tail"}`` by the one percentile rule."""
    ordered = sorted(samples)
    if not ordered:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 50.0),
        "tail_q": q,
        "tail": percentile(ordered, q) if q is not None else None,
    }


def steady(values: Sequence[float], better: str) -> dict:
    """One run's value for a metric from its per-repeat samples.

    ``value`` is the **best repeat** (lowest for ``better="lower"``,
    highest for ``"higher"``); the median and quartiles over repeats are
    reported beside it, so a disturbed run shows as a wide gap between
    ``value`` and ``median``.

    Why not the median over repeats: interference on a shared 2-core
    sandbox only ever *adds* time, and it comes in stretches of seconds
    to minutes.  Over ten runs in one disturbed quarter of an hour the
    median over repeats of a 36 us latency ranged 38-64 us and of a
    0.19 ms tcp round trip 0.21-0.34 ms, while the best repeat stayed
    within 36-38 us and 0.19-0.23 ms (README.md has the full table).  Each
    repeat's own value is still a median (p50 over its requests) or a
    mean rate over hundreds of requests, so one lucky request cannot set
    it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {
        "value": ordered[0] if better == "lower" else ordered[-1],
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


def best_pass(passes: Sequence[Sequence[Sequence[float]]]) -> dict:
    """The best-repeat rule applied request by request.

    ``passes[p][i]`` is the ``(wall, cpu)`` seconds request ``i`` took in
    pass ``p``; every pass sends the same requests in the same order.  The
    best pass is assembled from each request's best time, then read like
    any repeat: p50 latency over its requests, requests per second of its
    wall, CPU per request.
    """
    count = len(passes[0])
    walls = [min(p[i][0] for p in passes) for i in range(count)]
    cpus = [min(p[i][1] for p in passes) for i in range(count)]
    return {
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "throughput_rps": count / sum(walls),
        "cpu_ms_per_req": sum(cpus) * 1e3 / count,
    }


def spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the driver's steadiness measure."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """Milliseconds a fixed arithmetic loop took: how noisy the box is."""
    started = _clock()
    acc = 0
    for value in range(iterations):
        acc = (acc * 31 + value) & 0xFFFFFFFF
    return (_clock() - started) * 1e3


@dataclass
class Repeat:
    """One repeat of a workload's timed phases: samples plus counts."""

    latency_p50_ms: float
    throughput_rps: float
    cpu_ms_per_req: float
    counts: Counts
    #: per-phase counts, printed for every phase
    phases: dict = field(default_factory=dict)
    #: serial latencies of this repeat in seconds (tail diagnostics)
    latencies: list = field(default_factory=list)
    #: the serial phase's per-request (wall, cpu), when it kept them
    slots: list = field(default_factory=list)
