"""The xMem pipeline as explicit stages with intermediate-artifact caches.

:class:`EstimationPipeline` splits ``XMemEstimator.estimate`` into its four
stages — ``profile -> analyze -> orchestrate -> simulate`` — and gives each
a content-addressed cache (:class:`PipelineCache`):

* **profile** — traces keyed by (model, optimizer, batch size, zero-grad
  placement, set_to_none, iterations): the full workload/loop identity the
  CPU profiler consumes;
* **analyze** — analyzed traces keyed by the trace's fingerprint plus
  the analyzer's strictness;
* **orchestrate** — replayable sequences keyed by the trace fingerprint
  plus the orchestration rule set;
* **simulate** — :class:`SimulateRow` values (the peak-only replay plus
  the finished ``detail`` report) keyed by the sequence fingerprint, the
  allocator configuration and the two-level knob (a usage curve is always
  replayed, never cached).

Every key is a derivation of one root — the profile key for a workload,
the content fingerprint for a caller-supplied trace — so
:meth:`EstimationPipeline.run` computes all four before loading anything
and looks stages up bottom-up: the simulate row first, and each upstream
stage only when the stage below it misses.  A stored cell is one row.

Only the simulator — the stage that actually depends on the allocator
configuration and the two-level ablation knob — re-runs when requests
differ in those knobs alone, so a batch-size sweep profiles once per size
and an allocator ablation profiles once in total.
Caching at each stage instead of only at the service edge is the
middleware-style composition the paper argues for: the final-result cache
stays exact, and the stage caches recover the shared upstream work that
exact fingerprints cannot.

Each store dedups concurrent misses per key (stage-level single-flight),
so a cold fleet warming up does not profile the same workload N times.

The stage code loads where a stage is built: the analyzer and orchestrator
modules with the pipeline that holds them, the profiler (and with it the
runtime, the framework and the model zoo) on the first profile, and the
caching allocator on the first replay.  Importing this module loads none
of them, and a stage-cache hit in :meth:`EstimationPipeline.run` runs no
import statement.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..allocator.constants import DEFAULT_CONFIG, AllocatorConfig
from ..runtime.loop import DEFAULT_PROFILE_ITERATIONS, TrainLoopConfig
from ..workload import WorkloadConfig
from .simulator import MemorySimulator, SimulationResult

if TYPE_CHECKING:
    from ..trace.reader import Trace
    from .analyzer import AnalyzedTrace, Analyzer
    from .orchestrator import MemoryOrchestrator, OrchestratedSequence

#: Stage names, in execution order (also the keys of ``stage_seconds``).
PROFILE = "profile"
ANALYZE = "analyze"
ORCHESTRATE = "orchestrate"
SIMULATE = "simulate"
STAGES = (PROFILE, ANALYZE, ORCHESTRATE, SIMULATE)

#: Attribute memoizing a trace's content fingerprint on the instance.
_TRACE_KEY_ATTR = "_xmem_trace_key"


def trace_fingerprint(trace: Trace) -> str:
    """Stable content address of a trace (memoized on the instance).

    Traces produced by the pipeline's own profile stage carry a key derived
    from the profile-cache key, so they are never re-hashed; caller-supplied
    traces are hashed over their spans, memory events, and metadata once.
    """
    cached = trace.__dict__.get(_TRACE_KEY_ATTR)
    if cached is not None:
        return cached
    # one digest.update over a single joined buffer: per-span update calls
    # dominate hashing cost on large traces (satellite of PR 9)
    spans = trace.spans
    names = spans.names
    lines = [
        f"s|{names[name_id]}|{category.value}|{ts}|{dur}|{tid}\n"
        for name_id, category, ts, dur, tid in zip(
            spans.name_id, spans.category, spans.ts, spans.dur, spans.tid
        )
    ]
    memory = trace.memory_events
    for ts, addr, nbytes in zip(memory.ts, memory.addr, memory.nbytes):
        lines.append(f"m|{ts}|{addr}|{nbytes}\n")
    for key in sorted(trace.metadata):
        lines.append(f"d|{key}|{trace.metadata[key]}\n")
    digest = hashlib.sha256("".join(lines).encode("utf-8"))
    fingerprint = "content:" + digest.hexdigest()[:32]
    # Trace is a frozen dataclass; memoize past the frozen guard — the
    # fingerprint is derived state, not a field
    object.__setattr__(trace, _TRACE_KEY_ATTR, fingerprint)
    return fingerprint


#: Where a stage's artifact came from (``stage_sources`` vocabulary).
SOURCE_MEMORY = "memory"  # in-process L1 hit (or caller-supplied input)
SOURCE_STORE = "store"  # persistent artifact-store (L2) hit
SOURCE_COMPUTE = "compute"  # actually built this time


class _Flight(threading.Event):
    """One in-flight build.  The owner leaves its value here before it
    sets the event, so the threads that waited take the value itself —
    a zero-capacity store, which keeps nothing, still builds once."""

    built = False
    value: Any = None


class _StageStore:
    """Thread-safe bounded LRU with per-key single-flight on misses.

    ``artifacts`` attaches an optional persistent L2
    (:class:`~repro.core.artifacts.ArtifactStore`): on an L1 miss the
    single-flight owner consults the store before building, and publishes
    its build back, so later processes start warm.
    """

    def __init__(self, max_entries: int, stage: str = "", artifacts=None):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = max_entries
        self.stage = stage
        self._artifacts = artifacts
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._inflight: dict[Any, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0

    def get_or_compute(
        self, key: Any, build: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, was_cached)``; concurrent misses build once."""
        value, source = self.get_or_compute_traced(key, build)
        return value, source is not SOURCE_COMPUTE

    def get_or_compute_traced(
        self, key: Any, build: Callable[[], Any]
    ) -> tuple[Any, str]:
        """Return ``(value, source)`` with the artifact's provenance."""
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key], SOURCE_MEMORY
                gate = self._inflight.get(key)
                if gate is None:
                    gate = self._inflight[key] = _Flight()
                    owner = True
                else:
                    owner = False
            if not owner:
                # another thread is building this key: its success is our
                # hit, its failure makes one of its waiters the next owner
                gate.wait()
                if gate.built:
                    with self._lock:
                        self.hits += 1
                    return gate.value, SOURCE_MEMORY
                continue
            # the gate MUST be released on every exit from here on — a
            # builder that raises (or a bug in the bookkeeping itself)
            # would otherwise strand every waiter on gate.wait() forever
            try:
                source = SOURCE_COMPUTE
                if self._artifacts is not None:
                    value, stored = self._artifacts.get_or_compute(
                        self.stage, key, build
                    )
                    if stored:
                        source = SOURCE_STORE
                        self.store_hits += 1
                else:
                    value = build()
                with self._lock:
                    self.misses += 1
                    if self.max_entries > 0:
                        self._entries[key] = value
                        self._entries.move_to_end(key)
                        while len(self._entries) > self.max_entries:
                            self._entries.popitem(last=False)
                            self.evictions += 1
                gate.value, gate.built = value, True
                return value, source
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                gate.set()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "store_hits": self.store_hits,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }


class PipelineCache:
    """The four stage stores of one staged pipeline.

    Safe to share between estimators (e.g. every shard-local worker of one
    service): all stores are internally locked, and the cached artifacts —
    traces, analyzed traces, orchestrated sequences, peak-only simulation
    results — are treated as immutable by every pipeline stage.  With an
    ``artifact_store`` the orchestrate and simulate stores consult and
    feed that persistent L2: those are the rows a fresh process reads (a
    simulate row answers a peak, the orchestrate row a curve or another
    allocator configuration).  Traces and analyzed traces stay in the L1;
    the orchestrate row's cross-process claim is what keeps a profile
    from being built twice.
    """

    def __init__(
        self,
        max_traces: int = 16,
        max_analyses: int = 16,
        max_sequences: int = 64,
        max_simulations: int = 64,
        artifact_store=None,
    ):
        store = None
        if artifact_store is not None:
            # the store module (and sqlite3) loads only when a store is used
            from .artifacts import resolve_artifact_store

            store = resolve_artifact_store(artifact_store)
        self.artifacts = store
        self.traces = _StageStore(max_traces)
        self.analyses = _StageStore(max_analyses)
        self.sequences = _StageStore(
            max_sequences, stage=ORCHESTRATE, artifacts=store
        )
        self.simulations = _StageStore(
            max_simulations, stage=SIMULATE, artifacts=store
        )

    def _stores(self) -> tuple[_StageStore, ...]:
        return (self.traces, self.analyses, self.sequences, self.simulations)

    def stage_store(self, stage: str) -> _StageStore:
        """The store of one stage name (``PROFILE`` ... ``SIMULATE``)."""
        return self._stores()[STAGES.index(stage)]

    def clear(self) -> None:
        for stage_store in self._stores():
            stage_store.clear()

    def stats(self) -> dict:
        """JSON-ready hit/miss/eviction counters per stage store."""
        stats = {
            "traces": self.traces.stats(),
            "analyses": self.analyses.stats(),
            "sequences": self.sequences.stats(),
            "simulations": self.simulations.stats(),
        }
        if self.artifacts is not None:
            stats["artifacts"] = self.artifacts.stats()
        return stats


@dataclass(frozen=True)
class SimulateRow:
    """The simulate stage's cached value: one replay plus the finished
    ``detail`` report ``XMemEstimator.estimate`` answers with, built once
    here, so a hit answers a cell without loading the analyzed trace or
    the sequence, and every answer the row gives shares one report."""

    simulation: SimulationResult
    #: the sequence facts and the replay's counts, in report order;
    #: shared by every answer of the row, read-only
    detail: dict[str, Any]

    @classmethod
    def of(
        cls, simulation: SimulationResult, sequence: OrchestratedSequence
    ) -> "SimulateRow":
        return cls(
            simulation=simulation,
            detail={
                "num_blocks": sequence.num_blocks,
                "num_events": simulation.num_events,
                "persistent_bytes": sequence.persistent_bytes,
                "rule_adjustments": dict(sequence.adjustments),
                "peak_allocated_bytes": simulation.peak_allocated_bytes,
                "role_bytes": dict(sequence.role_bytes),
                "dropped_blocks": sequence.dropped_blocks,
            },
        )


@dataclass
class PipelineRun:
    """One staged estimation: the simulate row, the upstream artifacts
    that were loaded to produce it (``None`` where a downstream hit made
    loading them unnecessary), and timings."""

    row: SimulateRow
    trace: Optional[Trace] = None
    analyzed: Optional[AnalyzedTrace] = None
    sequence: Optional[OrchestratedSequence] = None
    #: wall-clock seconds spent in each stage, excluding the upstream
    #: stages it consulted (cache hits and unconsulted stages cost ~0)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: True where the stage was answered from the cache (or, for profile,
    #: from a caller-supplied trace)
    stage_cached: dict[str, bool] = field(default_factory=dict)
    #: artifact provenance per stage: "memory" / "store" / "compute"; a
    #: stage that was not consulted reports the source of the stage below
    #: it that answered.  ``run`` reports one shared, read-only pair of
    #: ``stage_cached`` / ``stage_sources`` dicts per provenance
    stage_sources: dict[str, str] = field(default_factory=dict)

    @property
    def simulation(self) -> SimulationResult:
        return self.row.simulation

    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())


class EstimationPipeline:
    """Runs the four xMem stages with optional per-stage caching.

    ``cache=None`` disables stage caching entirely — every call recomputes
    the full chain, byte-identical to the pre-staged estimator.
    """

    def __init__(
        self,
        iterations: int = DEFAULT_PROFILE_ITERATIONS,
        analyzer: Optional[Analyzer] = None,
        orchestrator: Optional[MemoryOrchestrator] = None,
        cache: Optional[PipelineCache] = None,
    ):
        if iterations < 1:
            raise ValueError("profiling needs at least one iteration")
        if analyzer is None:
            from .analyzer import Analyzer

            analyzer = Analyzer()
        if orchestrator is None:
            from .orchestrator import MemoryOrchestrator

            orchestrator = MemoryOrchestrator()
        self.iterations = iterations
        self.analyzer = analyzer
        self.orchestrator = orchestrator
        self.cache = cache
        self._rules_key_memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------
    def profile_key(self, workload: WorkloadConfig) -> tuple:
        """Everything the CPU profiler's output depends on."""
        return ("profile", *workload.to_key(), self.iterations)

    def _profile_root(self, workload: WorkloadConfig) -> str:
        """The trace fingerprint a profiled ``workload`` is stamped with."""
        return "|".join(str(part) for part in self.profile_key(workload))

    def _analyze_key(self, root: str) -> tuple:
        return (root, bool(self.analyzer.strict))

    def _orchestrate_key(self, root: str) -> tuple:
        return (root, self.rules_key())

    @staticmethod
    def _simulate_key(
        sequence_key: str, allocator_config: AllocatorConfig, two_level: bool
    ) -> tuple:
        return (sequence_key, allocator_config, two_level)

    def _stage_keys(
        self,
        workload: WorkloadConfig,
        trace: Optional[Trace],
        allocator_config: AllocatorConfig,
        two_level: bool,
        curve: bool,
    ) -> dict[str, Any]:
        """Every stage's cache key, derived from one root with no artifact
        in hand (``None`` marks a stage that is not cached)."""
        if self.cache is None:
            return dict.fromkeys(STAGES)
        root = (
            trace_fingerprint(trace)
            if trace is not None
            else self._profile_root(workload)
        )
        orchestrate_key = self._orchestrate_key(root)
        return {
            PROFILE: self.profile_key(workload),
            ANALYZE: self._analyze_key(root),
            ORCHESTRATE: orchestrate_key,
            SIMULATE: None if curve else self._simulate_key(
                _sequence_key(orchestrate_key), allocator_config, two_level
            ),
        }

    def rules_key(self) -> tuple:
        """Identity of the orchestration rule set (and analyzer mode).

        Rules are identified by class + name; a custom rule with tunable
        state should encode that state in its ``name`` to stay cacheable.
        Memoized per (rule set, strictness) — this runs on every
        orchestrate lookup, so rebuilding the strings each call shows up
        on the warm path.
        """
        strict = bool(self.analyzer.strict)
        rules = self.orchestrator.rules
        memo = self._rules_key_memo
        if memo is not None and memo[0] is rules and memo[1] == strict:
            return memo[2]
        key = (
            strict,
            tuple(
                f"{type(rule).__name__}:{rule.name}" for rule in rules
            ),
        )
        self._rules_key_memo = (rules, strict, key)
        return key

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def profile(self, workload: WorkloadConfig) -> Trace:
        """Stage 1: CPU-profile the workload (cached by workload identity)."""
        key = None if self.cache is None else self.profile_key(workload)
        return self._consult(
            PROFILE, key, lambda: self._run_profiler(workload)
        )[0]

    def analyze(self, trace: Trace) -> AnalyzedTrace:
        """Stage 2: lifecycle + attribution analysis (cached by content)."""
        key = None
        if self.cache is not None:
            key = self._analyze_key(trace_fingerprint(trace))
        return self._consult(
            ANALYZE, key, lambda: self.analyzer.analyze(trace)
        )[0]

    def orchestrate(self, analyzed: AnalyzedTrace) -> OrchestratedSequence:
        """Stage 3: rule-refined replayable sequence (cached by trace+rules;
        an analyzed trace that carries no trace is not cached)."""
        key = None
        if self.cache is not None and analyzed.trace is not None:
            key = self._orchestrate_key(trace_fingerprint(analyzed.trace))
        return self._consult(
            ORCHESTRATE, key, lambda: self._run_orchestrator(analyzed, key)
        )[0]

    def simulate(
        self,
        sequence: OrchestratedSequence,
        allocator_config: AllocatorConfig = DEFAULT_CONFIG,
        two_level: bool = True,
        curve: bool = True,
    ) -> SimulationResult:
        """Stage 4: allocator replay, cached on the peak-only path.

        ``curve=True`` always replays (the usage curve is the product).
        ``curve=False`` — the serving fast path — goes through the
        simulate store like the other three stages: one peak-only replay
        per (sequence, allocator config, two-level knob), kept in the L1
        and published to the L2 when one is attached.
        """
        key = None
        if self.cache is not None and not curve:
            # loaded already: the caller holds one of its sequences
            from .orchestrator import sequence_fingerprint

            key = self._simulate_key(
                sequence_fingerprint(sequence), allocator_config, two_level
            )
        row, _ = self._consult(
            SIMULATE,
            key,
            lambda: _replay(sequence, allocator_config, two_level, curve),
        )
        return row.simulation

    def _consult(
        self, stage: str, key: Any, build: Callable[[], Any]
    ) -> tuple[Any, str]:
        """``(value, source)`` of one stage: from its store under ``key``,
        or built uncached when ``key`` is ``None``."""
        if key is None:
            return build(), SOURCE_COMPUTE
        return self.cache.stage_store(stage).get_or_compute_traced(key, build)

    # ------------------------------------------------------------------
    # the full chain
    # ------------------------------------------------------------------
    def run(
        self,
        workload: WorkloadConfig,
        trace: Optional[Trace] = None,
        allocator_config: AllocatorConfig = DEFAULT_CONFIG,
        two_level: bool = True,
        curve: bool = True,
    ) -> PipelineRun:
        """Run the four stages bottom-up; ``trace`` short-circuits profiling.

        The simulate row is looked up first, by a key derived from the
        workload (or the supplied trace).  Each stage's build consults the
        stage above it, so a hit — in the L1 or the L2 — loads nothing
        upstream; ``curve=True`` starts at the orchestrate store.
        """
        keys = self._stage_keys(
            workload, trace, allocator_config, two_level, curve
        )
        seconds: dict[str, float] = {}
        sources: dict[str, str] = {}
        loaded: dict[str, Any] = {}

        def consult(stage: str, build: Callable[[], Any]) -> Any:
            started = time.perf_counter()
            value, source = self._consult(stage, keys[stage], build)
            seconds[stage] = time.perf_counter() - started
            sources[stage] = source
            loaded[stage] = value
            return value

        def need_trace() -> Trace:
            if trace is None:
                return consult(PROFILE, lambda: self._run_profiler(workload))
            seconds[PROFILE] = 0.0  # supplied by the caller: cost nothing
            sources[PROFILE] = SOURCE_MEMORY
            loaded[PROFILE] = trace
            return trace

        def need_analyzed() -> AnalyzedTrace:
            return consult(
                ANALYZE, lambda: self.analyzer.analyze(need_trace())
            )

        def need_sequence() -> OrchestratedSequence:
            return consult(
                ORCHESTRATE,
                lambda: self._run_orchestrator(
                    need_analyzed(), keys[ORCHESTRATE]
                ),
            )

        row = consult(
            SIMULATE,
            lambda: _replay(
                need_sequence(), allocator_config, two_level, curve
            ),
        )

        # bottom-up: a stage's time includes the stage above it that it
        # consulted; an unconsulted stage inherits its answerer's source
        for stage, upstream in zip(STAGES[:0:-1], STAGES[-2::-1]):
            if upstream in seconds:
                seconds[stage] -= seconds[upstream]
            else:
                seconds[upstream] = 0.0
                sources[upstream] = sources[stage]
        stage_cached, stage_sources = _provenance(
            tuple(sources[stage] for stage in STAGES)
        )
        return PipelineRun(
            row=row,
            trace=loaded.get(PROFILE),
            analyzed=loaded.get(ANALYZE),
            sequence=loaded.get(ORCHESTRATE),
            stage_seconds={stage: seconds[stage] for stage in STAGES},
            stage_cached=stage_cached,
            stage_sources=stage_sources,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_profiler(self, workload: WorkloadConfig) -> Trace:
        from ..runtime.profiler import profile_on_cpu

        trace = profile_on_cpu(
            workload.model,
            batch_size=workload.batch_size,
            optimizer=workload.optimizer,
            loop=TrainLoopConfig(
                iterations=self.iterations,
                zero_grad_position=workload.zero_grad_position,
                set_to_none=workload.set_to_none,
            ),
            iterations=self.iterations,
        )
        # the profile key fully determines this trace: skip content hashing
        object.__setattr__(
            trace, _TRACE_KEY_ATTR, self._profile_root(workload)
        )
        return trace

    def _run_orchestrator(
        self, analyzed: AnalyzedTrace, key: Optional[tuple]
    ) -> OrchestratedSequence:
        sequence = self.orchestrator.orchestrate(analyzed)
        if key is not None:
            # the orchestrate key fully determines this sequence: stamp it
            # as the sequence fingerprint so the simulate cache keys stably
            # (including across processes) without hashing the event list
            sequence.fingerprint = _sequence_key(key)
        return sequence


#: the ``(stage_cached, stage_sources)`` pair of each provenance, keyed by
#: the sources in ``STAGES`` order (at most 3 ** 4 entries): runs with
#: equal provenance report the same two dicts, so the answers a result
#: cache keeps do not each hold a copy
_PROVENANCE: dict[tuple[str, ...], tuple[dict[str, bool], dict[str, str]]] = {}


def _provenance(
    sources: tuple[str, ...]
) -> tuple[dict[str, bool], dict[str, str]]:
    maps = _PROVENANCE.get(sources)
    if maps is None:
        # setdefault: threads that race on a new provenance share one pair
        maps = _PROVENANCE.setdefault(
            sources,
            (
                {
                    stage: source != SOURCE_COMPUTE
                    for stage, source in zip(STAGES, sources)
                },
                dict(zip(STAGES, sources)),
            ),
        )
    return maps


def _sequence_key(orchestrate_key: tuple) -> str:
    """The fingerprint of the sequence an orchestrate key produces."""
    return f"orch:{orchestrate_key!r}"


def _replay(
    sequence: OrchestratedSequence,
    allocator_config: AllocatorConfig,
    two_level: bool,
    curve: bool,
) -> SimulateRow:
    simulation = MemorySimulator(
        allocator_config=allocator_config, two_level=two_level
    ).replay(sequence, record_timeline=curve)
    return SimulateRow.of(simulation, sequence)
