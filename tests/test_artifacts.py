"""Artifact store (L2) + cached-simulate correctness and failure modes.

The persistent store must behave like a cache, never like a dependency:
corrupt blobs, truncated files, schema drift, and concurrent writers all
degrade to misses and rebuilds — the pipeline's answers stay
byte-identical with or without it.  The cached peak-only simulate path
must be invisible in the numbers, exactly like the other stage caches.
The pipeline persists the orchestrate and simulate rows only: those are
what a fresh process reads.
"""

import dataclasses
import hashlib
import os
import sqlite3
import subprocess
import sys
import threading
import typing
from dataclasses import replace

import pytest

from repro.allocator.constants import DEFAULT_CONFIG
from repro.allocator.stats import (
    AllocatorStats,
    StatCounter,
    TimelinePoint,
    TimelineRecorder,
)
from repro.core.artifacts import (
    _MISS,
    ArtifactStore,
    SCHEMA_VERSION,
    artifact_key,
    open_artifact_store,
)
from repro.core.estimator import XMemEstimator
from repro.core.orchestrator import (
    EventKind,
    MemoryOp,
    OrchestratedSequence,
    sequence_fingerprint,
)
from repro.core.pipeline import (
    ORCHESTRATE,
    SIMULATE,
    SOURCE_COMPUTE,
    SOURCE_MEMORY,
    SOURCE_STORE,
    STAGES,
    EstimationPipeline,
    PipelineCache,
    SimulateRow,
)
from repro.core.simulator import SimulationResult
from repro.framework.tensor import TensorRole
from repro.workload import RTX_3060, WorkloadConfig

WORKLOAD = WorkloadConfig("MobileNetV3Small", "sgd", 4)

MiB = 1024 * 1024


def synthetic_sequence() -> OrchestratedSequence:
    """A small hand-built sequence with a clear peak and full teardown."""
    events = []
    ts = 0
    for block_id in range(8):
        events.append(MemoryOp(ts, EventKind.ALLOC, block_id, 1 * MiB))
        ts += 1
    for block_id in range(4):
        events.append(MemoryOp(ts, EventKind.FREE, block_id, 1 * MiB))
        ts += 1
    for block_id in range(8, 12):
        events.append(MemoryOp(ts, EventKind.ALLOC, block_id, 2 * MiB))
        ts += 1
    for block_id in range(4, 12):
        size = 1 * MiB if block_id < 8 else 2 * MiB
        events.append(MemoryOp(ts, EventKind.FREE, block_id, size))
        ts += 1
    return OrchestratedSequence.from_ops(
        events, horizon=ts, num_blocks=12, persistent_bytes=0
    )


# ----------------------------------------------------------------------
# blob store basics
# ----------------------------------------------------------------------


class TestArtifactStoreBasics:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store.sqlite"))
        assert store.get("orchestrate", ("k",)) is _MISS
        assert store.put("orchestrate", ("k",), {"v": 1})
        assert store.get("orchestrate", ("k",)) == {"v": 1}
        assert store.hits == 1 and store.misses == 1 and store.puts == 1
        persistent = store.counters()
        assert persistent["put:orchestrate"] == 1
        assert persistent["hit:orchestrate"] == 1

    def test_none_is_a_valid_value(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store.sqlite"))
        store.put("simulate", "k", None)
        assert store.get("simulate", "k") is None

    def test_get_or_compute_builds_once_across_instances(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        first = ArtifactStore(path)
        calls = []
        value, stored = first.get_or_compute(
            "orchestrate", "k", lambda: calls.append(1) or "artifact"
        )
        assert (value, stored) == ("artifact", False)
        second = ArtifactStore(path)  # a "new process"
        value, stored = second.get_or_compute(
            "orchestrate", "k", lambda: calls.append(1) or "rebuilt"
        )
        assert (value, stored) == ("artifact", True)
        assert len(calls) == 1
        assert second.counters()["build:orchestrate"] == 1

    def test_open_artifact_store_shares_per_process(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        assert open_artifact_store(path) is open_artifact_store(path)

    def test_home_relative_path_opens_under_a_new_directory(
        self, tmp_path, monkeypatch
    ):
        # the documented example: "~" expands, missing parents are made
        monkeypatch.setenv("HOME", str(tmp_path))
        estimator = XMemEstimator(
            artifact_store="~/.cache/xmem/store.sqlite"
        )
        store = estimator.stage_cache.artifacts
        try:
            assert store.path == str(
                tmp_path / ".cache" / "xmem" / "store.sqlite"
            )
            assert store.put("simulate", "k", "v")
            assert store.get("simulate", "k") == "v"
            assert store is open_artifact_store(store.path)
        finally:
            store.close()

    def test_closed_store_does_not_poison_its_path(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = open_artifact_store(path)
        assert store.put("orchestrate", "k", "v")
        store.close()
        reopened = open_artifact_store(path)
        assert reopened is not store
        assert reopened.get("orchestrate", "k") == "v"
        reopened.close()

    def test_close_leaves_a_newer_registry_entry_alone(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        stale = open_artifact_store(path)
        stale.close()
        current = open_artifact_store(path)
        stale.close()  # closing twice must not evict the live store
        assert open_artifact_store(path) is current
        current.close()

    def test_build_failure_releases_claim(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store.sqlite"))

        def boom():
            raise RuntimeError("orchestrator crashed")

        with pytest.raises(RuntimeError):
            store.get_or_compute("orchestrate", "k", boom)
        # the claim is gone: the next builder proceeds immediately
        value, stored = store.get_or_compute(
            "orchestrate", "k", lambda: "ok"
        )
        assert (value, stored) == ("ok", False)


# ----------------------------------------------------------------------
# failure modes: corruption, schema drift, eviction
# ----------------------------------------------------------------------


class TestArtifactStoreFailureModes:
    def test_truncated_blob_is_a_miss(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ArtifactStore(path)
        store.put("orchestrate", "k", list(range(1000)))
        # truncate the payload behind the store's back (checksum now
        # mismatches, exactly like a torn write)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE artifacts SET payload = substr(payload, 1, 16)"
            )
            conn.commit()
        assert store.get("orchestrate", "k") is _MISS
        assert store.corrupt_dropped == 1
        # the corrupt row was dropped, so a rebuild can land cleanly
        value, stored = store.get_or_compute(
            "orchestrate", "k", lambda: "new"
        )
        assert (value, stored) == ("new", False)
        assert store.get("orchestrate", "k") == "new"

    def test_unpicklable_garbage_blob_is_a_miss(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ArtifactStore(path)
        store.put("simulate", "k", "fine")
        import hashlib

        garbage = b"\x80\x04notpickle"
        with sqlite3.connect(path) as conn:
            # valid checksum over invalid pickle bytes: the unpickle
            # failure path, not the checksum path
            conn.execute(
                "UPDATE artifacts SET payload = ?, checksum = ?",
                (garbage, hashlib.sha256(garbage).hexdigest()),
            )
            conn.commit()
        assert store.get("simulate", "k") is _MISS
        assert store.corrupt_dropped == 1

    def test_corrupt_database_file_is_recreated(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is not a sqlite database at all")
        store = ArtifactStore(path)
        assert store.schema_resets == 1
        store.put("orchestrate", "k", "v")
        assert store.get("orchestrate", "k") == "v"

    def test_schema_version_mismatch_recreates_store(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        old = ArtifactStore(path)
        old.put("orchestrate", "k", "stale")
        old.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            conn.commit()
        fresh = ArtifactStore(path)
        assert fresh.schema_resets == 1
        assert fresh.get("orchestrate", "k") is _MISS  # old rows dropped
        with sqlite3.connect(path) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        assert row[0] == str(SCHEMA_VERSION)

    def test_size_cap_evicts_least_recently_used_first(self, tmp_path):
        blob = b"x" * 4096
        # cap fits two blobs (pickle overhead is small vs 4 KiB)
        store = ArtifactStore(
            str(tmp_path / "store.sqlite"), max_bytes=2 * 4200
        )
        store.put("orchestrate", "a", blob)
        store.put("orchestrate", "b", blob)
        assert store.get("orchestrate", "a") == blob  # refresh a's recency
        store.put("orchestrate", "c", blob)  # over budget: b is the LRU row
        assert store.get("orchestrate", "b") is _MISS
        assert store.get("orchestrate", "a") == blob
        assert store.get("orchestrate", "c") == blob
        assert store.evictions == 1

    def test_closed_store_degrades_to_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store.sqlite"))
        store.put("orchestrate", "k", "v")
        store.close()
        assert store.get("orchestrate", "k") is _MISS
        assert store.put("orchestrate", "k2", "v") is False
        value, stored = store.get_or_compute(
            "orchestrate", "k3", lambda: "built"
        )
        assert (value, stored) == ("built", False)


# ----------------------------------------------------------------------
# stored shape: a class a row reaches changes only with a schema bump
# ----------------------------------------------------------------------

#: the shape digest each schema version was written with
STORED_SHAPES = {
    4: "ac02c3c8d0593cda",
    5: "80c887b1efdf6891",
    6: "938d2c42caa171bd",
}
#: every dataclass a stored (simulate or orchestrate) row reaches
STORED_DATACLASSES = (
    SimulateRow,
    SimulationResult,
    AllocatorStats,
    StatCounter,
    TimelinePoint,
    OrchestratedSequence,
)


def stored_shape_digest() -> str:
    """Field names and annotation strings of the stored dataclasses, the
    instance attributes of the two stored classes that hold more than
    dataclass fields, and ``TensorRole``'s members."""
    parts: list = [
        (cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)])
        for cls in STORED_DATACLASSES
    ]
    parts.append(("TimelineRecorder", sorted(vars(TimelineRecorder()))))
    sequence = OrchestratedSequence.from_rows(
        [], horizon=0, num_blocks=0, persistent_bytes=0
    )
    parts.append(("OrchestratedSequence", sorted(vars(sequence))))
    parts.append(("TensorRole", [(r.name, r.value) for r in TensorRole]))
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def repro_classes(hint) -> set:
    """The classes of this package a resolved type hint mentions."""
    found = set()
    if isinstance(hint, type) and hint.__module__.startswith("repro."):
        found.add(hint)
    for argument in typing.get_args(hint):
        found |= repro_classes(argument)
    return found


class TestStoredShape:
    """An old pickle of a class that gained a defaulted field unpickles
    as a *hit* that reads the class default, so a shape change without a
    ``SCHEMA_VERSION`` bump would answer from stale rows."""

    def test_the_stored_shape_is_pinned_to_the_schema_version(self):
        assert stored_shape_digest() == STORED_SHAPES[SCHEMA_VERSION], (
            "a class a stored row reaches changed shape: bump "
            "artifacts.SCHEMA_VERSION and pin the new digest"
        )

    def test_the_digest_covers_every_class_a_row_reaches(self):
        covered = set(STORED_DATACLASSES) | {TimelineRecorder, TensorRole}
        for cls in STORED_DATACLASSES:
            fields = dataclasses.fields(cls)
            assert all(isinstance(f.type, str) for f in fields)
            for hint in typing.get_type_hints(cls).values():
                assert repro_classes(hint) <= covered, cls.__name__


# ----------------------------------------------------------------------
# cross-process behaviour
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """
import sys
from repro.core.artifacts import ArtifactStore

path, tag = sys.argv[1], sys.argv[2]
store = ArtifactStore(path, claim_timeout=10.0)
for index in range(12):
    key = ("shared", index)
    value, _ = store.get_or_compute(
        "orchestrate", key, lambda index=index: f"artifact-{index}"
    )
    assert value == f"artifact-{index}", (tag, key, value)
print("ok", tag)
"""


class TestArtifactStoreConcurrency:
    def test_two_processes_write_the_same_keys(self, tmp_path):
        """Two real processes race get_or_compute over one store file.

        WAL + the claims table must keep the store intact and build each
        key exactly once across both writers (a claim loser inherits the
        winner's artifact instead of rebuilding).
        """
        path = str(tmp_path / "store.sqlite")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, path, f"w{index}"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for index in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.startswith("ok")
        store = ArtifactStore(path)
        counters = store.counters()
        assert counters["build:orchestrate"] == 12  # exactly once per key
        for index in range(12):
            assert store.get("orchestrate", ("shared", index)) == (
                f"artifact-{index}"
            )

    def test_peer_builds_between_our_miss_and_our_claim(self, tmp_path):
        """The interleaving behind the 1-in-10 double build, forced.

        We read MISS; before we claim, a peer (a second connection to
        the same file, as another process would hold) builds, stores and
        releases.  Our claim then succeeds — nobody holds it — and only
        a second look at the store keeps us from building the key again.
        """
        path = str(tmp_path / "store.sqlite")
        ours, peer = ArtifactStore(path), ArtifactStore(path)
        real_claim = ours._claim

        def claim_once_the_peer_is_done(address):
            peer.get_or_compute("orchestrate", "k", lambda: "peer-built")
            return real_claim(address)

        ours._claim = claim_once_the_peer_is_done
        built = []
        value, stored = ours.get_or_compute(
            "orchestrate", "k", lambda: built.append("ours") or "ours"
        )
        assert (value, stored) == ("peer-built", True)
        assert built == []
        counters = ours.counters()
        assert counters["build:orchestrate"] == 1
        # the second look is the same request: ours + the peer's, not 3
        assert ours.misses == 1
        assert counters["miss:orchestrate"] == 2
        # and the claim we won was given back
        assert peer._claim(artifact_key("orchestrate", "k"))

    def test_peer_stores_as_our_wait_for_its_claim_times_out(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        ours = ArtifactStore(path, claim_timeout=0.0)
        peer = ArtifactStore(path)

        def peer_holds_the_claim_and_finishes(address):
            peer.put("orchestrate", "k", "peer-built")
            return False

        ours._claim = peer_holds_the_claim_and_finishes
        built = []
        value, stored = ours.get_or_compute(
            "orchestrate", "k", lambda: built.append("ours") or "ours"
        )
        assert (value, stored) == ("peer-built", True)
        assert built == []
        assert "build:orchestrate" not in ours.counters()

    def test_concurrent_threads_single_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store.sqlite"))
        results = {}
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            for key in range(8):
                value, _ = store.get_or_compute(
                    "simulate", key, lambda key=key: f"v{key}"
                )
                results[(index, key)] = value

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(
            results[(index, key)] == f"v{key}"
            for index in range(4)
            for key in range(8)
        )


# ----------------------------------------------------------------------
# stage-store single flight under failure (satellite regression)
# ----------------------------------------------------------------------


class TestStageStoreGateRelease:
    def test_raising_builder_releases_concurrent_waiters(self):
        """A builder that dies must wake its waiters, not strand them.

        Regression for the in-flight gate: the owner's exception path now
        clears the gate in a ``finally``, so waiters re-check, take over
        the build, and everyone returns.
        """
        cache = PipelineCache()
        owner_entered = threading.Event()
        release_owner = threading.Event()
        outcome = {}

        def failing_build():
            owner_entered.set()
            release_owner.wait(timeout=10)
            raise RuntimeError("owner died mid-build")

        def owner():
            try:
                cache.traces.get_or_compute("k", failing_build)
            except RuntimeError as error:
                outcome["owner"] = error

        def waiter():
            outcome["waiter"] = cache.traces.get_or_compute(
                "k", lambda: "recovered"
            )

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_entered.wait(timeout=10)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        # the waiter is parked on the in-flight gate; let the owner raise
        release_owner.set()
        owner_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        assert not waiter_thread.is_alive(), "waiter stranded on gate"
        assert isinstance(outcome["owner"], RuntimeError)
        assert outcome["waiter"] == ("recovered", False)


# ----------------------------------------------------------------------
# the cached peak-only simulate stage
# ----------------------------------------------------------------------


class TestDeltaSimulation:
    def test_pipeline_simulate_cache_serves_peak_only_repeats(self):
        cache = PipelineCache()
        pipeline = EstimationPipeline(iterations=2, cache=cache)
        sequence = synthetic_sequence()

        def counters():
            stats = cache.simulations.stats()
            return stats["misses"], stats["hits"]

        first = pipeline.simulate(sequence, DEFAULT_CONFIG, True, curve=False)
        assert counters() == (1, 0)  # built
        second = pipeline.simulate(sequence, DEFAULT_CONFIG, True, curve=False)
        assert counters() == (1, 1)  # served from the L1
        assert second is first  # the cached peak-only result, verbatim
        # curve requests never touch the cache: the timeline is the point
        curved = pipeline.simulate(sequence, DEFAULT_CONFIG, True, curve=True)
        assert counters() == (1, 1)
        assert len(curved.timeline) > 0
        assert curved.peak_reserved_bytes == first.peak_reserved_bytes

    def test_sequence_fingerprint_is_stable_and_memoized(self):
        one = synthetic_sequence()
        two = synthetic_sequence()
        assert sequence_fingerprint(one) == sequence_fingerprint(two)
        assert sequence_fingerprint(one) is sequence_fingerprint(one)
        # pipeline-stamped sequences skip hashing entirely
        one.fingerprint = None
        object.__setattr__(one, "fingerprint", "orch:stamped")
        assert sequence_fingerprint(one) == "orch:stamped"

    def test_warm_estimator_serves_simulate_from_memory(self):
        estimator = XMemEstimator(iterations=2, curve=False)
        first = estimator.estimate(WORKLOAD, RTX_3060)
        second = estimator.estimate(WORKLOAD, RTX_3060)
        assert second.stage_sources[SIMULATE] == SOURCE_MEMORY
        assert second.peak_bytes == first.peak_bytes
        assert second.detail == first.detail


# ----------------------------------------------------------------------
# end-to-end: pipeline over a persistent store
# ----------------------------------------------------------------------

CELLS = (WORKLOAD, WORKLOAD.with_batch_size(8))
NO_SPLIT = replace(DEFAULT_CONFIG, allow_split=False)


def _zero_l1_estimator(path: str, **knobs) -> XMemEstimator:
    """A fresh process's shape: nothing in the L1, everything in the L2."""
    return XMemEstimator(
        iterations=2,
        stage_cache=PipelineCache(
            max_traces=0,
            max_analyses=0,
            max_sequences=0,
            max_simulations=0,
            artifact_store=open_artifact_store(path),
        ),
        **knobs,
    )


def _delta(before: dict, after: dict, prefixes=("hit:", "build:")) -> dict:
    """Persistent counters that moved, restricted to ``prefixes``."""
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if name.startswith(prefixes) and after[name] != before.get(name, 0)
    }


class TestPipelineWithArtifactStore:
    def test_second_cache_starts_warm_from_the_store(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        cold = XMemEstimator(
            iterations=2,
            curve=False,
            stage_cache=PipelineCache(artifact_store=ArtifactStore(path)),
        )
        first = cold.estimate(WORKLOAD, RTX_3060)
        assert set(first.stage_sources.values()) == {SOURCE_COMPUTE}
        warm = XMemEstimator(
            iterations=2,
            curve=False,
            stage_cache=PipelineCache(artifact_store=ArtifactStore(path)),
        )
        second = warm.estimate(WORKLOAD, RTX_3060)
        # a fresh L1 over a warm store: every stage is a store read
        assert second.stage_sources == {
            stage: SOURCE_STORE for stage in STAGES
        }
        assert second.peak_bytes == first.peak_bytes
        assert second.detail == first.detail

    def test_version_2_store_is_a_miss_and_rebuilds(self, tmp_path):
        # version 2 pickled MemoryEvent / MemoryOp objects; version 4
        # stores the orchestrate and simulate rows only, version 5 a
        # sequence as int columns, version 6 a simulate row with its
        # finished detail report
        assert SCHEMA_VERSION == 6
        path = str(tmp_path / "store.sqlite")
        writer = ArtifactStore(path)
        cold = XMemEstimator(
            iterations=2, curve=False, artifact_store=writer
        ).estimate(WORKLOAD, RTX_3060)
        writer.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
            )
            conn.commit()
        store = ArtifactStore(path)
        try:
            rebuilt = XMemEstimator(
                iterations=2, curve=False, artifact_store=store
            ).estimate(WORKLOAD, RTX_3060)
            assert store.schema_resets == 1
            assert store.hits == 0
        finally:
            store.close()
        assert set(rebuilt.stage_sources.values()) == {SOURCE_COMPUTE}
        assert rebuilt.peak_bytes == cold.peak_bytes
        assert rebuilt.detail == cold.detail

    def test_a_cold_pass_stores_orchestrate_and_simulate_rows_only(
        self, tmp_path
    ):
        path = str(tmp_path / "store.sqlite")
        store = ArtifactStore(path)
        try:
            writer = XMemEstimator(
                iterations=2, curve=False, artifact_store=store
            )
            for cell in CELLS:
                writer.estimate(cell, RTX_3060)
            counters = store.counters()
        finally:
            store.close()
        with sqlite3.connect(path) as conn:
            stages = {
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT stage FROM artifacts"
                )
            }
        assert stages == {ORCHESTRATE, SIMULATE}
        for name in ("put:profile", "put:analyze", "build:profile"):
            assert name not in counters, counters
        assert counters["build:orchestrate"] == len(CELLS)
        assert counters["build:simulate"] == len(CELLS)

    def test_stored_cell_is_answered_by_one_row(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        writer = XMemEstimator(
            iterations=2, curve=False, artifact_store=ArtifactStore(path)
        )
        cold = [writer.estimate(cell, RTX_3060) for cell in CELLS]
        estimator = _zero_l1_estimator(path, curve=False)
        store = estimator.stage_cache.artifacts
        try:
            for cell, expected in zip(CELLS, cold):
                hits, counters = store.hits, store.counters()
                result = estimator.estimate(cell, RTX_3060)
                assert store.hits == hits + 1
                # one simulate hit, and no other hit, build or put
                assert _delta(
                    counters, store.counters(), ("hit:", "build:", "put:")
                ) == {"hit:simulate": 1}
                assert result.peak_bytes == expected.peak_bytes
                assert result.detail == expected.detail
                assert result.stage_sources == {
                    stage: SOURCE_STORE for stage in STAGES
                }
        finally:
            store.close()

    @pytest.mark.parametrize(
        "knobs, served",
        [
            # another allocator configuration: the orchestrate row
            # answers, one replay builds and stores its simulate row
            (
                {"allocator_config": NO_SPLIT, "curve": False},
                {"hit:orchestrate": 1, "build:simulate": 1},
            ),
            # a curve is never cached: the orchestrate row answers
            ({"curve": True}, {"hit:orchestrate": 1}),
        ],
        ids=["no_split", "curve"],
    )
    def test_a_simulate_miss_is_served_by_the_orchestrate_row(
        self, tmp_path, knobs, served
    ):
        path = str(tmp_path / "store.sqlite")
        writer = XMemEstimator(
            iterations=2, curve=False, artifact_store=ArtifactStore(path)
        )
        for cell in CELLS:  # a default pass warms the store
            writer.estimate(cell, RTX_3060)
        estimator = _zero_l1_estimator(path, **knobs)
        store = estimator.stage_cache.artifacts
        try:
            for cell in CELLS:
                counters = store.counters()
                result = estimator.estimate(cell, RTX_3060)
                assert _delta(counters, store.counters()) == served
                assert result.stage_sources == {
                    **{stage: SOURCE_STORE for stage in STAGES},
                    SIMULATE: SOURCE_COMPUTE,
                }
                storeless = XMemEstimator(
                    iterations=2, stage_cache=False, **knobs
                ).estimate(cell, RTX_3060)
                assert result.peak_bytes == storeless.peak_bytes
                assert result.detail == storeless.detail
                if result.curve is not None:
                    assert result.curve.series() == storeless.curve.series()
        finally:
            store.close()

    def test_a_shared_cache_brings_its_own_store(self, tmp_path):
        with pytest.raises(ValueError, match="artifact_store"):
            XMemEstimator(
                stage_cache=PipelineCache(),
                artifact_store=str(tmp_path / "store.sqlite"),
            )

    def test_corrupt_simulate_row_falls_back_to_the_sequence(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        cold = XMemEstimator(
            iterations=2, curve=False, artifact_store=ArtifactStore(path)
        ).estimate(WORKLOAD, RTX_3060)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE artifacts SET payload = substr(payload, 1, 16) "
                "WHERE stage = 'simulate'"
            )
            conn.commit()
        estimator = _zero_l1_estimator(path, curve=False)
        store = estimator.stage_cache.artifacts
        try:
            before = store.counters()
            result = estimator.estimate(WORKLOAD, RTX_3060)
            after = store.counters()
        finally:
            store.close()
        assert store.corrupt_dropped == 1
        assert after["hit:orchestrate"] == before.get("hit:orchestrate", 0) + 1
        assert after["build:simulate"] == before["build:simulate"] + 1
        assert after.get("hit:analyze", 0) == before.get("hit:analyze", 0)
        assert result.stage_sources[SIMULATE] == SOURCE_COMPUTE
        assert result.stage_sources["orchestrate"] == SOURCE_STORE
        assert result.peak_bytes == cold.peak_bytes
        assert result.detail == cold.detail

    def test_artifact_key_is_process_stable(self):
        # repr-based addressing: primitive tuples hash identically across
        # processes (unlike salted hash())
        key = ("profile", "MobileNetV3Small", "sgd", 4, "pos1", True, 2)
        assert artifact_key("orchestrate", key) == artifact_key(
            "orchestrate", key
        )
        assert artifact_key("orchestrate", key) != artifact_key(
            "simulate", key
        )

    def test_store_metrics_flow_through_service(self, tmp_path):
        from repro.service import EstimationService

        path = str(tmp_path / "store.sqlite")
        XMemEstimator(
            iterations=2, curve=False, artifact_store=ArtifactStore(path)
        ).estimate(WORKLOAD, RTX_3060)  # warm the store
        service = EstimationService(
            estimator=XMemEstimator(
                iterations=2,
                curve=False,
                artifact_store=ArtifactStore(path),
            )
        )
        with service:
            service.estimate(WORKLOAD, RTX_3060)
            stats = service.stats()
        sources = stats["service"]["stage_sources"]
        assert sources.get("profile:store") == 1
        assert sources.get("simulate:store") == 1
        assert "simulate:compute" not in sources
