"""Persistent content-addressed artifact store: the stage caches' L2.

The in-memory :class:`~repro.core.pipeline.PipelineCache` (PR 3) won the
warm path, but it dies with the process: every new CLI run, CI job, and
procpool worker pays the cold profile/analyze/orchestrate chain again.
:class:`ArtifactStore` is the cross-process answer — a stdlib-``sqlite3``
blob store, content-addressed by stage name + cache key, that the stage
stores consult on an L1 miss and populate after a build.  The pipeline
persists only the rows a fresh process reads — orchestrate and simulate;
the profile and analyze stages stay in-process.

Design points:

* **WAL mode** — concurrent readers never block the single writer, so a
  4-worker procpool can share one store file.
* **Versioned schema** — a ``schema_version`` mismatch (old store file,
  newer code) drops and recreates the tables instead of erroring.
* **Corruption tolerant** — a truncated blob, a checksum mismatch, an
  unpicklable payload, or a corrupt database file is always a *miss*,
  never a crash; bad rows are dropped, bad files recreated.
* **Size-capped with LRU reaping** — total payload bytes above
  ``max_bytes`` evict least-recently-*used* rows first.
* **Cross-process single-flight** — a ``claims`` table extends the stage
  stores' per-key in-process gating across processes: one worker builds,
  the rest poll the store and inherit the artifact. Claims go stale after
  ``claim_timeout`` seconds so a dead owner cannot wedge the fleet.
* **Persistent counters** — per-stage build/hit/miss counts survive the
  process, which is how a bench can assert "the orchestrate stage ran
  exactly once per unique workload across all 4 workers".

Everything here fails open: if sqlite misbehaves the store degrades to
"always miss, builds run locally" and the pipeline stays correct.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
import time
from typing import Any, Callable, Optional, Union

#: Bump when the table layout or a stored value's shape changes; old
#: stores are dropped + recreated.  Version 4 stores orchestrate and
#: simulate rows only; version 5 stores a sequence as int columns.
SCHEMA_VERSION = 5

#: Default payload-byte budget before LRU reaping kicks in (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Seconds after which another process's build claim is considered dead.
DEFAULT_CLAIM_TIMEOUT = 30.0

#: Internal miss sentinel (``None`` is a valid stored value).
_MISS = object()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    key TEXT PRIMARY KEY,
    stage TEXT NOT NULL,
    payload BLOB NOT NULL,
    checksum TEXT NOT NULL,
    nbytes INTEGER NOT NULL,
    created_at REAL NOT NULL,
    last_used_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS artifacts_lru ON artifacts (last_used_at);
CREATE TABLE IF NOT EXISTS claims (
    key TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    claimed_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


def artifact_key(stage: str, key: Any) -> str:
    """Content address of a stage-cache key.

    Stage keys are tuples of primitives (strings, ints, bools, frozen
    dataclasses with value reprs), so ``repr`` is a stable cross-process
    serialization — unlike ``hash()``, which is salted per process.
    """
    digest = hashlib.sha256(f"{stage}|{key!r}".encode("utf-8")).hexdigest()
    return f"{stage}:{digest[:40]}"


class ArtifactStore:
    """Content-addressed pickle-blob store over one sqlite file.

    Thread-safe (one connection guarded by a lock — WAL keeps *other*
    processes unblocked) and safe to share between every stage store of a
    process via :func:`open_artifact_store`.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        claim_timeout: float = DEFAULT_CLAIM_TIMEOUT,
        sqlite_timeout: float = 10.0,
    ):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.claim_timeout = claim_timeout
        self.sqlite_timeout = sqlite_timeout
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._owner = f"{os.getpid()}:{id(self):x}"
        # per-instance (process-local) counters; the persistent cross-
        # process counterparts live in the ``counters`` table
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self.schema_resets = 0
        self.errors = 0
        self._open()

    # ------------------------------------------------------------------
    # connection / schema lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self.sqlite_timeout, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.sqlite_timeout * 1000)}")
        return conn

    def _open(self) -> None:
        with self._lock:
            try:
                self._conn = self._connect()
                self._ensure_schema()
            except sqlite3.Error:
                # the file exists but is not a database (truncated,
                # overwritten, wrong format): recreate it from scratch
                self._recreate_file()

    def _recreate_file(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except OSError:
                pass
        self._conn = self._connect()
        self._ensure_schema()
        self.schema_resets += 1

    def _ensure_schema(self) -> None:
        conn = self._conn
        assert conn is not None
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            conn.commit()
        elif row[0] != str(SCHEMA_VERSION):
            # a future/past layout: drop everything rather than guess
            conn.executescript(
                "DROP TABLE IF EXISTS artifacts;"
                "DROP TABLE IF EXISTS claims;"
                "DROP TABLE IF EXISTS counters;"
                "DROP TABLE IF EXISTS meta;"
            )
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            conn.commit()
            self.schema_resets += 1

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
        # a closed store must not be handed out again for its path
        resolved = os.path.abspath(self.path)
        with _REGISTRY_LOCK:
            if _OPEN_STORES.get(resolved) is self:
                del _OPEN_STORES[resolved]

    # ------------------------------------------------------------------
    # blob get / put
    # ------------------------------------------------------------------
    def get(self, stage: str, key: Any) -> Any:
        """Return the stored value, or the module miss sentinel.

        Any failure — sqlite error, checksum mismatch, unpicklable blob —
        is a miss; corrupt rows are deleted on the way out.
        """
        return self._get(stage, key)

    def _get(self, stage: str, key: Any, recheck: bool = False) -> Any:
        """:meth:`get`; ``recheck`` marks the second look of one
        ``get_or_compute`` (whose first look already counted the miss),
        so an absent row is not counted again."""
        address = artifact_key(stage, key)
        with self._lock:
            conn = self._conn
            if conn is None:
                self.misses += 1
                return _MISS
            try:
                row = conn.execute(
                    "SELECT payload, checksum FROM artifacts WHERE key = ?",
                    (address,),
                ).fetchone()
            except sqlite3.Error:
                self.errors += 1
                self.misses += 1
                return _MISS
            if row is None:
                if not recheck:
                    self.misses += 1
                    self._bump_counter(f"miss:{stage}")
                return _MISS
            payload, checksum = row
            try:
                if hashlib.sha256(payload).hexdigest() != checksum:
                    raise ValueError("artifact checksum mismatch")
                value = pickle.loads(payload)
            except Exception:
                # truncated / corrupt / stale-class blob: drop it, miss
                self.corrupt_dropped += 1
                self.misses += 1
                try:
                    conn.execute(
                        "DELETE FROM artifacts WHERE key = ?", (address,)
                    )
                    conn.commit()
                except sqlite3.Error:
                    self.errors += 1
                return _MISS
            self.hits += 1
            try:
                conn.execute(
                    "UPDATE artifacts SET last_used_at = ? WHERE key = ?",
                    (time.time(), address),
                )
                self._bump_counter(f"hit:{stage}", commit=False)
                conn.commit()
            except sqlite3.Error:
                self.errors += 1
            return value

    def put(self, stage: str, key: Any, value: Any) -> bool:
        """Store ``value``; returns False (and stays silent) on failure."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        checksum = hashlib.sha256(payload).hexdigest()
        address = artifact_key(stage, key)
        now = time.time()
        with self._lock:
            conn = self._conn
            if conn is None:
                return False
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO artifacts "
                    "(key, stage, payload, checksum, nbytes, created_at, "
                    "last_used_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        address,
                        stage,
                        payload,
                        checksum,
                        len(payload),
                        now,
                        now,
                    ),
                )
                self._bump_counter(f"put:{stage}", commit=False)
                conn.commit()
            except sqlite3.Error:
                self.errors += 1
                return False
            self.puts += 1
            self._reap()
            return True

    def _reap(self) -> None:
        """Evict least-recently-used rows until under the byte budget."""
        conn = self._conn
        if conn is None or self.max_bytes <= 0:
            return
        try:
            while True:
                total = conn.execute(
                    "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts"
                ).fetchone()[0]
                if total <= self.max_bytes:
                    break
                victim = conn.execute(
                    "SELECT key FROM artifacts "
                    "ORDER BY last_used_at ASC, rowid ASC LIMIT 1"
                ).fetchone()
                if victim is None:
                    break
                conn.execute(
                    "DELETE FROM artifacts WHERE key = ?", (victim[0],)
                )
                self._bump_counter("evictions", commit=False)
                conn.commit()
                self.evictions += 1
        except sqlite3.Error:
            self.errors += 1

    # ------------------------------------------------------------------
    # cross-process single-flight
    # ------------------------------------------------------------------
    def _claim(self, address: str) -> bool:
        """Try to become the builder for ``address``.

        Fails open: on any sqlite error the caller builds locally, which
        costs duplicate work but never blocks.
        """
        now = time.time()
        with self._lock:
            conn = self._conn
            if conn is None:
                return True
            try:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO claims (key, owner, claimed_at) "
                    "VALUES (?, ?, ?)",
                    (address, self._owner, now),
                )
                conn.commit()
                if cursor.rowcount:
                    return True
                row = conn.execute(
                    "SELECT claimed_at FROM claims WHERE key = ?", (address,)
                ).fetchone()
                if row is None:
                    return False  # just released; retry via polling
                if now - row[0] > self.claim_timeout:
                    # the owner is presumed dead: steal the claim (the
                    # claimed_at guard keeps two stealers from both winning)
                    cursor = conn.execute(
                        "UPDATE claims SET owner = ?, claimed_at = ? "
                        "WHERE key = ? AND claimed_at = ?",
                        (self._owner, now, address, row[0]),
                    )
                    conn.commit()
                    return bool(cursor.rowcount)
                return False
            except sqlite3.Error:
                self.errors += 1
                return True

    def _release_claim(self, address: str) -> None:
        with self._lock:
            conn = self._conn
            if conn is None:
                return
            try:
                conn.execute(
                    "DELETE FROM claims WHERE key = ? AND owner = ?",
                    (address, self._owner),
                )
                conn.commit()
            except sqlite3.Error:
                self.errors += 1

    def get_or_compute(
        self, stage: str, key: Any, build: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, was_stored)``; one process builds per key.

        A loser polls the store while the claim holder builds, inheriting
        the artifact when it lands; if the claim goes stale (owner died)
        the loser takes over the build.
        """
        value = self.get(stage, key)
        if value is not _MISS:
            return value, True
        address = artifact_key(stage, key)
        if not self._claim(address):
            deadline = time.monotonic() + self.claim_timeout
            delay = 0.002
            while time.monotonic() < deadline:
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
                value = self.get(stage, key)
                if value is not _MISS:
                    return value, True
                if self._claim(address):
                    break
            # deadline without an artifact or a claim: build locally
            # anyway — liveness beats deduplication
        # a peer may have built, stored and released between our MISS
        # and our claim (or while we timed out): look again before
        # building, or the key is built twice
        value = self._get(stage, key, recheck=True)
        if value is not _MISS:
            self._release_claim(address)
            return value, True
        try:
            value = build()
        except BaseException:
            self._release_claim(address)
            raise
        try:
            self.put(stage, key, value)
            self._bump_counter(f"build:{stage}")
        finally:
            self._release_claim(address)
        return value, False

    # ------------------------------------------------------------------
    # counters / stats
    # ------------------------------------------------------------------
    def _bump_counter(self, name: str, delta: int = 1, commit: bool = True):
        # re-entrant: most callers already hold it, get_or_compute's
        # build counter does not — and two threads inside one sqlite
        # connection at once fail with a bare SystemError
        with self._lock:
            conn = self._conn
            if conn is None:
                return
            try:
                conn.execute(
                    "INSERT INTO counters (name, value) VALUES (?, ?) "
                    "ON CONFLICT(name) DO UPDATE SET value = value + ?",
                    (name, delta, delta),
                )
                if commit:
                    conn.commit()
            except sqlite3.Error:
                self.errors += 1

    def counters(self) -> dict[str, int]:
        """The persistent (cross-process, cross-run) counter table."""
        with self._lock:
            conn = self._conn
            if conn is None:
                return {}
            try:
                rows = conn.execute(
                    "SELECT name, value FROM counters"
                ).fetchall()
            except sqlite3.Error:
                self.errors += 1
                return {}
            return {name: value for name, value in rows}

    def total_bytes(self) -> int:
        with self._lock:
            conn = self._conn
            if conn is None:
                return 0
            try:
                return conn.execute(
                    "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts"
                ).fetchone()[0]
            except sqlite3.Error:
                self.errors += 1
                return 0

    def __len__(self) -> int:
        with self._lock:
            conn = self._conn
            if conn is None:
                return 0
            try:
                return conn.execute(
                    "SELECT COUNT(*) FROM artifacts"
                ).fetchone()[0]
            except sqlite3.Error:
                self.errors += 1
                return 0

    def stats(self) -> dict:
        """JSON-ready: this instance's counters plus the persistent ones."""
        return {
            "path": self.path,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
            "schema_resets": self.schema_resets,
            "errors": self.errors,
            "entries": len(self),
            "total_bytes": self.total_bytes(),
            "persistent": self.counters(),
        }

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Per-process store registry: every estimator/stage store in a process
#: that names the same file shares one connection (and its counters).
_OPEN_STORES: dict[str, ArtifactStore] = {}
_REGISTRY_LOCK = threading.Lock()


def open_artifact_store(path: str, **kwargs: Any) -> ArtifactStore:
    """Open (or reuse) the process-wide store for ``path``.

    ``kwargs`` (``max_bytes``, ``claim_timeout``) only apply when this
    call creates the instance; later callers inherit the first opener's
    configuration.  ``~`` expands to the home directory, and a missing
    parent directory is created.
    """
    resolved = os.path.abspath(os.path.expanduser(os.fspath(path)))
    with _REGISTRY_LOCK:
        store = _OPEN_STORES.get(resolved)
        if store is None:
            os.makedirs(os.path.dirname(resolved), exist_ok=True)
            store = ArtifactStore(resolved, **kwargs)
            _OPEN_STORES[resolved] = store
        return store


def resolve_artifact_store(
    store: Union[ArtifactStore, str, os.PathLike],
) -> ArtifactStore:
    """Accept a store instance or a path to open one at."""
    if isinstance(store, ArtifactStore):
        return store
    return open_artifact_store(store)
