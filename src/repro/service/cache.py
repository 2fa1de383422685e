"""A thread-safe LRU + TTL cache for estimation results.

Keys are request fingerprints (:mod:`repro.service.fingerprint`); values
are whatever the service produced for them — normally an
:class:`~repro.core.result.EstimationResult`.  Estimates are deterministic
per fingerprint, so the TTL exists only to bound staleness across code
deployments, not correctness; ``ttl_seconds=None`` disables expiry.

The clock is injectable (any ``() -> float`` in seconds) so tests can
drive expiry without sleeping.

The cache is part of the sans-IO core: it never imports a concurrency
substrate.  Its lock slot starts as a :class:`~repro.service.context.NullLock`;
a concurrent driver binds a real primitive via :meth:`EstimateCache.bind_lock`
(the thread driver passes ``threading.Lock``; the asyncio driver leaves
the null lock because every cache access runs on the event loop).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .context import LockFactory, NullLock

#: Answers an :class:`EstimateCache` keeps unless told otherwise.
DEFAULT_MAX_ENTRIES = 1024


@dataclass(frozen=True)
class CacheStats:
    """Counters accumulated over the cache's lifetime."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }


class EstimateCache:
    """LRU + TTL mapping of fingerprint -> cached estimate."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_entries < 0:
            raise ValueError("max_entries cannot be negative")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = NullLock()
        #: fingerprint -> (value, expires_at | None), in LRU order
        self._entries: "OrderedDict[str, tuple[Any, Optional[float]]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def bind_lock(self, lock_factory: LockFactory) -> None:
        """Adopt a driver-supplied lock (idempotent; see module docs)."""
        if isinstance(self._lock, NullLock):
            self._lock = lock_factory()

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None; refreshes LRU order on hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key``; evicts least-recently-used on overflow.

        With ``max_entries=0`` the cache is disabled: nothing is stored
        (and no eviction is counted), every ``get`` misses.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            # the timestamp is read under the lock: with an injectable
            # test clock (or concurrent put/get interleavings) a clock
            # read outside it could stamp an *earlier* time than an
            # already-completed expiry check, making entries appear to
            # expire out of insertion order
            expires_at = (
                None
                if self.ttl_seconds is None
                else self._clock() + self.ttl_seconds
            )
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, expires_at)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _reap_expired_locked(self) -> None:
        """Drop every past-TTL entry (and count it); caller holds the lock.

        ``len()`` and ``stats()`` report *live* entries: without this,
        dead entries linger in the count until a ``get`` happens to
        touch them, so a dashboard would see a "full" cache that serves
        nothing but misses.
        """
        if self.ttl_seconds is None or not self._entries:
            return
        now = self._clock()
        expired = [
            key
            for key, (_, expires_at) in self._entries.items()
            if expires_at is not None and now >= expires_at
        ]
        for key in expired:
            del self._entries[key]
        self._expirations += len(expired)

    def __len__(self) -> int:
        with self._lock:
            self._reap_expired_locked()
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # peek without disturbing LRU order or hit/miss counters — but a
        # past-TTL entry found here is reaped and counted, not left to
        # inflate len()/stats() until a get happens to touch it
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            _, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self._expirations += 1
                return False
            return True

    def stats(self) -> CacheStats:
        with self._lock:
            self._reap_expired_locked()
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                max_entries=self.max_entries,
            )
