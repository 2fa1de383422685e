"""A thread-safe LRU cache for estimation results.

Keys are request fingerprints (:mod:`repro.service.fingerprint`); values
are whatever the service produced for them — normally an
:class:`~repro.core.result.EstimationResult`.  An estimate is a
deterministic function of the fingerprint (workload, device, estimator
version), so a cached answer never goes stale: LRU eviction by
``max_entries`` is the only way an entry leaves.

The cache is part of the sans-IO core: it never imports a concurrency
substrate.  Its lock slot starts as a :class:`~repro.service.context.NullLock`;
a concurrent driver binds a real primitive via :meth:`EstimateCache.bind_lock`
(the thread driver passes ``threading.Lock``; the asyncio driver leaves
the null lock because every cache access runs on the event loop).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from .context import LockFactory, NullLock

#: Answers an :class:`EstimateCache` keeps unless told otherwise.
DEFAULT_MAX_ENTRIES = 1024


@dataclass(frozen=True)
class CacheStats:
    """Counters accumulated over the cache's lifetime."""

    hits: int
    misses: int
    evictions: int
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
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }


class EstimateCache:
    """LRU mapping of fingerprint -> cached estimate."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 0:
            raise ValueError("max_entries cannot be negative")
        self.max_entries = max_entries
        self._lock = NullLock()
        #: fingerprint -> value, in LRU order
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def bind_lock(self, lock_factory: LockFactory) -> None:
        """Adopt a driver-supplied lock (idempotent; see module docs)."""
        if isinstance(self._lock, NullLock):
            self._lock = lock_factory()

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None; refreshes LRU order on hit."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
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
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # peek without disturbing LRU order or hit/miss counters
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_entries=self.max_entries,
            )
