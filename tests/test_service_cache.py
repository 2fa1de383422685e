"""LRU estimate cache."""

import pytest

from repro.service.cache import EstimateCache


class TestLru:
    def test_hit_and_miss(self):
        cache = EstimateCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_least_recently_used_evicted(self):
        cache = EstimateCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a: b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = EstimateCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes both value and recency
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_contains_does_not_disturb_state(self):
        cache = EstimateCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "missing" not in cache
        cache.put("c", 3)  # a was NOT refreshed by the peek: a is LRU
        assert cache.get("a") is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EstimateCache(max_entries=-1)

    def test_clear(self):
        cache = EstimateCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_stats_as_dict(self):
        cache = EstimateCache(max_entries=8)
        cache.put("a", 1)
        cache.get("a")
        payload = cache.stats().as_dict()
        assert payload["size"] == 1
        assert payload["max_entries"] == 8
        assert payload["hit_rate"] == 1.0


class TestEdgeCapacities:
    def test_capacity_zero_disables_caching(self):
        cache = EstimateCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert "a" not in cache
        assert len(cache) == 0
        stats = cache.stats()
        # a disabled cache records misses but never hits or evictions
        # (a no-op put is not an insert-then-evict)
        assert stats.hits == 0
        assert stats.misses == 1
        assert stats.evictions == 0
        assert stats.hit_rate == 0.0

    def test_capacity_one_keeps_only_the_newest(self):
        cache = EstimateCache(max_entries=1)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)  # evicts a
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert len(cache) == 1
        assert cache.stats().evictions == 1

    def test_capacity_one_refresh_does_not_evict(self):
        cache = EstimateCache(max_entries=1)
        cache.put("a", 1)
        cache.put("a", 2)  # refresh, not overflow
        assert cache.get("a") == 2
        assert cache.stats().evictions == 0


class TestEvictionOrder:
    def test_mixed_get_put_interleaving_orders_eviction(self):
        """Recency is what get/put *touch*, not insertion order."""
        cache = EstimateCache(max_entries=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == 1  # a is now most recent
        cache.put("b", 22)  # refresh b above c
        cache.put("d", 4)  # overflow: c is LRU -> evicted
        assert cache.get("c") is None
        assert cache.get("a") == 1
        assert cache.get("b") == 22
        assert cache.get("d") == 4
        cache.put("e", 5)  # overflow again: a was touched last... order is
        # now (a, b, d) by the gets above -> a is oldest touch: evicted
        assert cache.get("a") is None
        assert cache.get("e") == 5
        assert cache.stats().evictions == 2

    def test_failed_get_does_not_refresh(self):
        cache = EstimateCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("missing")  # miss: must not disturb LRU order
        cache.put("c", 3)
        assert cache.get("a") is None  # a was still the LRU entry
        assert cache.get("b") == 2
