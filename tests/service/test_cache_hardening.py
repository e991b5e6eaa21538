"""Cache hardening: stats snapshots and honest clear() accounting."""

from cache_entries import Plan, key, query_over, served

from repro.service import PlanCache

ANY = query_over()


class TestClearCountsInvalidations:
    def test_clear_matches_invalidate_none(self):
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.store(key(f"q{i}"), ANY, Plan(i))
        removed = cache.clear()
        assert removed == 3
        assert len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_describe_stays_honest_after_clear(self):
        cache = PlanCache(capacity=8)
        cache.store(key("a"), ANY, Plan("a"))
        cache.store(key("b"), ANY, Plan("b"))
        cache.clear()
        metrics = cache.describe()
        assert metrics["invalidations"] == 2.0
        assert metrics["size"] == 0.0

    def test_clear_of_empty_cache_counts_nothing(self):
        cache = PlanCache(capacity=8)
        assert cache.clear() == 0
        assert cache.stats.invalidations == 0


class TestStatsSnapshot:
    def test_snapshot_copies_all_counters(self):
        cache = PlanCache(capacity=1)
        served(cache, key("miss"))
        cache.store(key("a"), ANY, Plan("a"))
        cache.store(key("b"), ANY, Plan("b"))  # evicts a
        served(cache, key("b"))
        cache.clear()
        snap = cache.stats.snapshot()
        assert (snap.hits, snap.misses, snap.puts, snap.evictions, snap.invalidations) == (
            1, 1, 2, 1, 1
        )
        # it is a copy: later activity does not mutate it
        served(cache, key("another-miss"))
        assert snap.misses == 1
