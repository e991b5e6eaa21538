"""Cache hardening: locked stats snapshots and honest clear() accounting."""

import threading

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


class TestLockedStatsSnapshot:
    def test_snapshot_copies_all_counters(self):
        cache = PlanCache(capacity=1)
        served(cache, key("miss"))
        cache.store(key("a"), ANY, Plan("a"))
        cache.store(key("b"), ANY, Plan("b"))  # evicts a
        served(cache, key("b"))
        cache.clear()
        snap = cache.stats_snapshot()
        assert (snap.hits, snap.misses, snap.puts, snap.evictions, snap.invalidations) == (
            1, 1, 2, 1, 1
        )
        # it is a copy: later activity does not mutate it
        served(cache, key("another-miss"))
        assert snap.misses == 1

    def test_concurrent_hammer_keeps_snapshots_consistent(self):
        """Thread-hammer regression for torn stats reads.

        Every mutation holds the cache lock and keeps the invariant
        ``puts - evictions - invalidations == len(entries)`` (bounded by
        capacity).  A snapshot taken under the same lock must therefore
        satisfy it too; the old unlocked ``stats.snapshot()`` could
        interleave with a put+eviction pair and report an impossible
        state.
        """
        cache = PlanCache(capacity=4)
        stop = threading.Event()
        violations = []

        def mutate(worker: int) -> None:
            i = 0
            while not stop.is_set():
                cache.store(key(f"w{worker}-{i}"), ANY, Plan(i))
                served(cache, key(f"w{worker}-{i}"))
                served(cache, key(f"w{worker}-missing-{i}"))
                if i % 50 == 0:
                    cache.clear()
                i += 1

        def observe() -> None:
            while not stop.is_set():
                snap = cache.stats_snapshot()
                live = snap.puts - snap.evictions - snap.invalidations
                if not (0 <= live <= cache.capacity):
                    violations.append(
                        f"puts={snap.puts} evictions={snap.evictions} "
                        f"invalidations={snap.invalidations} -> live={live}"
                    )
                if snap.lookups != snap.hits + snap.misses:
                    violations.append("lookups != hits + misses")

        mutators = [threading.Thread(target=mutate, args=(w,)) for w in range(4)]
        observers = [threading.Thread(target=observe) for _ in range(2)]
        for thread in mutators + observers:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in mutators + observers:
            thread.join(timeout=10.0)
        assert not violations, violations[:5]
        # final totals add up once quiescent
        final = cache.stats_snapshot()
        assert final.puts - final.evictions - final.invalidations == len(cache)
