"""PlanCache behaviour: hits, LRU eviction, dropping entries, and the
costs evicted plans leave behind."""

import pytest
from cache_entries import Plan, key, query_over, served

from repro.service import PlanCache
from repro.service import cache as cache_module
from repro.service.core import PARSE_MEMO_CAPACITY

ORDERS = query_over("orders")
ORDERS_LINEITEM = query_over("orders", "lineitem")
CUSTOMER = query_over("customer")
ANY = query_over()


class TestHitsAndMisses:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        k = key("q1")
        assert served(cache, k, "orders") is None
        cache.store(k, ORDERS, Plan("p1"))
        assert served(cache, k, "orders").tag == "p1"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_snapshot_is_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q1", "old-stats"), ANY, Plan("stale"))
        assert served(cache, key("q1", "new-stats")) is None

    def test_stats_idle(self):
        assert PlanCache().stats.hit_rate == 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = PlanCache(capacity=2)
        cache.store(key("a"), ANY, Plan("a"))
        cache.store(key("b"), ANY, Plan("b"))
        cache.store(key("c"), ANY, Plan("c"))
        assert served(cache, key("a")) is None
        assert served(cache, key("b")) is not None
        assert served(cache, key("c")) is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_a_hit_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.store(key("a"), ANY, Plan("a"))
        cache.store(key("b"), ANY, Plan("b"))
        served(cache, key("a"))  # a becomes most recent
        cache.store(key("c"), ANY, Plan("c"))
        assert served(cache, key("a")) is not None
        assert served(cache, key("b")) is None

    def test_store_overwrites_in_place(self):
        cache = PlanCache(capacity=2)
        cache.store(key("a"), ANY, Plan("v1"))
        cache.store(key("a"), ANY, Plan("v2"))
        assert len(cache) == 1
        assert served(cache, key("a")).tag == "v2"
        assert cache.stats.evictions == 0


class TestKnownCosts:
    """``(key, exact snapshot) → cost`` for plans the cache no longer holds."""

    def test_an_evicted_entry_leaves_its_cost(self):
        cache = PlanCache(capacity=1)
        cache.store(key("a"), ANY, Plan("costed", 10.0), exact_snapshot="s1")
        assert cache.known_cost(key("a"), "s1") is None  # still held: nothing to remember
        cache.store(key("b"), ANY, Plan("costed", 20.0), exact_snapshot="s1")
        assert served(cache, key("a")) is None
        assert cache.known_cost(key("a"), "s1") == 10.0
        # The pair names the problem: another snapshot, another key, no answer.
        assert cache.known_cost(key("a"), "s2") is None
        assert cache.known_cost(key("a", "other"), "s1") is None
        assert cache.known_cost(key("b"), "s1") is None
        assert cache.describe()["known_costs"] == 1.0

    def test_an_entry_stored_without_its_exact_snapshot_leaves_nothing(self):
        cache = PlanCache(capacity=1)
        cache.store(key("a"), ANY, Plan("costed", 10.0))
        cache.store(key("b"), ANY, Plan("no cost at all"), exact_snapshot="s1")
        cache.store(key("c"), ANY, Plan("costed", 30.0), exact_snapshot="s1")
        assert cache.stats.evictions == 2 and cache.describe()["known_costs"] == 0.0

    def test_the_capacity_is_the_parse_memos(self):
        assert cache_module.KNOWN_COSTS_CAPACITY == PARSE_MEMO_CAPACITY == 4096

    def test_the_map_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(cache_module, "KNOWN_COSTS_CAPACITY", 3)
        cache = PlanCache(capacity=1)
        for index in range(5):  # evicts q0..q3 in turn
            plan = Plan("costed", float(index))
            cache.store(key(f"q{index}"), ANY, plan, exact_snapshot="s")
            if index == 3:
                assert cache.known_cost(key("q0"), "s") == 0.0  # asked for: most recent
        assert cache.describe()["known_costs"] == 3.0
        assert cache.known_cost(key("q1"), "s") is None  # the least recently used went
        assert [cache.known_cost(key(f"q{i}"), "s") for i in (0, 2, 3)] == [0.0, 2.0, 3.0]

    def test_drop_and_clear_leave_nothing(self):
        cache = PlanCache(capacity=4)
        cache.store(key("a"), ORDERS, Plan("costed", 1.0), exact_snapshot="s")
        cache.store(key("b"), ORDERS, Plan("costed", 2.0), exact_snapshot="s")
        assert cache.drop(key("a")) is True
        assert cache.clear() == 1
        assert cache.known_cost(key("a"), "s") is None
        assert cache.known_cost(key("b"), "s") is None

    def test_clear_empties_the_map(self):
        cache = PlanCache(capacity=1)
        cache.store(key("a"), ORDERS, Plan("costed", 1.0), exact_snapshot="s")
        cache.store(key("b"), ORDERS, Plan("costed", 2.0), exact_snapshot="s")
        assert cache.known_cost(key("a"), "s") == 1.0  # evicted for room
        assert cache.clear() == 1
        assert cache.describe()["known_costs"] == 0.0

    def test_it_survives_mark_stale(self):
        cache = PlanCache(capacity=1)
        cache.store(key("a"), ORDERS, Plan("costed", 1.0), exact_snapshot="s")
        cache.store(key("b"), ORDERS, Plan("costed", 2.0), exact_snapshot="s")
        assert cache.mark_stale("orders") == 1 and cache.mark_stale() == 0
        assert cache.known_cost(key("a"), "s") == 1.0
        # A stale entry evicted still leaves what it cost under *its* statistics.
        cache.store(key("c"), ANY, Plan("costed", 3.0), exact_snapshot="s2")
        assert cache.known_cost(key("b"), "s") == 2.0

    @pytest.mark.parametrize("new_key", [None, key("a", "next-band")], ids=["in-place", "moved"])
    def test_refresh_leaves_the_replaced_results_cost_under_the_old_pair(self, new_key):
        cache = PlanCache(capacity=4)
        cache.store(key("a"), ORDERS, Plan("costed", 1.0), exact_snapshot="s-old")
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        replan = Plan("costed", 5.0)
        assert cache.refresh(claim.key, replan, exact_snapshot="s-new", new_key=new_key)
        assert cache.known_cost(key("a"), "s-old") == 1.0
        home = new_key or key("a")
        assert served(cache, home, "orders").cost == 5.0 and cache.known_cost(home, "s-new") is None
        # A degraded replan replaces nothing and leaves nothing.
        cache.mark_stale()
        (claim,) = cache.claim_stale()
        degraded = Plan("costed", 9.0)
        degraded.degraded = True
        assert cache.refresh(claim.key, degraded, exact_snapshot="s-3") is False
        assert cache.known_cost(home, "s-new") is None


class TestInvalidation:
    def make_cache(self):
        cache = PlanCache(capacity=8)
        cache.store(key("q1"), ORDERS_LINEITEM, Plan("p1"))
        cache.store(key("q2"), CUSTOMER, Plan("p2"))
        cache.store(key("q3"), ORDERS, Plan("p3"))
        return cache

    def test_invalidate_everything(self):
        cache = self.make_cache()
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_mark_stale_by_relation(self):
        cache = self.make_cache()
        assert cache.mark_stale("ORDERS") == 2  # q1 and q3, case-insensitive
        assert cache.entry_state(key("q2")) == "fresh" and len(cache) == 3
        assert cache.mark_stale("nation") == 0

    def test_relations_recorded(self):
        cache = self.make_cache()
        assert cache.relations_of(key("q1")) == frozenset({"orders", "lineitem"})
        assert cache.relations_of(key("missing")) == frozenset()


class TestIntrospection:
    def test_describe_metrics(self):
        cache = PlanCache(capacity=4)
        cache.store(key("a"), ANY, Plan("a"))
        served(cache, key("a"))
        served(cache, key("b"))
        metrics = cache.describe()
        assert metrics["size"] == 1.0
        assert metrics["capacity"] == 4.0
        assert metrics["hits"] == 1.0
        assert metrics["misses"] == 1.0
        assert metrics["hit_rate"] == 0.5
        assert metrics["known_costs"] == 0.0

    def test_clear(self):
        cache = PlanCache(capacity=4)
        cache.store(key("a"), ANY, Plan("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.keys() == ()
