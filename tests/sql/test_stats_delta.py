"""Catalog.update_stats: typed drift deltas, and what the serving path
does with one."""

import pytest

from repro.service import PlanCache
from repro.service.cache import FRESH, STALE
from repro.service.fingerprint import PlanCacheKey
from repro.sql import parse_query
from repro.sql.catalog import Catalog, StatsDelta, TableStats


def stats(name: str, rows: float, distinct=None) -> TableStats:
    return TableStats(
        name=name,
        columns=("a", "b"),
        cardinality=rows,
        distinct=distinct if distinct is not None else {"a": rows, "b": rows / 2},
    )


def make_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(stats("orders", 100.0))
    catalog.register(stats("customer", 50.0))
    return catalog


class TestUpdateStats:
    def test_emits_old_and_new(self):
        catalog = make_catalog()
        delta = catalog.update_stats("orders", stats("orders", 400.0))
        assert isinstance(delta, StatsDelta)
        assert delta.relation == "orders"
        assert delta.old.cardinality == 100.0
        assert delta.new.cardinality == 400.0
        assert delta.cardinality_ratio == 4.0
        # The catalog now resolves to the new statistics.
        assert catalog.lookup("orders").cardinality == 400.0

    def test_payload_is_json_ready(self):
        catalog = make_catalog()
        delta = catalog.update_stats(
            "orders", stats("orders", 400.0, distinct={"a": 400.0, "b": 50.0})
        )
        payload = delta.payload()
        assert payload["relation"] == "orders"
        assert payload["old_cardinality"] == 100.0
        assert payload["new_cardinality"] == 400.0
        assert payload["cardinality_ratio"] == 4.0
        assert payload["distinct_changed"] == ["a"]  # b kept 50.0

    def test_table_lookup_is_case_insensitive(self):
        catalog = make_catalog()
        delta = catalog.update_stats("ORDERS", stats("Orders", 200.0))
        assert delta.cardinality_ratio == 2.0

    def test_unknown_table_raises_key_error(self):
        with pytest.raises(KeyError):
            make_catalog().update_stats("lineitem", stats("lineitem", 1.0))

    def test_mismatched_name_raises_value_error(self):
        with pytest.raises(ValueError):
            make_catalog().update_stats("orders", stats("customer", 1.0))

    def test_zero_old_cardinality_ratio_guard(self):
        catalog = Catalog()
        catalog.register(stats("empty", 0.0))
        delta = catalog.update_stats("empty", stats("empty", 10.0))
        assert delta.cardinality_ratio == float("inf")


class TestTheServingPathsMarkStale:
    """What ``ServingCore.stats_update`` does with the delta: the entries
    that scan the drifted table go stale and stay servable."""

    def key(self, tag: str) -> PlanCacheKey:
        return PlanCacheKey(fingerprint=tag, snapshot="snap", strategy="ea-prune")

    def store(self, cache, catalog, tag: str, table: str) -> None:
        """Store a stand-in plan for a query scanning *table*."""
        query = parse_query(f"SELECT count(*) AS cnt FROM {table} t", catalog)
        cache.store(self.key(tag), query, object())

    def test_the_delta_marks_stale_instead_of_dropping(self):
        catalog = make_catalog()
        cache = PlanCache(capacity=8)
        self.store(cache, catalog, "q1", "orders")
        self.store(cache, catalog, "q2", "customer")

        delta = catalog.update_stats("orders", stats("orders", 400.0))
        assert cache.mark_stale(delta.relation) == 1

        # The affected entry is stale but still present and servable;
        # the untouched one stays fresh.
        assert cache.entry_state(self.key("q1")) == STALE
        assert cache.entry_state(self.key("q2")) == FRESH
        assert len(cache) == 2
        assert cache.stale_count() == 1
