"""Cache hits across renamed queries must serve plans in the *new* names."""

import pytest

from repro.optimizer import OptimizerConfig, prepare
from repro.plans import render_plan
from repro.service import PlanCache, cache_key, optimize_many
from repro.service.batch import optimize_cached
from repro.sql import Catalog, parse_query

SQL_NS = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SQL_XY = (
    "SELECT x.n_name, count(*) AS cnt FROM nation x "
    "JOIN supplier y ON x.n_nationkey = y.s_nationkey GROUP BY x.n_name"
)


@pytest.fixture()
def catalog():
    return Catalog.from_tpch()


def queries(catalog):
    return parse_query(SQL_NS, catalog), parse_query(SQL_XY, catalog)


def cached(query, cache):
    return optimize_cached(prepare(query), cache, OptimizerConfig())


class TestRenamedCacheHits:
    def test_aliases_share_the_cache_key(self, catalog):
        q_ns, q_xy = queries(catalog)
        assert cache_key(q_ns) == cache_key(q_xy)

    def test_hit_is_rebound_to_the_requesting_alias(self, catalog):
        q_ns, q_xy = queries(catalog)
        cache = PlanCache(capacity=8)
        fresh = cached(q_ns, cache=cache)
        served = cached(q_xy, cache=cache)

        assert served.cache_hit
        assert served.cost == fresh.cost
        rendered = render_plan(served.plan.node)
        assert "x.n_name" in rendered and "y.s_nationkey" in rendered
        assert "ns." not in rendered and "s." not in rendered

    def test_rebound_planinfo_properties_use_new_names(self, catalog):
        q_ns, q_xy = queries(catalog)
        cache = PlanCache(capacity=8)
        cached(q_ns, cache=cache)
        served = cached(q_xy, cache=cache)

        def ok(name):
            # Base attributes must carry the new aliases; synthetic columns
            # (aggregate outputs like "cnt") have no relation prefix.
            return name.startswith(("x.", "y.")) or "." not in name

        assert all(ok(a) for a in served.plan.raw_attrs)
        assert all(ok(a) for key in served.plan.keys for a in key)
        assert all(ok(a) for a in served.plan.distinct)

    def test_same_alias_hit_served_verbatim(self, catalog):
        q_ns, _ = queries(catalog)
        cache = PlanCache(capacity=8)
        fresh = cached(q_ns, cache=cache)
        served = cached(parse_query(SQL_NS, catalog), cache=cache)
        assert served.cache_hit
        assert served.plan is fresh.plan  # fast path: no rebuild

    def test_rebound_plan_executes_like_canonical(self, catalog):
        from repro.exec import execute
        from repro.query.canonical import canonical_plan
        from repro.tpch.datagen import micro_table

        q_ns, q_xy = queries(catalog)
        cache = PlanCache(capacity=8)
        cached(q_ns, cache=cache)
        served = cached(q_xy, cache=cache)
        assert served.cache_hit

        db = {"x": micro_table("nation", alias="x"), "y": micro_table("supplier", alias="y")}
        def rows(rel):
            return sorted(
                tuple(sorted((a, row[a]) for a in ("x.n_name", "cnt"))) for row in rel.rows
            )

        assert rows(execute(served.plan.node, db)) == rows(execute(canonical_plan(q_xy), db))

    def test_batch_rebinds_within_batch_duplicates(self, catalog):
        q_ns, q_xy = queries(catalog)
        items = list(optimize_many([q_ns, q_xy], config=OptimizerConfig(workers=1)))
        assert not items[0].cache_hit and items[1].cache_hit
        rendered = render_plan(items[1].result.plan.node)
        assert "x.n_name" in rendered and "ns." not in rendered


class TestBaseTableInvalidation:
    def test_mark_stale_matches_base_table_not_alias(self, catalog):
        q_ns, _ = queries(catalog)
        cache = PlanCache(capacity=8)
        cached(q_ns, cache=cache)
        assert cache.relations_of(cache.keys()[0]) == frozenset({"nation", "supplier"})
        assert cache.mark_stale("ns") == 0
        assert cache.mark_stale("nation") == 1
