"""Deadline degradation over real HTTP, on a one-shard server.

A query that blows its ``request_timeout_seconds`` budget must come back
as HTTP 200 with ``degraded: true`` and an H1 plan when
``degradation="heuristic"`` (the default), or as a 504 when
``degradation="error"`` — and either way the worker must stop planning
within one deadline check interval, so the next request finds a free
shard instead of one still grinding the abandoned query.
"""

import time

import pytest

from repro.asyncserver import AsyncPlanServer
from repro.optimizer import OptimizerConfig, optimize
from repro.server import ServerClient, ServerError
from repro.service import PlanCache
from repro.service.cache import STALE
from repro.service.config import ServingConfig
from repro.service.fingerprint import cache_key, cardinality_snapshot
from repro.service.revalidate import StaleRevalidator
from repro.sql import parse_query
from repro.sql.catalog import Catalog, TableStats

# Six relations: enough ccps that the DP loop runs past its first
# deadline check under a zero-ish budget.
BIG_SQL = (
    "SELECT count(*) AS cnt "
    "FROM lineitem, orders, customer, supplier, nation, region "
    "WHERE lineitem.l_orderkey = orders.o_orderkey "
    "AND orders.o_custkey = customer.c_custkey "
    "AND lineitem.l_suppkey = supplier.s_suppkey "
    "AND supplier.s_nationkey = nation.n_nationkey "
    "AND nation.n_regionkey = region.r_regionkey"
)
SMALL_SQL = "SELECT count(*) AS cnt FROM region GROUP BY r_name"
# The alias marks the query for chaos slow-planning (1s per deadline
# check) once REPRO_CHAOS is armed; without chaos it is just an alias.
SLOW_SQL = (
    "SELECT count(*) AS cnt FROM nation chaos_slow_1000, supplier "
    "WHERE chaos_slow_1000.n_nationkey = supplier.s_nationkey"
)


class TestHeuristicDegradation:
    @pytest.fixture(scope="class")
    def server(self):
        config = ServingConfig(port=0, shards=1, request_timeout_seconds=0.001)
        with AsyncPlanServer(config) as running:
            yield running

    def test_blown_budget_returns_degraded_200(self, server):
        with ServerClient(port=server.port) as client:
            body = client.optimize(BIG_SQL)
            assert body["_status"] == 200
            assert body["degraded"] is True
            assert body["strategy"] == "h1"
            assert body["cost"] > 0

    def test_degraded_plans_never_cached(self, server):
        with ServerClient(port=server.port) as client:
            client.optimize(BIG_SQL)
            body = client.optimize(BIG_SQL)
            assert body["degraded"] is True
            assert body["cache_hit"] is False

    def test_stats_count_degraded_plans(self, server):
        with ServerClient(port=server.port) as client:
            client.optimize(BIG_SQL)
            stats = client.stats()
            assert stats["plans"]["degraded"] >= 1
            assert stats["degradation"] == "heuristic"

    def test_batch_flags_degraded_items(self, server):
        with ServerClient(port=server.port) as client:
            report = client.batch([BIG_SQL, SMALL_SQL])
            flags = [item.get("degraded") for item in report["items"]]
            assert flags[0] is True
            assert report["failed"] == 0

    def test_explain_carries_degraded_flag(self, server):
        with ServerClient(port=server.port) as client:
            body = client.explain(BIG_SQL)
            assert body["degraded"] is True


class TestErrorModeDegradation:
    def test_blown_budget_is_a_504(self):
        config = ServingConfig(
            port=0, shards=1, request_timeout_seconds=0.001, degradation="error"
        )
        with AsyncPlanServer(config) as server:
            with ServerClient(port=server.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(BIG_SQL)
                assert exc_info.value.status == 504
                assert exc_info.value.code == "timeout"
                # A generous budget still plans normally.
                body = client.optimize(SMALL_SQL)
                assert body["degraded"] is False


class TestDegradedRevalidationGuard:
    def test_degraded_replan_never_overwrites_cached_plan(self):
        """Regression: the degraded-plan cache guard must extend to the
        background revalidation path.  A stale entry whose replan blows
        its deadline (H1 fallback, ``degraded: true``) must NOT have the
        degraded plan installed over the cached optimal one — the entry
        returns to stale and keeps serving the original plan."""
        catalog = Catalog.from_tpch()
        cache = PlanCache(capacity=8)
        sql = (
            "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue "
            "FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            "GROUP BY c.c_custkey"
        )
        # Plan and store under a healthy budget.
        healthy = OptimizerConfig()
        query = parse_query(sql, catalog)
        cached = optimize(query, config=healthy)
        entry_key = cache_key(
            query, healthy.strategy, healthy.factor,
            cost_model=healthy.cost_model_name,
        )
        cache.store(entry_key, query, cached, sql=sql,
                    exact_snapshot=cardinality_snapshot(query))

        # Drift far past the recost bound so revalidation must replan —
        # under a zero-ish deadline the replan degrades.
        old = catalog.lookup("lineitem")
        rows = old.cardinality * 16.0
        catalog.update_stats(
            "lineitem",
            TableStats(
                name=old.name, columns=old.columns, cardinality=rows,
                distinct={c: min(v * 16.0, rows) for c, v in old.distinct.items()},
                keys=old.keys,
            ),
        )
        cache.mark_stale("lineitem")
        strangled = OptimizerConfig(deadline_seconds=1e-9)
        counts = StaleRevalidator(cache, catalog, strangled).drain()

        assert counts["failed"] == 1
        assert counts["replanned"] == 0
        # Entry is back to stale (retryable), still serving the optimal plan.
        assert cache.entry_state(entry_key) == STALE
        served, state = cache.serve_entry(entry_key, query)
        assert state == STALE
        assert served.cost == cached.cost
        assert served.degraded is False


class TestWorkerReleasedAfterTimeout:
    def test_shard_worker_freed_within_one_check_interval(self, monkeypatch):
        """Regression: a 504 must not leave the worker grinding the
        abandoned query — the next request would queue behind a zombie
        computation.  With cooperative deadlines the worker itself stops
        at the next check point, so a follow-up query on the same single
        shard completes promptly."""
        monkeypatch.setenv("REPRO_CHAOS", "1")  # the shard process inherits it
        config = ServingConfig(
            port=0, shards=1, request_timeout_seconds=0.2, degradation="error"
        )
        with AsyncPlanServer(config) as server:
            with ServerClient(port=server.port, timeout=60.0) as client:
                client.optimize(SMALL_SQL)
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(SLOW_SQL)
                assert (exc_info.value.status, exc_info.value.code) == (504, "timeout")
                # The one shard must be free again: a clean query completes
                # far faster than the chaos grind would allow if it were
                # still stuck on SLOW_SQL.
                started = time.perf_counter()
                body = client.optimize(SMALL_SQL)
                elapsed = time.perf_counter() - started
                assert body["degraded"] is False
                assert elapsed < 5.0
