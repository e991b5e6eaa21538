"""The old free functions and the session path must be the same optimizer.

`parse_query` / `prepare` / `optimize` / `run_batch` stay supported as
shims; these tests pin them to the `PlannerSession` flow — identical
plans, identical costs — so neither surface can drift.
"""

import random

import pytest

from repro.api import OptimizerConfig, PlannerSession
from repro.optimizer import optimize, prepare
from repro.plans import render_plan
from repro.service import PlanCache, run_batch
from repro.service.fingerprint import query_fingerprint
from repro.sql import Catalog, parse_query
from repro.tpch import TPCH_QUERIES
from repro.workload import generate_query, generate_workload

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)

STRATEGIES = ("dphyp", "ea-all", "ea-prune", "h1", "h2")


def _uncached_session(**kwargs):
    return PlannerSession(config=OptimizerConfig(cache_capacity=None), **kwargs)


class TestOptimizeShim:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_identical_plans_on_tpch(self, strategy):
        query = TPCH_QUERIES["Q3"](1.0)
        legacy = optimize(query, strategy)
        handle = _uncached_session().statement(query).optimize(strategy=strategy)
        assert handle.cost == legacy.cost
        assert handle.explain() == render_plan(legacy.plan.node)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_plans_on_random_workload(self, seed):
        query = generate_query(5, random.Random(seed))
        legacy = optimize(query, "ea-prune")
        handle = _uncached_session().statement(query).optimize()
        assert handle.cost == legacy.cost
        assert handle.explain() == render_plan(legacy.plan.node)

    def test_config_object_equals_legacy_kwargs(self):
        query = generate_query(4, random.Random(9))
        legacy = optimize(query, "h2", factor=1.1)
        via_config = optimize(query, config=OptimizerConfig(strategy="h2", factor=1.1))
        assert via_config.cost == legacy.cost
        assert render_plan(via_config.plan.node) == render_plan(legacy.plan.node)


class TestParseShim:
    def test_parse_query_matches_session_sql(self):
        legacy = parse_query(SQL, Catalog.from_tpch())
        statement = PlannerSession.tpch().sql(SQL)
        assert query_fingerprint(legacy) == query_fingerprint(statement.query)

    def test_prepare_shim_still_feeds_optimize(self):
        query = parse_query(SQL, Catalog.from_tpch())
        prepared = prepare(query)
        assert optimize(query, prepared=prepared).cost == optimize(query).cost


class TestBatchShim:
    def test_run_batch_matches_session_run_batch(self):
        workload = generate_workload(6, 3, random.Random(21), unique=3)
        config = OptimizerConfig(workers=1, cache_capacity=32)
        legacy = run_batch(workload, PlanCache(capacity=32), config)
        session = PlannerSession(config=config)
        report = session.run_batch(workload)
        assert [item.cost for item in report.items] == [item.cost for item in legacy.items]
        assert [item.cache_hit for item in report.items] == [
            item.cache_hit for item in legacy.items
        ]


class TestPreparedMismatch:
    """Satellite fix: a wrong pre-pass must raise even on a cache hit."""

    def test_mismatch_raises_before_cache_serve(self):
        catalog = Catalog.from_tpch()
        query = parse_query(SQL, catalog)
        twin = parse_query(SQL, catalog)  # same problem, different object
        cache = PlanCache(capacity=8)
        optimize(query, cache=cache)  # warm: twin's key now hits
        with pytest.raises(ValueError, match="different query"):
            optimize(twin, prepared=prepare(query), cache=cache)

    def test_mismatch_raises_without_cache_too(self):
        catalog = Catalog.from_tpch()
        query = parse_query(SQL, catalog)
        twin = parse_query(SQL, catalog)
        with pytest.raises(ValueError, match="different query"):
            optimize(twin, prepared=prepare(query))
