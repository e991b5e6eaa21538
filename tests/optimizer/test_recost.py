"""Recost-by-replay: bit-for-bit reproduction and the stale-serve bound.

The load-bearing invariant of the plan lifecycle: replaying a cached
plan's operator tree through a fresh :class:`PlanBuilder` under an
*unchanged* statistics snapshot must reproduce the cached cost exactly
(``==`` on floats — same arithmetic in the same order), for plans
produced by the DP, the oracle and every strategy.  Anything less and a statistics
refresh with ``cardinality_factor=1.0`` would spuriously re-plan the
whole cache.
"""

import gc

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.reference import optimize_reference
from repro.optimizer.recost import (
    RecostError,
    evaluate_stale,
    recost,
    recosted_result,
)
from repro.sql import parse_query
from repro.sql.catalog import Catalog, TableStats


SQLS = [
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name",
    "SELECT count(*) AS cnt FROM supplier s, nation n, customer c "
    "WHERE s.s_nationkey = n.n_nationkey AND n.n_nationkey = c.c_nationkey",
    "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue "
    "FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "GROUP BY c.c_custkey",
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey "
    "JOIN supplier s ON n.n_nationkey = s.s_nationkey GROUP BY r.r_name",
]
ENGINES = {"indexed": optimize, "reference": optimize_reference}
STRATEGIES = ["dphyp", "ea-all", "ea-prune", "h1", "h2"]


def fresh_query(sql: str, catalog=None):
    return parse_query(sql, catalog if catalog is not None else Catalog.from_tpch())


class TestBitForBitReplay:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("sql", SQLS)
    def test_replay_reproduces_cost_across_engines(self, engine, sql):
        query = fresh_query(sql)
        config = OptimizerConfig()
        result = ENGINES[engine](query, config=config)
        replayed = recost(
            query, result.plan.node, cost_model=config.resolve_cost_model()
        )
        assert replayed.cost == result.cost  # bit-for-bit, not approx
        assert replayed.cardinality == result.plan.cardinality
        assert type(replayed.node) is type(result.plan.node)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("sql", SQLS)
    def test_replay_reproduces_cost_across_strategies(self, strategy, sql):
        query = fresh_query(sql)
        config = OptimizerConfig(strategy=strategy)
        result = optimize(query, config=config)
        replayed = recost(
            query, result.plan.node, cost_model=config.resolve_cost_model()
        )
        assert replayed.cost == result.cost

    def test_a_replay_leaves_nothing_for_the_collector(self):
        """The replay frees its builder and everything the builder made by
        reference count: no closure that calls itself walks the plan."""
        query = fresh_query(SQLS[2])
        config = OptimizerConfig()
        node = optimize(query, config=config).plan.node
        cost_model = config.resolve_cost_model()
        recost(query, node, cost_model=cost_model)  # first-use memos are not garbage
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            replayed = recost(query, node, cost_model=cost_model)
            found = gc.collect()
            gc.garbage.clear()
        finally:
            gc.set_debug(flags)
            gc.enable()
        assert type(replayed.node) is type(node)
        assert found == 0

    def test_foreign_plan_is_a_replay_error(self):
        donor = optimize(fresh_query(SQLS[0]))
        other = fresh_query(SQLS[2])
        with pytest.raises(RecostError):
            recost(other, donor.plan.node)


class TestReplayUnderDrift:
    """A stale entry's query is rebuilt the way the revalidator does it —
    its SQL re-parsed under the drifted catalog — and the cached plan
    replayed on it prices the drift."""

    def drifted_catalog(self, factor: float) -> Catalog:
        catalog = Catalog.from_tpch()
        old = catalog.lookup("supplier")
        catalog.update_stats(
            "supplier",
            TableStats(
                name=old.name,
                columns=old.columns,
                cardinality=old.cardinality * factor,
                distinct={
                    column: min(value * factor, old.cardinality * factor)
                    for column, value in old.distinct.items()
                },
                keys=old.keys,
            ),
        )
        return catalog

    def test_refresh_changes_the_replayed_cost(self):
        result = optimize(fresh_query(SQLS[0]))
        reparsed = fresh_query(SQLS[0], self.drifted_catalog(4.0))
        replayed = recost(reparsed, result.plan.node)
        assert replayed.cost > result.cost

    def test_drifted_selectivity_changes_replayed_cost(self):
        result = optimize(fresh_query(SQLS[1]))
        reparsed = fresh_query(SQLS[1], self.drifted_catalog(4.0))
        assert any(
            old.selectivity != new.selectivity
            for old, new in zip(fresh_query(SQLS[1]).edges, reparsed.edges)
        ), "drift must move at least one selectivity"
        assert recost(reparsed, result.plan.node).cost != result.cost


class TestEvaluateStale:
    def test_unchanged_stats_serve_within_bound(self):
        query = fresh_query(SQLS[0])
        cached = optimize(query)
        decision = evaluate_stale(query, cached, config=OptimizerConfig())
        assert decision.serve is True
        assert decision.reason == "within_bound"
        assert decision.recost_cost == cached.cost  # the bit-for-bit replay
        assert decision.plan is not None

    def test_heavy_drift_forces_replan(self):
        # A 16x lineitem blow-up makes the cached join order six times
        # worse than the cheap H1 replan — past the default 2.0 bound,
        # so the entry must be queued for full re-optimization.
        cached = optimize(fresh_query(SQLS[2]))
        catalog = Catalog.from_tpch()
        old = catalog.lookup("lineitem")
        catalog.update_stats(
            "lineitem",
            TableStats(
                name=old.name,
                columns=old.columns,
                cardinality=old.cardinality * 16.0,
                distinct={
                    column: min(value * 16.0, old.cardinality * 16.0)
                    for column, value in old.distinct.items()
                },
                keys=old.keys,
            ),
        )
        drifted = fresh_query(SQLS[2], catalog)  # the re-parse path
        decision = evaluate_stale(drifted, cached, config=OptimizerConfig())
        assert decision.serve is False
        assert decision.reason == "over_bound"
        assert decision.recost_cost > decision.bound_factor * decision.bound_cost
        assert decision.bound_cost > 0

    def test_unreplayable_plan_reports_replay_failed(self):
        donor = optimize(fresh_query(SQLS[0]))
        other = fresh_query(SQLS[2])
        decision = evaluate_stale(other, donor, config=OptimizerConfig())
        assert decision.serve is False
        assert decision.reason == "replay_failed"
        assert decision.recost_cost is None


class TestRecostedResult:
    def test_marks_provenance(self):
        query = fresh_query(SQLS[0])
        cached = optimize(query)
        decision = evaluate_stale(query, cached, config=OptimizerConfig())
        refreshed = recosted_result(cached, decision.plan, decision.elapsed_seconds)
        assert refreshed.cost == cached.cost
        assert refreshed.cache_hit is False
        assert refreshed.degraded is False
        assert refreshed.stats["recosted"] == 1
        # The original result is untouched (replace, not mutation).
        assert "recosted" not in cached.stats
