"""Golden-value and engine-equivalence tests for the hot-path refactor.

The product's DP loop (iterative enumerator, hypergraph indexes, per-edge
join specs, Pareto buckets) must give the answers of the seed's code
path, which survives as the oracle ``optimize_reference``:

* identical best-plan cost, plan and ccp count on the TPC-H workloads,
  the fixed topologies and random generated queries (simple *and*
  complex-edge shapes) — with identical DP-table sizes where the run is
  unbounded (and identical plans-built counts unless the incumbent cut
  fired), and with every bucket the reference bucket restricted to
  ``cost <= ceiling`` where it is bounded (EA-Prune; ``engine_oracle.py``
  has the rule),
* golden literal values for the TPC-H queries, pinned so a regression in
  *either* loop (not just a divergence between them) is caught,
* the spelling ``benchmarks/e2e/golden.py`` regenerates its answer key
  with — ``optimize(..., engine="reference")`` — is the oracle, exactly,
  for as long as that bridge lives.
"""

import random

import pytest

from engine_oracle import assert_engines_agree
from repro.optimizer import OptimizerConfig, OptimizerHooks, optimize, prepare
from repro.optimizer.deadline import Deadline
from repro.optimizer.reference import optimize_reference
from repro.optimizer.strategies import EaPruneStrategy
from repro.service import PlanCache
from repro.tpch.queries import build_ex, build_q3, build_q5, build_q10
from repro.workload import WorkloadConfig, generate_query, topology_query

STRATEGIES = ("dphyp", "ea-prune", "h1", "h2")

TPCH_BUILDERS = {
    "ex": build_ex,
    "q3": build_q3,
    "q5": build_q5,
    "q10": build_q10,
}

#: (query, strategy) → (best cost, ccp count, plans built), measured on the
#: seed implementation.  These are *values*, not tolerances: the optimizer
#: is deterministic and the hot path must not change its output at all.
#: Only the last column has ever been re-pinned.  First EA-Prune's: the
#: product runs it under H1's cost as a ceiling and no longer counts
#: what lies above it (``REFERENCE_EA_PRUNE_BUILT`` keeps the seed's
#: counts, which the oracle still reports).  Then every row the incumbent
#: cut reaches: a candidate whose inputs already cost the incumbent's
#: threshold is never priced (single-plan buckets under DPhyp, H1 and H2,
#: the full relation set under every strategy), so it is not counted.
#: Before the cut: Q3 31 / 19 / 19 (EA-Prune, H1, H2), Q5 74 / 97 / 278 /
#: 278 (DPhyp, EA-Prune, H1, H2), Q10 14 / 40 / 44 / 44; Ex did not move.
#: Then EA-Prune's once more, when its FD clause began comparing states
#: projected onto what a completion can read (Q5 55 → 45, Q10 39 → 40:
#: more plans tie, and which of two tied plans survives moves the counts
#: downstream; no cost or ccp count moved).
TPCH_GOLDEN = {
    ("ex", "dphyp"): (60218288.47469728, 10, 7),
    ("ex", "ea-prune"): (149.6511565806907, 10, 22),
    ("ex", "h1"): (166.38510881600084, 10, 16),
    ("ex", "h2"): (166.38510881600084, 10, 16),
    ("q3", "dphyp"): (657073.7495322055, 4, 7),
    ("q3", "ea-prune"): (373657.61567229626, 4, 15),
    ("q3", "h1"): (373657.61567229626, 4, 12),
    ("q3", "h2"): (373657.61567229626, 4, 12),
    ("q5", "dphyp"): (1101803.7812967582, 68, 48),
    ("q5", "ea-prune"): (238439.60164483933, 68, 45),
    ("q5", "h1"): (592921.7549799087, 68, 109),
    ("q5", "h2"): (592921.7549799087, 68, 114),
    ("q10", "dphyp"): (205534.67790111882, 10, 13),
    ("q10", "ea-prune"): (131728.57461675355, 10, 40),
    ("q10", "h1"): (153131.03391426985, 10, 28),
    ("q10", "h2"): (153131.03391426985, 10, 29),
}

#: EA-Prune's candidate count without a ceiling, as the oracle counts it —
#: the seed's figures until the FD clause was projected onto what a
#: completion can read (48 / 31 / 4018 / 204 before: Ex / Q3 / Q5 / Q10).
REFERENCE_EA_PRUNE_BUILT = {"ex": 28, "q3": 31, "q5": 1410, "q10": 180}


def _fingerprint(result):
    return (result.cost, result.ccp_count, result.plans_built, result.table_sizes)


class TestTpchGolden:
    @pytest.mark.parametrize("query_name,strategy", sorted(TPCH_GOLDEN))
    def test_indexed_engine_matches_golden_values(self, query_name, strategy):
        result = optimize(TPCH_BUILDERS[query_name](), config=OptimizerConfig(strategy=strategy))
        cost, ccp_count, plans_built = TPCH_GOLDEN[(query_name, strategy)]
        assert result.cost == cost
        assert result.ccp_count == ccp_count
        assert result.plans_built == plans_built

    @pytest.mark.parametrize("query_name", sorted(TPCH_BUILDERS))
    def test_reference_engine_keeps_the_seed_counts(self, query_name):
        result = optimize_reference(TPCH_BUILDERS[query_name]())
        cost, ccp_count, _bounded = TPCH_GOLDEN[(query_name, "ea-prune")]
        assert (result.cost, result.ccp_count, result.plans_built) == (
            cost, ccp_count, REFERENCE_EA_PRUNE_BUILT[query_name],
        )

    @pytest.mark.parametrize("query_name", sorted(TPCH_BUILDERS))
    def test_engines_identical_on_tpch(self, query_name):
        query = TPCH_BUILDERS[query_name]()
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(strategy,))


class TestEngineEquivalenceOnRandomWorkloads:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_queries_all_strategies(self, seed):
        rng = random.Random(seed)
        query = generate_query(rng.randint(2, 6), random.Random(seed * 7919))
        for strategy in STRATEGIES + ("ea-all",):
            assert_engines_agree(query, strategy, context=(seed, strategy))

    @pytest.mark.parametrize("seed", range(6))
    def test_inner_only_cyclic_friendly_workload(self, seed):
        config = WorkloadConfig(inner_only=True)
        query = generate_query(5, random.Random(seed + 31), config)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_pruning_criteria_variants(self, criteria):
        for seed in range(4):
            query = generate_query(5, random.Random(seed + 100))
            assert_engines_agree(query, EaPruneStrategy(criteria), context=(seed, criteria))


class TestEngineEquivalenceOnTopologies:
    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_fixed_topologies(self, topology, n):
        query = topology_query(topology, n)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(topology, n, strategy))


class TestHotpathStats:
    def test_stats_populated_on_indexed_runs(self):
        result = optimize(topology_query("chain", 5))
        stats = result.stats
        assert stats["resolver.resolve_calls"] + stats.get("strategy.pairs_cut", 0) + stats.get(
            "strategy.pairs_without_plans", 0
        ) == result.ccp_count
        assert result.stats["graph.neighborhood_calls"] > 0
        assert result.stats["strategy.prune_inserts"] > 0

    def test_stats_survive_cache_hit_copies(self):
        result = optimize(topology_query("chain", 4))
        hit = result.as_cache_hit()
        assert hit.stats == result.stats
        assert hit.cache_hit and hit.elapsed_seconds == 0.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            optimize(topology_query("chain", 4), engine="turbo")


#: What ``benchmarks/e2e/golden.py`` plans its answer key over.
GOLDEN_BRIDGE_QUERIES = {"q3": build_q3, "chain-5": lambda: topology_query("chain", 5)}


class TestGoldenSpellingBridge:
    """``optimize(q, config=..., engine="reference")`` is how the frozen
    ``benchmarks/e2e/golden.py`` regenerates its answer key: it must be
    the oracle to the last count, and take nothing the oracle would
    silently drop."""

    @pytest.mark.parametrize("strategy", ("dphyp", "ea-all", "ea-prune", "h1", "h2"))
    @pytest.mark.parametrize("query_name", sorted(GOLDEN_BRIDGE_QUERIES))
    def test_golden_spelling_is_the_oracle(self, query_name, strategy):
        config = OptimizerConfig(strategy=strategy, cache_capacity=None)
        build = GOLDEN_BRIDGE_QUERIES[query_name]
        bridged = optimize(build(), config=config, engine="reference")
        oracle = optimize_reference(build(), config=config)
        assert (bridged.cost, bridged.ccp_count, bridged.plans_built) == (
            oracle.cost, oracle.ccp_count, oracle.plans_built,
        )

    @pytest.mark.parametrize("engine", ["turbo", "vectorized", "Reference", ""])
    def test_golden_spelling_knows_no_other_engine(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            optimize(build_q3(), config=OptimizerConfig(cache_capacity=None), engine=engine)

    @pytest.mark.parametrize(
        "keyword", ["cache", "deadline", "known_cost", "hooks", "prepared"]
    )
    def test_golden_spelling_takes_a_config_only(self, keyword):
        query = build_q3()
        value = {
            "cache": PlanCache(capacity=4),
            "deadline": Deadline(60.0),
            "known_cost": 1.0,
            "hooks": OptimizerHooks(),
            "prepared": prepare(query),
        }[keyword]
        with pytest.raises(ValueError, match=keyword):
            optimize(
                query, config=OptimizerConfig(cache_capacity=None), engine="reference",
                **{keyword: value},
            )


class TestPreparedQueryResolver:
    def test_resolver_is_cached_per_prepared_query(self):
        from repro.optimizer.driver import prepare

        prepared = prepare(topology_query("chain", 5))
        assert prepared.resolver() is prepared.resolver()

    def test_prepared_reuse_matches_fresh_runs(self):
        from repro.optimizer.driver import prepare

        query = topology_query("cycle", 6)
        prepared = prepare(query)
        for strategy in STRATEGIES:
            reused = optimize(query, config=OptimizerConfig(strategy=strategy), prepared=prepared)
            fresh = optimize(query, config=OptimizerConfig(strategy=strategy))
            assert _fingerprint(reused) == _fingerprint(fresh)
