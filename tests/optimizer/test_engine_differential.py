"""Differential harness: indexed == oracle.

The product's loop (``optimize``) and the seed's (``optimize_reference``)
are required to give the same *answer* — same best plan (shape and
cost), same csg-cmp-pair emission order — on every query, although the
product prices candidates and builds only the survivors while the oracle
builds them all.  What else they share
depends on whether the run was bounded (``engine_oracle.py`` has the
rule): DPhyp, H1, H2 and the EA-Prune ablations keep exact parity of
candidate counts and table sizes; EA-Prune proper runs under H1's cost
as a ceiling, builds fewer candidates by design, and is held to the
restriction lemma instead — every bucket is the reference bucket
restricted to ``cost <= ceiling``.  This suite generates seeded
workloads (the four classic topologies, cycle/clique floating closing
edges, and fully random hypergraphs up to n=12) and diffs the engines
across every strategy and every EA-Prune pruning criteria.

Two tiers: a ~50-case slice that runs in tier-1, and the exhaustive
matrix marked ``slow`` (``--runslow`` / ``-m slow``; see
tests/conftest.py).
"""

import random

import pytest

from engine_oracle import assert_engines_agree
from repro.optimizer.strategies import EaPruneStrategy
from repro.workload import generate_query, topology_query

STRATEGIES = ("dphyp", "ea-prune", "h1", "h2")
CRITERIA = ("full", "cost-card", "cost-only")


def _random_query(seed, max_relations=9):
    rng = random.Random(seed)
    return generate_query(rng.randint(3, max_relations), rng)


class TestTopologySlice:
    """Tier-1: the four topologies at two sizes, every strategy."""

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_topologies_all_strategies(self, topology, n):
        query = topology_query(topology, n)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(topology, n, strategy))

    @pytest.mark.parametrize("criteria", CRITERIA)
    def test_pruning_criteria_on_topologies(self, criteria):
        for topology in ("cycle", "star"):
            query = topology_query(topology, 5)
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(topology, criteria)
            )


class TestRandomSlice:
    """Tier-1: seeded random hypergraphs (mixed operators, floating
    edges via the generator's cross-predicates), every strategy."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_all_strategies(self, seed):
        query = _random_query(seed * 7919 + 11)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))

    @pytest.mark.parametrize("seed", [10, 17])
    def test_default_vector_order_survives_renaming(self, seed):
        """Two ``test_random_matrix`` seeds whose best plans pad an
        outerjoin with several ``#g`` columns: the engines number them
        differently, and only :func:`~repro.plans.render.plan_shape` ordering the
        default vectors *after* renaming makes the plans compare equal."""
        query = _random_query(seed, max_relations=12)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pruning_criteria(self, seed):
        query = _random_query(seed * 104729 + 5)
        for criteria in CRITERIA:
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(seed, criteria)
            )

    def test_h2_factor_variants(self):
        query = _random_query(424243)
        for factor in (1.0, 1.05, 1.5):
            assert_engines_agree(query, "h2", factor=factor, context=(factor,))


@pytest.mark.slow
class TestExhaustiveMatrix:
    """The full differential matrix — sizes up to n=12 where the
    strategy's complexity permits, every strategy × criteria."""

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10, 12])
    def test_topology_matrix(self, topology, n):
        if topology == "clique" and n > 7:
            pytest.skip("clique DP beyond n=7 is minutes per engine")
        if topology in ("star", "cycle") and n > 10:
            pytest.skip("star/cycle EA-Prune beyond n=10 is minutes per engine")
        query = topology_query(topology, n)
        strategies = list(STRATEGIES)
        if (topology, n) in (("star", 10), ("cycle", 10), ("clique", 7)):
            strategies.remove("ea-prune")  # heuristics scale; full DP does not
        for strategy in strategies:
            assert_engines_agree(query, strategy, context=(topology, n, strategy))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_matrix(self, seed):
        query = _random_query(seed, max_relations=12)
        for strategy in STRATEGIES:
            assert_engines_agree(query, strategy, context=(seed, strategy))
        for criteria in CRITERIA:
            assert_engines_agree(
                query, EaPruneStrategy(criteria), context=(seed, criteria)
            )
