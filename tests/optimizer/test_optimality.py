"""Optimality of pruning (ROADMAP 4b): EA-Prune cost == EA-All cost.

EA-All keeps every plan, so it searches the complete space; EA-Prune
(``criteria="full"``) discards a plan only when another one is no worse in
cost, cardinality and functional dependencies (Def. 4).  That is sound only
if those three are *sufficient state* — everything a later operator's cost
can depend on (Light's note on the Principle of Optimality, PAPERS.md).
The claim is checkable wherever EA-All is feasible: every topology up to
six relations and seeded Sec.-5 random mixed-operator queries.

The indexed engine prices candidates before it builds them, so this is
also the end-to-end check that thinning on price discards nothing the
exhaustive search needed.

Budget: under 20 s in tier-1.  EA-All on clique-6 alone builds 1.1 M plans
(≈ 35 s), so that one case runs with ``--runslow``.
"""

import random

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.workload import generate_query, topology_query

TOPOLOGY_CASES = [
    (topology, n)
    for topology, smallest in (("chain", 2), ("cycle", 3), ("star", 2), ("clique", 3))
    for n in range(smallest, 7)
]


def assert_pruning_is_optimal(query, context):
    exhaustive = optimize(query, config=OptimizerConfig(strategy="ea-all"))
    pruned = optimize(query)
    assert pruned.cost == pytest.approx(exhaustive.cost, rel=1e-9), context
    assert sum(pruned.table_sizes.values()) <= sum(exhaustive.table_sizes.values())


@pytest.mark.parametrize(
    "topology,n",
    [
        pytest.param(t, n, marks=pytest.mark.slow) if (t, n) == ("clique", 6) else (t, n)
        for t, n in TOPOLOGY_CASES
    ],
)
def test_ea_prune_matches_ea_all_on_topologies(topology, n):
    assert_pruning_is_optimal(topology_query(topology, n), (topology, n))


@pytest.mark.parametrize("seed", range(60))
def test_ea_prune_matches_ea_all_on_random_mixed_operator_queries(seed):
    rng = random.Random(seed * 613 + 7)
    query = generate_query(rng.randint(2, 6), rng)
    assert_pruning_is_optimal(query, seed)
