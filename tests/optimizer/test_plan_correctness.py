"""End-to-end correctness: optimizer output ≡ canonical plan on real data.

This is the repository's strongest integration test.  For random queries
(covering inner/outer/semi/anti/group joins, avg and distinct aggregates,
multi-level grouping pushdown) and random micro databases, the plan chosen
by *every* strategy must produce exactly the canonical result — which
simultaneously validates the Sec. 3 equivalences, the conflict detector,
the aggregation-state machinery and top-grouping elimination.

A plan that is wrong but never cheapest is a latent wrong answer: it
surfaces once drifted statistics make it the cheapest.  So EA-All, run
through the oracle with an ``on_plan`` hook, has *every* complete plan it
builds executed and compared too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import execute
from repro.optimizer import OptimizerConfig, OptimizerHooks, optimize
from repro.optimizer.reference import optimize_reference
from repro.query.canonical import canonical_plan
from repro.workload import WorkloadConfig, generate_database, generate_query

STRATEGIES = ["dphyp", "ea-all", "ea-prune", "h1", "h2"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_all_strategies_produce_canonical_results(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    query = generate_query(n, rng)
    database = generate_database(query, rng)
    canonical = execute(canonical_plan(query), database)
    for strategy in STRATEGIES:
        result = optimize(query, config=OptimizerConfig(strategy=strategy))
        optimized = execute(result.plan.node, database)
        assert optimized == canonical, f"strategy {strategy} diverged (seed {seed})"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_inner_only_workloads(seed):
    """The classic Yan-Larson setting: inner joins only."""
    rng = random.Random(seed)
    query = generate_query(rng.randint(2, 6), rng, WorkloadConfig(inner_only=True))
    database = generate_database(query, rng)
    canonical = execute(canonical_plan(query), database)
    for strategy in ("ea-prune", "h2"):
        result = optimize(query, config=OptimizerConfig(strategy=strategy))
        assert execute(result.plan.node, database) == canonical


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_outer_join_heavy_workloads(seed):
    """The paper's novelty: groupings moved through outerjoins."""
    rng = random.Random(seed)
    from repro.rewrites.pushdown import OpKind

    config = WorkloadConfig(
        operator_weights={
            OpKind.INNER: 0.2,
            OpKind.LEFT_OUTER: 0.4,
            OpKind.FULL_OUTER: 0.4,
        }
    )
    query = generate_query(rng.randint(2, 5), rng, config)
    database = generate_database(query, rng)
    canonical = execute(canonical_plan(query), database)
    for strategy in ("ea-prune", "h1"):
        result = optimize(query, config=OptimizerConfig(strategy=strategy))
        assert execute(result.plan.node, database) == canonical


@pytest.mark.parametrize("seed", range(8))
def test_larger_databases(seed):
    """Bigger random databases shake out group-collision edge cases."""
    rng = random.Random(seed * 7919)
    query = generate_query(rng.randint(2, 4), rng)
    database = generate_database(query, rng, max_rows=12)
    canonical = execute(canonical_plan(query), database)
    result = optimize(query)
    assert execute(result.plan.node, database) == canonical


def check_every_complete_plan(seed, n):
    """Every complete plan EA-All builds == the canonical result; returns
    how many were compared."""
    rng = random.Random(seed * 7919 + n)
    query = generate_query(n, rng)
    database = generate_database(query, rng)
    canonical = execute(canonical_plan(query), database)
    complete = []
    all_mask = query.all_relations_mask

    def keep(plan):
        if plan.rel_set == all_mask:
            complete.append(plan)

    optimize_reference(
        query,
        config=OptimizerConfig(strategy="ea-all", cache_capacity=None),
        hooks=OptimizerHooks(on_plan=keep),
    )
    assert complete, (seed, n)
    for plan in complete:
        assert execute(plan.node, database) == canonical, (seed, n, plan.node)
    return len(complete)


def test_every_complete_plan_matches_the_canonical_result():
    compared = sum(check_every_complete_plan(seed, 2 + seed % 3) for seed in range(150))
    assert compared > 150  # not only the chosen plans


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_complete_plan_random_matrix(n):
    for seed in range(150, 900):
        check_every_complete_plan(seed, n)
