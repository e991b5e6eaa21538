"""Differential gate: the columnar executor is row-set identical to the
interpreter on random SQL workloads and every TPC-H query, for every
optimizer strategy's plan shape — and at a scale the interpreter cannot
reach, every eager strategy's plan returns the lazy plan's rows."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import run_plan
from repro.optimizer import OptimizerConfig, optimize
from repro.query.canonical import canonical_plan
from repro.tpch.datagen import scaled_dataset
from repro.tpch.queries import TPCH_QUERIES, micro_database
from repro.workload import WorkloadConfig, generate_database, generate_query

STRATEGIES = ["ea-prune", "dphyp", "h1"]
#: every built-in strategy; all but ``dphyp`` aggregate eagerly
ALL_STRATEGIES = ["dphyp", "ea-all", "ea-prune", "h1", "h2"]
EAGER_STRATEGIES = ALL_STRATEGIES[1:]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_workloads_row_set_identical(seed):
    rng = random.Random(seed)
    query = generate_query(rng.randint(2, 5), rng)
    database = generate_database(query, rng)
    plans = [canonical_plan(query)] + [
        optimize(query, config=OptimizerConfig(strategy=s)).plan.node for s in STRATEGIES[:2]
    ]
    for plan in plans:
        interpreter = run_plan(plan, database, executor="interpreter")
        columnar = run_plan(plan, database, executor="columnar")
        assert columnar == interpreter, f"diverged on seed {seed}"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_outer_join_heavy_workloads(seed):
    from repro.rewrites.pushdown import OpKind

    rng = random.Random(seed)
    config = WorkloadConfig(
        operator_weights={
            OpKind.INNER: 0.2,
            OpKind.LEFT_OUTER: 0.3,
            OpKind.FULL_OUTER: 0.3,
            OpKind.LEFT_SEMI: 0.1,
            OpKind.LEFT_ANTI: 0.1,
        }
    )
    query = generate_query(rng.randint(2, 5), rng, config)
    database = generate_database(query, rng)
    plan = canonical_plan(query)
    assert run_plan(plan, database, executor="columnar") == run_plan(
        plan, database, executor="interpreter"
    )


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_micro_all_strategies(name, strategy):
    query = TPCH_QUERIES[name](1.0)
    database = micro_database(query)
    expected = run_plan(canonical_plan(query), database, executor="interpreter")
    plan = optimize(query, config=OptimizerConfig(strategy=strategy)).plan.node
    assert run_plan(plan, database, executor="columnar") == expected


@pytest.fixture(scope="module")
def sf001():
    return scaled_dataset(0.01)


@pytest.fixture(scope="module")
def lazy_rows(sf001):
    """``name → (database, the dphyp plan's rows)`` at SF 0.01, each
    query run once per module."""
    memo = {}

    def rows(name):
        if name not in memo:
            query = TPCH_QUERIES[name](0.01)
            database = sf001.database_for(query)
            plan = optimize(query, config=OptimizerConfig(strategy="dphyp")).plan.node
            memo[name] = database, run_plan(plan, database, executor="columnar")
        return memo[name]

    return rows


@pytest.mark.parametrize("strategy", EAGER_STRATEGIES)
@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_scaled_eager_plans_return_the_lazy_plans_rows(lazy_rows, name, strategy):
    """At SF 0.01 the plan of every eager strategy returns the rows of
    the ``dphyp`` (lazy) plan on the columnar executor.  Rows compare as
    a bag under SQL equality: an eager plan multiplies partial counts on
    float64 lanes, so its ``count`` may be spelled ``4.0`` where the
    lazy plan's is ``4``."""
    database, lazy = lazy_rows(name)
    assert len(lazy.rows) > 0
    query = TPCH_QUERIES[name](0.01)
    plan = optimize(query, config=OptimizerConfig(strategy=strategy)).plan.node
    eager = run_plan(plan, database, executor="columnar")
    assert eager == lazy
