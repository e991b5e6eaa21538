"""Tests for the TPC-H substrate: schema, stats, datagen, queries."""

import pytest

from repro.exec import execute
from repro.optimizer import OptimizerConfig, optimize
from repro.query.canonical import canonical_plan
from repro.tpch import (
    TABLES,
    TPCH_QUERIES,
    build_ex,
    build_q3,
    build_q5,
    build_q10,
    micro_database,
    scaled_cardinality,
    scaled_distinct,
)
from repro.tpch.datagen import MICRO_ROWS, micro_table


class TestSchema:
    def test_all_eight_tables(self):
        assert set(TABLES) == {
            "region", "nation", "supplier", "customer",
            "part", "partsupp", "orders", "lineitem",
        }

    def test_sf1_cardinalities(self):
        assert scaled_cardinality("lineitem") == 6_001_215
        assert scaled_cardinality("orders") == 1_500_000
        assert scaled_cardinality("nation") == 25

    def test_fixed_tables_do_not_scale(self):
        assert scaled_cardinality("nation", 10.0) == 25
        assert scaled_cardinality("region", 10.0) == 5
        assert scaled_cardinality("supplier", 10.0) == 100_000

    def test_distinct_scaling(self):
        assert scaled_distinct("customer", "c_custkey", 2.0) == 300_000
        assert scaled_distinct("customer", "c_nationkey", 2.0) == 25
        assert scaled_distinct("orders", "o_shippriority") == 1


class TestDatagen:
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_micro_tables_generate(self, table):
        rel = micro_table(table)
        assert len(rel) == MICRO_ROWS[table]
        expected = {f"{table}.{c}" for c in TABLES[table].columns}
        assert set(rel.attributes) == expected

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_primary_keys_hold(self, table):
        rel = micro_table(table)
        key = tuple(f"{table}.{c}" for c in TABLES[table].primary_key)
        values = [row.values_for(key) for row in rel]
        assert len(values) == len(set(values))

    def test_aliased_generation(self):
        rel = micro_table("nation", alias="ns")
        assert all(a.startswith("ns.") for a in rel.attributes)

    def test_determinism(self):
        assert micro_table("orders", seed=3) == micro_table("orders", seed=3)


class TestQueryDefinitions:
    def test_ex_structure(self):
        query = build_ex()
        assert len(query.relations) == 4
        from repro.rewrites.pushdown import OpKind

        assert query.edges[2].op is OpKind.FULL_OUTER
        assert query.group_by == ("ns.n_name", "nc.n_name")

    def test_q3_structure(self):
        query = build_q3()
        assert len(query.relations) == 3
        assert len(query.local_predicates) == 3

    def test_q5_is_cyclic(self):
        query = build_q5()
        assert query.floating_edge_ids == (5,)

    def test_q10_grouping(self):
        query = build_q10()
        assert "customer.c_custkey" in query.group_by

    def test_scale_factor_propagates(self):
        small = build_q3(0.01)
        big = build_q3(1.0)
        assert small.relations[2].cardinality < big.relations[2].cardinality


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    @pytest.mark.parametrize("strategy", ["dphyp", "ea-prune", "h1", "h2"])
    def test_optimized_results_match_canonical(self, name, strategy):
        query = TPCH_QUERIES[name](1.0)
        database = micro_database(query, seed=1)
        canonical = execute(canonical_plan(query), database)
        result = optimize(query, config=OptimizerConfig(strategy=strategy))
        assert execute(result.plan.node, database) == canonical

    def test_ex_gains_massively_from_eager_aggregation(self):
        """The headline claim: the outerjoin barrier falls (Sec. 1)."""
        query = build_ex()
        lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
        eager = optimize(query)
        assert eager.cost < lazy.cost * 1e-3

    def test_heuristics_find_an_ex_plan_close_to_optimal(self):
        # The heuristics keep one plan per class and are not guaranteed
        # optimal (Sec. 4.4), but on Ex they must capture nearly all of the
        # gain: within a small factor of EA, orders of magnitude below DPhyp.
        query = build_ex()
        optimal = optimize(query)
        lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
        for strategy in ("h1", "h2"):
            cost = optimize(query, config=OptimizerConfig(strategy=strategy)).cost
            assert cost <= optimal.cost * 2
            assert cost < lazy.cost * 1e-3

    def test_q10_gains(self):
        query = build_q10()
        lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
        eager = optimize(query)
        assert eager.cost < lazy.cost

    def test_eager_never_worse(self):
        for name, build in TPCH_QUERIES.items():
            query = build(1.0)
            lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
            eager = optimize(query)
            assert eager.cost <= lazy.cost * (1 + 1e-9), name
