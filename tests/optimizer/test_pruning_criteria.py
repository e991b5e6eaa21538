"""Tests for the ablation knob on EA-Prune and count-column reuse."""

import random

import pytest

from engine_oracle import UndeclaredCout
from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.strategies import EaPruneStrategy
from repro.workload import generate_query


class TestCriteriaKnob:
    def test_invalid_criteria_rejected(self):
        with pytest.raises(ValueError):
            EaPruneStrategy("cost-fd")

    def test_names_reflect_criteria(self):
        assert EaPruneStrategy().name == "ea-prune"
        assert EaPruneStrategy("cost-only").name == "ea-prune[cost-only]"

    @pytest.mark.parametrize("seed", range(6))
    def test_weaker_criteria_never_beat_full(self, seed):
        rng = random.Random(seed * 131)
        query = generate_query(rng.randint(3, 5), rng)
        full = optimize(query, config=OptimizerConfig(strategy=EaPruneStrategy("full"))).cost
        for criteria in ("cost-only", "cost-card"):
            config = OptimizerConfig(strategy=EaPruneStrategy(criteria))
            weaker = optimize(query, config=config).cost
            assert weaker >= full * (1 - 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_weaker_criteria_prune_harder(self, seed):
        rng = random.Random(seed * 137 + 1)
        query = generate_query(rng.randint(4, 6), rng)
        # Criteria against criteria: no ceiling on either side (the full
        # criteria alone would run under one and file less than it prunes).
        full, cost_only = (
            optimize(query, config=OptimizerConfig(
                strategy=EaPruneStrategy(criteria), cost_model=UndeclaredCout(),
                cache_capacity=None,
            ))
            for criteria in ("full", "cost-only")
        )
        assert sum(cost_only.table_sizes.values()) <= sum(full.table_sizes.values())


class TestCountColumnReuse:
    def test_count_star_inner_column_is_reused(self):
        """Sec. 3.1.1: a pushed grouping whose vector already contains a
        count(*) stage reuses it as the ⊗ count column."""
        from repro.aggregates import count_star, sum_
        from repro.aggregates.vector import AggItem, AggVector
        from repro.algebra.expressions import Attr
        from repro.optimizer.planinfo import PlanBuilder
        from repro.query.spec import JoinEdge, Query, RelationInfo
        from repro.query.tree import TreeLeaf, TreeNode
        from repro.rewrites.pushdown import OpKind

        relations = [
            RelationInfo("r0", ("r0.id", "r0.g"), 10.0, {}, (frozenset({"r0.id"}),)),
            RelationInfo("r1", ("r1.id", "r1.a"), 10.0, {}, (frozenset({"r1.id"}),)),
        ]
        edges = [JoinEdge(0, OpKind.INNER, Attr("r0.id").eq(Attr("r1.id")), 0.1)]
        tree = TreeNode(0, TreeLeaf(0), TreeLeaf(1))
        # count(*) anchors at vertex 0, sum(r1.a) at vertex 1: grouping the
        # r0 side decomposes count(*) into an inner count(*) column which
        # doubles as the ⊗ count for sum(r1.a).
        aggs = AggVector([AggItem("cnt", count_star()), AggItem("s", sum_("r1.a"))])
        query = Query(relations, edges, tree, ("r0.g",), aggs)
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(0), frozenset({"r0.g", "r0.id"}))
        count_star_columns = [
            item.name
            for item in grouped.node.vector
            if item.call.kind.name == "COUNT_STAR"
        ]
        assert len(count_star_columns) == 1  # reused, not duplicated
        assert grouped.scale_cols == (count_star_columns[0],)
