"""Tests for attribute-equivalence tracking and closure-aware key checks."""

import gc

from repro.aggregates import count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, Logical, Not
from repro.optimizer.planinfo import (
    PlanBuilder,
    _equality_pairs,
    _merge_equiv,
    _restrict_equiv,
    needs_grouping,
)
from repro.query.spec import JoinEdge, Query, RelationInfo
from repro.query.tree import TreeLeaf, TreeNode
from repro.rewrites.pushdown import OpKind


def two_relation_query(op=OpKind.INNER):
    relations = [
        RelationInfo(
            "r0", ("r0.id", "r0.g", "r0.a"), 100.0,
            {"r0.id": 100.0, "r0.g": 10.0}, (frozenset({"r0.id"}),),
        ),
        RelationInfo(
            "r1", ("r1.id", "r1.fk", "r1.a"), 500.0,
            {"r1.id": 500.0, "r1.fk": 100.0}, (frozenset({"r1.id"}),),
        ),
    ]
    edges = [JoinEdge(0, op, Attr("r0.id").eq(Attr("r1.fk")), 0.01)]
    tree = TreeNode(0, TreeLeaf(0), TreeLeaf(1))
    aggs = AggVector([AggItem("cnt", count_star()), AggItem("s", sum_("r1.a"))])
    return Query(relations, edges, tree, ("r0.g",), aggs)


class TestHelpers:
    def test_equality_pairs_single(self):
        assert _equality_pairs(Attr("a").eq(Attr("b"))) == [("a", "b")]

    def test_equality_pairs_conjunction(self):
        pred = Logical("and", (Attr("a").eq(Attr("b")), Attr("c").eq(Attr("d"))))
        assert _equality_pairs(pred) == [("a", "b"), ("c", "d")]

    def test_equality_pairs_nested_in_conjunct_order_leave_no_cycle(self):
        """The walk is an explicit stack: no self-referencing closure is
        left for the cyclic collector, call after call."""
        inner = Logical("and", (Attr("b").eq(Attr("c")), Not(Attr("x").eq(Attr("y")))))
        pred = Logical("and", (Attr("a").eq(Attr("b")), inner, Attr("d").eq(Attr("e"))))
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            pairs = [_equality_pairs(pred) for _ in range(3)]
            found = gc.collect()
            gc.garbage.clear()
        finally:
            gc.set_debug(flags)
            gc.enable()
        assert pairs == [[("a", "b"), ("b", "c"), ("d", "e")]] * 3
        assert found == 0

    def test_equality_pairs_ignores_constants(self):
        from repro.algebra.expressions import Const

        assert _equality_pairs(Attr("a").eq(Const(1))) == []

    def test_merge_transitive(self):
        merged = _merge_equiv((), [("a", "b"), ("b", "c")])
        assert merged == (frozenset({"a", "b", "c"}),)

    def test_merge_disjoint(self):
        merged = _merge_equiv((), [("a", "b"), ("x", "y")])
        assert set(merged) == {frozenset({"a", "b"}), frozenset({"x", "y"})}

    def test_restrict_drops_singletons(self):
        restricted = _restrict_equiv(
            (frozenset({"a", "b"}), frozenset({"x", "y"})), frozenset({"a", "b", "x"})
        )
        assert restricted == (frozenset({"a", "b"}),)


class TestPlanEquivalences:
    def test_inner_join_records_equivalence(self):
        query = two_relation_query(OpKind.INNER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.01,
        )
        assert frozenset({"r0.id", "r1.fk"}) in joined.equiv

    def test_outerjoin_does_not_record_equivalence(self):
        query = two_relation_query(OpKind.LEFT_OUTER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.LEFT_OUTER,
            query.edges[0].predicate, 0.01,
        )
        # padding breaks the equality: unmatched left rows have r1.fk NULL
        assert joined.equiv == ()

    def test_closure_implies_key_through_equality(self):
        query = two_relation_query(OpKind.INNER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.01,
        )
        # r0.id is a key of r0, and r0.id = r1.fk: r1.fk side determines it.
        # r1.id keys the join (FK join into r0's key keeps r1's keys).
        assert joined.has_key_within(frozenset({"r1.id"}))
        # via closure: {r1.fk} ∪ closure ⊇ {r0.id} — but r0.id alone is not
        # a key of the *join* (a customer may have many orders), so:
        assert joined.closure(frozenset({"r1.fk"})) >= frozenset({"r0.id", "r1.fk"})

    def test_needs_grouping_uses_closure(self):
        query = two_relation_query(OpKind.INNER)
        builder = PlanBuilder(query)
        # Group r1 by {fk, a}: composite key {r1.fk, r1.a}.  Join with r0 on
        # r0.id = r1.fk (r0.id keyed, r1.fk not): κ = right side's keys.
        grouped = builder.group(builder.leaf(1), frozenset({"r1.fk", "r1.a"}))
        joined = builder.join(
            builder.leaf(0), grouped, OpKind.INNER, query.edges[0].predicate, 0.01
        )
        assert frozenset({"r1.fk", "r1.a"}) in joined.keys
        # {r0.id, r1.a} implies the key only via the equality r0.id = r1.fk:
        assert not needs_grouping(frozenset({"r0.id", "r1.a"}), joined)
        # plain subset containment would say the opposite:
        assert not any(k <= frozenset({"r0.id", "r1.a"}) for k in joined.keys)
        # and without the equivalence there is genuinely no key:
        assert needs_grouping(frozenset({"r0.g", "r1.a"}), joined)

    def test_groupjoin_keeps_left_equivalences_only(self):
        query = two_relation_query(OpKind.INNER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.01,
        )
        grouped = builder.group(joined, frozenset({"r0.g", "r0.id", "r1.fk"}))
        # the class {r0.id, r1.fk} survives the grouping (both attrs kept)
        assert frozenset({"r0.id", "r1.fk"}) in grouped.equiv


class TestFdSupersetWithEquiv:
    def test_equivalences_participate_in_dominance(self):
        from repro.optimizer.reference import _fd_superset

        query = two_relation_query(OpKind.INNER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.01,
        )
        import dataclasses

        stripped = dataclasses.replace(joined, equiv=())
        assert _fd_superset(joined, stripped)      # more FDs dominate fewer
        assert not _fd_superset(stripped, joined)  # but not vice versa
