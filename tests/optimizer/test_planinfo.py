"""Unit tests for PlanInfo construction: keys, Cout, aggregation state."""

import itertools
import random

import pytest

from repro.aggregates import count, count_star, max_, sum_
from repro.aggregates.calls import AggKind
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr
from repro.optimizer.planinfo import PlanBuilder, needs_grouping
from repro.plans.nodes import GroupByNode, ProjectNode, ScanNode
from repro.query.spec import JoinEdge, Query, RelationInfo
from repro.query.tree import TreeLeaf, TreeNode
from repro.rewrites.pushdown import OpKind
from repro.sql import Catalog, parse_query
from repro.tpch.queries import TPCH_QUERIES
from repro.workload import generate_query


def make_query(op=OpKind.INNER, aggregates=None, group_by=("r0.g",), with_keys=True):
    keys0 = (frozenset({"r0.id"}),) if with_keys else ()
    keys1 = (frozenset({"r1.id"}),) if with_keys else ()
    relations = [
        RelationInfo(
            "r0", ("r0.id", "r0.g", "r0.a"), 100.0,
            {"r0.id": 100.0, "r0.g": 10.0, "r0.a": 50.0}, keys0,
        ),
        RelationInfo(
            "r1", ("r1.id", "r1.g", "r1.a"), 1000.0,
            {"r1.id": 1000.0, "r1.g": 20.0, "r1.a": 400.0}, keys1,
        ),
    ]
    edges = [JoinEdge(0, op, Attr("r0.id").eq(Attr("r1.id")), 0.001)]
    tree = TreeNode(0, TreeLeaf(0), TreeLeaf(1))
    aggs = aggregates or AggVector(
        [AggItem("cnt", count_star()), AggItem("s1", sum_("r1.a"))]
    )
    return Query(relations, edges, tree, group_by, aggs)


class TestLeaf:
    def test_leaf_properties(self):
        query = make_query()
        builder = PlanBuilder(query)
        leaf = builder.leaf(0)
        assert isinstance(leaf.node, ScanNode)
        assert leaf.cost == 0.0  # Cout: scans are free
        assert leaf.cardinality == 100.0
        assert leaf.duplicate_free
        assert leaf.keys == (frozenset({"r0.id"}),)

    def test_leaf_terms_assignment(self):
        query = make_query()
        builder = PlanBuilder(query)
        leaf0 = builder.leaf(0)
        leaf1 = builder.leaf(1)
        # count(*) is anchored at vertex 0 (special case S1).
        assert "cnt" in leaf0.terms
        assert "s1" in leaf1.terms and "s1" not in leaf0.terms

    def test_leaf_with_local_predicate(self):
        query = make_query()
        query.local_predicates[0] = (Attr("r0.g").eq(Attr("r0.g")), 0.25)
        builder = PlanBuilder(query)
        leaf = builder.leaf(0)
        assert leaf.cardinality == 25.0


class TestJoin:
    def test_cout_accumulates(self):
        query = make_query()
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.001,
        )
        assert joined.cardinality == pytest.approx(100.0)
        assert joined.cost == pytest.approx(100.0)

    def test_inner_join_keys_key_fk(self):
        query = make_query()
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.001,
        )
        # Both sides join on their keys: keys of both survive (Sec. 2.3.1).
        assert frozenset({"r0.id"}) in joined.keys
        assert frozenset({"r1.id"}) in joined.keys

    def test_inner_join_keys_no_keys(self):
        query = make_query(with_keys=False)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.001,
        )
        assert joined.keys == ()
        assert not joined.duplicate_free

    def test_semijoin_keeps_left_keys_only(self):
        query = make_query(op=OpKind.LEFT_SEMI, aggregates=AggVector(
            [AggItem("cnt", count_star()), AggItem("s0", sum_("r0.a"))]
        ))
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.LEFT_SEMI,
            query.edges[0].predicate, 0.001,
        )
        assert joined.keys == (frozenset({"r0.id"}),)
        assert joined.raw_attrs == frozenset({"r0.id", "r0.g", "r0.a"})

    def test_full_outerjoin_combines_keys(self):
        query = make_query(op=OpKind.FULL_OUTER)
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.FULL_OUTER,
            query.edges[0].predicate, 0.001,
        )
        assert joined.keys == (frozenset({"r0.id", "r1.id"}),)


class TestGroup:
    def test_group_reduces_cardinality_and_sets_key(self):
        query = make_query()
        builder = PlanBuilder(query)
        leaf = builder.leaf(1)
        grouped = builder.group(leaf, frozenset({"r1.id", "r1.g"}))
        assert grouped is not None
        assert grouped.duplicate_free
        assert any(k <= frozenset({"r1.id", "r1.g"}) for k in grouped.keys)
        assert grouped.cost == pytest.approx(grouped.cardinality)

    def test_group_decomposes_terms(self):
        query = make_query()
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(1), frozenset({"r1.id"}))
        assert grouped.terms["s1"].kind is AggKind.SUM
        # outer stage references the inner column, not the raw attribute
        assert "r1.a" not in grouped.terms["s1"].attributes()

    def test_group_adds_count_when_other_side_sensitive(self):
        query = make_query()  # cnt (count(*), vertex 0) is duplicate sensitive
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(1), frozenset({"r1.id"}))
        assert grouped.scale_cols  # count column introduced

    def test_group_skips_count_when_other_side_agnostic(self):
        aggs = AggVector([AggItem("m0", max_("r0.a")), AggItem("s1", sum_("r1.a"))])
        query = make_query(aggregates=aggs)
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(1), frozenset({"r1.id"}))
        assert grouped.scale_cols == ()

    def test_group_rejects_distinct_on_non_grouping_attr(self):
        aggs = AggVector([AggItem("sd", sum_("r1.a", distinct=True))])
        query = make_query(aggregates=aggs)
        builder = PlanBuilder(query)
        assert builder.group(builder.leaf(1), frozenset({"r1.id"})) is None

    def test_group_passes_distinct_on_grouping_attr(self):
        aggs = AggVector([AggItem("sd", sum_("r1.a", distinct=True))])
        query = make_query(aggregates=aggs)
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(1), frozenset({"r1.id", "r1.a"}))
        assert grouped is not None
        assert grouped.terms["sd"] == sum_("r1.a", distinct=True)

    def test_group_defaults_match_paper(self):
        query = make_query()
        builder = PlanBuilder(query)
        grouped = builder.group(builder.leaf(1), frozenset({"r1.id"}))
        from repro.algebra.values import is_null

        count_col = grouped.scale_cols[0]
        assert grouped.defaults[count_col] == 1
        sum_cols = [c for c in grouped.defaults if c.startswith("s1")]
        assert sum_cols and is_null(grouped.defaults[sum_cols[0]])


class TestNeedsGrouping:
    def test_false_when_key_in_group_attrs(self):
        query = make_query()
        builder = PlanBuilder(query)
        leaf = builder.leaf(0)
        assert not needs_grouping(frozenset({"r0.id", "r0.g"}), leaf)

    def test_true_without_key(self):
        query = make_query()
        builder = PlanBuilder(query)
        leaf = builder.leaf(0)
        assert needs_grouping(frozenset({"r0.g"}), leaf)

    def test_true_when_not_duplicate_free(self):
        query = make_query(with_keys=False)
        builder = PlanBuilder(query)
        leaf = builder.leaf(0)
        assert needs_grouping(frozenset({"r0.id", "r0.g", "r0.a"}), leaf)


class TestFinishTop:
    def test_adds_grouping_when_needed(self):
        query = make_query()
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.001,
        )
        final = builder.finish_top(joined)
        assert isinstance(final.node, GroupByNode)
        assert final.cost > joined.cost

    def test_eliminates_grouping_over_key(self):
        query = make_query(group_by=("r0.id",))
        builder = PlanBuilder(query)
        joined = builder.join(
            builder.leaf(0), builder.leaf(1), OpKind.INNER,
            query.edges[0].predicate, 0.001,
        )
        final = builder.finish_top(joined)
        assert isinstance(final.node, ProjectNode)  # Eqv. 42 applied
        assert final.cost == joined.cost  # projections are free


#: An aggregate whose source spans two relations: it turns fresh at an
#: inner join, not only at a left-only operator.
SPANNING_SQL = (
    "SELECT n.n_name, sum(s.s_acctbal * c.c_acctbal) AS x, count(*) AS cnt "
    "FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey "
    "JOIN customer c ON c.c_nationkey = n.n_nationkey GROUP BY n.n_name"
)


def _fresh_by_definition(builder, left_set, right_set, left_only):
    """The scan over every term source, as ``_fresh_terms`` documents it."""
    names = tuple(
        name
        for name, source in builder.term_sources.items()
        if not source & ~(left_set | right_set)
        and source & ~left_set
        and (left_only or source & ~right_set)
    )
    raw = frozenset().union(*(builder.original_calls[name].attributes() for name in names))
    return names, raw


def _check_fresh_terms(query):
    """Every ordered pair of disjoint relation sets, both operator kinds:
    ``_fresh_terms`` == the definition.  Returns which non-empty answers
    were met, by (left_only, has a spanning source)."""
    builder = PlanBuilder(query)
    spanning = any(mask.bit_count() > 1 for mask in builder.term_sources.values())
    met = set()
    for labels in itertools.product(range(3), repeat=len(query.relations)):
        left = sum(1 << v for v, side in enumerate(labels) if side == 1)
        right = sum(1 << v for v, side in enumerate(labels) if side == 2)
        if not left or not right:
            continue
        for left_only in (False, True):
            expected = _fresh_by_definition(builder, left, right, left_only)
            # twice: the first answer and the memo's
            assert builder._fresh_terms(left, right, left_only) == expected
            assert builder._fresh_terms(left, right, left_only) == expected
            if expected[0]:
                met.add((left_only, spanning))
    return met


class TestFreshTerms:
    """``_fresh_terms`` skips its memo where no term can turn fresh; both
    premises of the skip are reached here (a left-only operator without a
    spanning source, and an inner join with one)."""

    def test_mixed_operator_queries(self):
        met = set()
        for seed in range(30):
            n = 3 + seed % 3
            met |= _check_fresh_terms(generate_query(n, random.Random(seed * 7919 + n)))
        assert {(True, False), (False, True)} <= met

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_tpch(self, name):
        _check_fresh_terms(TPCH_QUERIES[name]())

    def test_an_aggregate_over_two_relations(self):
        query = parse_query(SPANNING_SQL, Catalog.from_tpch())
        assert (False, True) in _check_fresh_terms(query)
        assert PlanBuilder(query)._fresh_terms(2, 4, False)[0] == ("x",)
