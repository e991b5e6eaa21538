"""Tests for the query specification and initial operator trees."""

import gc

import pytest

from repro.aggregates import count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, Const, attrs_of
from repro.query.spec import JoinEdge, Query, RelationInfo
from repro.query.tree import TreeLeaf, TreeNode, tree_depth, tree_leaves, tree_operators
from repro.rewrites.pushdown import OpKind


#: TPC-H Q5 in the SQL front end's dialect (dates are day numbers).
TPCH_Q5 = (
    "SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN region r ON n.n_regionkey = r.r_regionkey "
    "WHERE c.c_nationkey = s.s_nationkey AND r.r_name = 'ASIA' "
    "AND o.o_orderdate >= 731 AND o.o_orderdate < 1096 "
    "GROUP BY n.n_name"
)


def rel(i, card=100.0, distinct=None, keys=()):
    name = f"r{i}"
    attrs = (f"{name}.id", f"{name}.g", f"{name}.a")
    return RelationInfo(name, attrs, card, distinct or {}, keys)


def simple_query(op=OpKind.INNER, keys0=(), keys1=()):
    relations = [
        RelationInfo("r0", ("r0.id", "r0.g", "r0.a"), 100.0, {}, keys0),
        RelationInfo("r1", ("r1.id", "r1.g", "r1.a"), 200.0, {}, keys1),
    ]
    gj = AggVector([AggItem("gj1", sum_("r1.a"))]) if op is OpKind.GROUPJOIN else None
    edges = [JoinEdge(0, op, Attr("r0.id").eq(Attr("r1.id")), 0.01, gj)]
    tree = TreeNode(0, TreeLeaf(0), TreeLeaf(1))
    group_by = ("r0.g",)
    aggregates = AggVector([AggItem("cnt", count_star()), AggItem("s", sum_("r0.a"))])
    return Query(relations, edges, tree, group_by, aggregates)


def _needed_above_by_rescan(q, mask):
    """``Query.needed_above`` as it was written before it was indexed."""
    own = set(q.relation_attrs(mask))
    for name in q._groupjoin_outputs():
        if q._groupjoin_edge_mask(name) & ~mask == 0:
            own.add(name)
    needed = {a for a in q.group_by if a in own}
    for edge in q.edges:
        referenced = attrs_of(edge.predicate)
        if edge.groupjoin_vector is not None:
            referenced |= edge.groupjoin_vector.attributes()
        touched = q.vertices_of(a for a in referenced if a in q._attr_to_vertex)
        for side in q._operator_sides().get(edge.edge_id, ()):
            if touched and not touched & side:
                touched |= side & -side
        if touched & mask and touched & ~mask & q.all_relations_mask:
            needed.update(a for a in referenced if a in own)
    for item in q.normalized.vector:
        src = item.call.attributes()
        src_in = {a for a in src if a in own}
        src_mask = q.vertices_of(src) if src else 0
        if src_in and src_mask & ~mask & q.all_relations_mask:
            needed.update(src_in)
    return frozenset(needed)


class TestTree:
    def test_tree_leaves_bitset(self):
        tree = TreeNode(0, TreeLeaf(0), TreeNode(1, TreeLeaf(2), TreeLeaf(1)))
        assert tree_leaves(tree) == 0b111
        assert tree_leaves(tree.left) == 0b001

    def test_tree_operators(self):
        tree = TreeNode(0, TreeLeaf(0), TreeNode(1, TreeLeaf(2), TreeLeaf(1)))
        assert [node.edge_id for node in tree_operators(tree)] == [0, 1]

    def test_tree_depth(self):
        assert tree_depth(TreeLeaf(0)) == 0
        tree = TreeNode(0, TreeLeaf(0), TreeNode(1, TreeLeaf(2), TreeLeaf(1)))
        assert tree_depth(tree) == 2


class TestRelationInfo:
    def test_distinct_count_caps_at_cardinality(self):
        info = rel(0, card=50.0, distinct={"r0.g": 80.0})
        assert info.distinct_count("r0.g") == 50.0

    def test_distinct_count_defaults_to_cardinality(self):
        info = rel(0, card=50.0)
        assert info.distinct_count("r0.a") == 50.0

    def test_keys_declared_only(self):
        info = rel(0, card=10.0, distinct={"r0.a": 10.0})
        assert info.all_keys() == ()
        assert not info.duplicate_free
        keyed = rel(0, keys=(frozenset({"r0.id"}),))
        assert keyed.all_keys() == (frozenset({"r0.id"}),)
        assert keyed.duplicate_free


class TestJoinEdge:
    def test_groupjoin_requires_vector(self):
        with pytest.raises(ValueError):
            JoinEdge(0, OpKind.GROUPJOIN, Attr("a").eq(Attr("b")), 0.5)

    def test_selectivity_validation(self):
        with pytest.raises(ValueError):
            JoinEdge(0, OpKind.INNER, Attr("a").eq(Attr("b")), 0.0)
        with pytest.raises(ValueError):
            JoinEdge(0, OpKind.INNER, Attr("a").eq(Attr("b")), 1.5)


class TestQuery:
    def test_vertex_lookup(self):
        q = simple_query()
        assert q.vertex_of("r0.g") == 0
        assert q.vertex_of("r1.a") == 1

    def test_duplicate_attribute_rejected(self):
        shared = RelationInfo("x", ("dup.a",), 1.0)
        shared2 = RelationInfo("y", ("dup.a",), 1.0)
        with pytest.raises(ValueError):
            Query(
                [shared, shared2],
                [JoinEdge(0, OpKind.INNER, Attr("dup.a").eq(Attr("dup.a")), 0.5)],
                TreeNode(0, TreeLeaf(0), TreeLeaf(1)),
                (),
                AggVector([AggItem("c", count_star())]),
            )

    def test_unknown_group_attr_rejected(self):
        with pytest.raises(ValueError):
            relations = [rel(0), rel(1)]
            Query(
                relations,
                [JoinEdge(0, OpKind.INNER, Attr("r0.id").eq(Attr("r1.id")), 0.5)],
                TreeNode(0, TreeLeaf(0), TreeLeaf(1)),
                ("nope.g",),
                AggVector([AggItem("c", count_star())]),
            )

    def test_building_a_query_leaves_nothing_for_the_collector(self):
        """A generated query and a parsed TPC-H statement free what their
        construction made by reference count: no self-referencing closure
        walks the tree."""
        from repro.sql import Catalog, parse_query
        from repro.workload import topology_query

        catalog = Catalog.from_tpch()
        builds = (lambda: topology_query("star", 6), lambda: parse_query(TPCH_Q5, catalog))
        for build in builds:
            build()  # first-use imports and memos are not garbage
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            queries = [build() for build in builds]
            found = gc.collect()
            gc.garbage.clear()
        finally:
            gc.set_debug(flags)
            gc.enable()
        assert [len(query.relations) for query in queries] == [6, 6]
        assert found == 0

    def test_vertices_of_groupjoin_output_is_edge_mask(self):
        q = simple_query(op=OpKind.GROUPJOIN)
        assert q.vertices_of(["gj1"]) == 0b11

    def test_relation_attrs(self):
        q = simple_query()
        assert "r0.g" in q.relation_attrs(0b01)
        assert "r1.g" not in q.relation_attrs(0b01)

    def test_needed_above_includes_group_and_join_attrs(self):
        q = simple_query()
        needed = q.needed_above(0b01)
        assert "r0.g" in needed  # grouping attribute
        assert "r0.id" in needed  # crossing join predicate
        assert "r0.a" not in needed  # only aggregated, not needed raw

    def test_needed_above_full_set_is_group_only(self):
        q = simple_query()
        assert q.needed_above(0b11) == frozenset({"r0.g"})

    def test_needed_above_keeps_a_one_sided_join_predicates_attribute(self):
        # ``ON 7 = r1.id`` mentions one side only; the join still happens
        # where r0 and r1 meet, so r1.id must survive a grouping of r1.
        q = simple_query()
        one_sided = JoinEdge(0, OpKind.INNER, Const(7).eq(Attr("r1.id")), 0.01)
        q = Query(q.relations, [one_sided], q.tree, q.group_by, q.aggregates)
        assert "r1.id" in q.needed_above(0b10)
        assert q.needed_above(0b01) == frozenset({"r0.g"})
        assert q.needed_above(0b11) == frozenset({"r0.g"})

    def test_needed_above_is_the_rescan_of_the_query(self):
        # The per-Query index (``_attribute_users``) against the definition
        # read straight off the query, every relation set of seeded random
        # queries — groupjoin outputs and straddling aggregates included.
        import random

        from repro.workload import generate_query

        with_groupjoin = 0
        for seed in range(60):
            rng = random.Random(seed)
            q = generate_query(rng.randint(2, 7), rng)
            with_groupjoin += bool(q._groupjoin_outputs())
            for mask in range(q.all_relations_mask + 1):
                assert q.needed_above(mask) == _needed_above_by_rescan(q, mask), (seed, mask)
        assert with_groupjoin >= 5

    def test_normalization_exposed(self):
        from repro.aggregates import avg

        relations = [rel(0), rel(1)]
        q = Query(
            relations,
            [JoinEdge(0, OpKind.INNER, Attr("r0.id").eq(Attr("r1.id")), 0.5)],
            TreeNode(0, TreeLeaf(0), TreeLeaf(1)),
            ("r0.g",),
            AggVector([AggItem("m", avg("r0.a"))]),
        )
        assert q.normalized.vector.names() == ("m#s", "m#c")

    def test_groupjoin_scaling_requirements(self):
        q = simple_query(op=OpKind.GROUPJOIN)
        reqs = q.groupjoin_scaling_requirements()
        assert reqs == [(0b10, True)]  # sum is duplicate sensitive
