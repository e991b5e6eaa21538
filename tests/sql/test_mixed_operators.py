"""The full paper operator surface through SQL: binding + 3VL execution.

Covers the tentpole pipeline: EXISTS / NOT EXISTS / IN / NOT IN become
semijoin / antijoin edges, RIGHT JOIN normalizes to a swapped left
outerjoin, comma-FROM becomes mergeable cross edges, and IS NULL / NOT
carry SQL three-valued semantics from the parser through the conflict
detector, DPhyp, and the interpreter.
"""

import pytest

from repro.algebra.relation import Relation
from repro.algebra.rows import Row
from repro.algebra.values import NULL
from repro.exec import execute
from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.query.canonical import canonical_plan
from repro.query.tree import TreeLeaf, TreeNode
from repro.rewrites.pushdown import OpKind
from repro.sql import BindError, Catalog, TableStats, parse_query
from repro.tpch import micro_database


@pytest.fixture
def tpch():
    return Catalog.from_tpch()


@pytest.fixture
def catalog():
    """Small tables with nullable x columns (v is a one-row dimension)."""
    cat = Catalog()
    cat.register(TableStats("t", ("id", "x", "g"), 6.0, {"id": 6.0, "x": 3.0, "g": 2.0}))
    cat.register(TableStats("u", ("id", "x"), 4.0, {"id": 4.0, "x": 2.0}))
    cat.register(TableStats("v", ("id",), 1.0, {"id": 1.0}))
    return cat


@pytest.fixture
def database():
    t_rows = [
        Row({"t.id": 1, "t.x": 1, "t.g": "a"}),
        Row({"t.id": 2, "t.x": 2, "t.g": "a"}),
        Row({"t.id": 3, "t.x": 3, "t.g": "b"}),
        Row({"t.id": 4, "t.x": NULL, "t.g": "b"}),
        Row({"t.id": 5, "t.x": 1, "t.g": "b"}),
        Row({"t.id": 6, "t.x": NULL, "t.g": "a"}),
    ]
    u_rows = [
        Row({"u.id": 1, "u.x": 1}),
        Row({"u.id": 2, "u.x": 2}),
        Row({"u.id": 3, "u.x": NULL}),
        Row({"u.id": 4, "u.x": 1}),
    ]
    return {
        "t": Relation(("t.id", "t.x", "t.g"), t_rows),
        "u": Relation(("u.id", "u.x"), u_rows),
        "v": Relation(("v.id",), [Row({"v.id": 1})]),
    }


def counts_by_group(relation, group_attr, count_attr):
    return {row[group_attr]: row[count_attr] for row in relation}


class TestSemijoinBinding:
    def test_exists_binds_semijoin_edge(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
            "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_SEMI]
        assert len(query.relations) == 2
        # equijoin correlation: 1/max(d) over the 25 nation keys
        assert query.edges[0].selectivity == pytest.approx(1 / 25)

    def test_not_exists_binds_antijoin_edge(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE NOT EXISTS "
            "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_ANTI]

    def test_in_binds_semijoin_on_equality(self, tpch):
        query = parse_query(
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE "
            "c.c_custkey IN (SELECT o.o_custkey FROM orders o) "
            "GROUP BY c.c_nationkey",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_SEMI]
        assert "c.c_custkey" in {a for a in query.edges[0].predicate.attributes()}
        assert "o.o_custkey" in {a for a in query.edges[0].predicate.attributes()}

    def test_not_in_binds_antijoin(self, tpch):
        query = parse_query(
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE "
            "c.c_custkey NOT IN (SELECT o.o_custkey FROM orders o) "
            "GROUP BY c.c_nationkey",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_ANTI]

    def test_subquery_local_predicate_stays_inside(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
            "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey "
            "AND s.s_acctbal > 100) GROUP BY n.n_name",
            tpch,
        )
        # the uncorrelated half filters the supplier vertex (index 1)
        assert set(query.local_predicates) == {1}

    def test_subquery_with_join_builds_bushy_right_subtree(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
            "(SELECT * FROM supplier s JOIN partsupp ps "
            "ON s.s_suppkey = ps.ps_suppkey WHERE s.s_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name",
            tpch,
        )
        ops = [e.op for e in query.edges]
        assert OpKind.LEFT_SEMI in ops and OpKind.INNER in ops
        semijoin = next(
            node for node in [query.tree] if isinstance(node, TreeNode)
        )
        assert query.edges[semijoin.edge_id].op is OpKind.LEFT_SEMI
        assert isinstance(semijoin.right, TreeNode)  # s ⋈ ps below the semijoin

    def test_conflict_detection_engages(self, tpch):
        """The acceptance-criterion path: DPhyp + conflict detector."""
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n "
            "JOIN supplier s ON n.n_nationkey = s.s_nationkey WHERE EXISTS "
            "(SELECT * FROM customer c WHERE c.c_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name",
            tpch,
        )
        prepared = prepare(query)
        assert any(a.op is OpKind.LEFT_SEMI for a in prepared.annotated)
        result = optimize(query, prepared=prepared)
        assert result.cost > 0


class TestRightJoinNormalization:
    def test_right_join_is_left_outer_with_swapped_inputs(self, tpch):
        """Regression for `expected 'eof', found 'right'`: pins the
        normalization a RIGHT JOIN b ≡ b LEFT JOIN a."""
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM supplier s "
            "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_OUTER]
        assert isinstance(query.tree, TreeNode)
        # supplier is vertex 0 (FROM order), nation vertex 1; nation must
        # be the preserved (left) input.
        assert query.tree.left == TreeLeaf(1)
        assert query.tree.right == TreeLeaf(0)

    def test_right_join_equals_mirrored_left_join(self, tpch):
        right = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM supplier s "
            "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name",
            tpch,
        )
        left = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n "
            "LEFT JOIN supplier s ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name",
            tpch,
        )
        database = micro_database(right)
        assert execute(canonical_plan(right), database) == execute(
            canonical_plan(left), database
        )


class TestCommaFrom:
    def test_where_equijoin_merges_into_cross_edge(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n, supplier s "
            "WHERE n.n_nationkey = s.s_nationkey GROUP BY n.n_name",
            tpch,
        )
        assert [e.op for e in query.edges] == [OpKind.INNER]
        assert query.floating_edge_ids == ()
        assert query.edges[0].selectivity == pytest.approx(1 / 25)

    def test_cross_join_syntax_equivalent(self, tpch):
        comma = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n, supplier s "
            "WHERE n.n_nationkey = s.s_nationkey GROUP BY n.n_name", tpch
        )
        cross = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n CROSS JOIN supplier s "
            "WHERE n.n_nationkey = s.s_nationkey GROUP BY n.n_name", tpch
        )
        database = micro_database(comma)
        assert execute(canonical_plan(comma), database) == execute(
            canonical_plan(cross), database
        )

    def test_unconstrained_cross_product_stays_true(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n, region r "
            "GROUP BY n.n_name",
            tpch,
        )
        assert repr(query.edges[0].predicate) == "True"
        assert query.edges[0].selectivity == 1.0

    def test_theta_predicate_merges_too(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n, supplier s "
            "WHERE n.n_nationkey < s.s_nationkey GROUP BY n.n_name",
            tpch,
        )
        assert query.floating_edge_ids == ()
        assert query.edges[0].selectivity == pytest.approx(1 / 3)

    def test_three_way_comma_from_executes(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM nation n, supplier s, customer c "
            "WHERE n.n_nationkey = s.s_nationkey AND n.n_nationkey = c.c_nationkey "
            "GROUP BY n.n_name",
            tpch,
        )
        assert all(e.op is OpKind.INNER for e in query.edges)
        database = micro_database(query)
        canonical = execute(canonical_plan(query), database)
        result = optimize(query)
        assert execute(result.plan.node, database) == canonical


class TestThreeValuedLogic:
    def test_is_null_keeps_only_null_rows(self, catalog, database):
        query = parse_query(
            "SELECT t.g, count(*) AS cnt FROM t WHERE t.x IS NULL GROUP BY t.g",
            catalog,
        )
        got = counts_by_group(execute(canonical_plan(query), database), "t.g", "cnt")
        assert got == {"a": 1, "b": 1}

    def test_is_not_null(self, catalog, database):
        query = parse_query(
            "SELECT t.g, count(*) AS cnt FROM t WHERE t.x IS NOT NULL GROUP BY t.g",
            catalog,
        )
        got = counts_by_group(execute(canonical_plan(query), database), "t.g", "cnt")
        assert got == {"a": 2, "b": 2}

    def test_not_filters_unknown(self, catalog, database):
        """NOT (NULL = 1) is UNKNOWN, so NULL-x rows must not survive."""
        query = parse_query(
            "SELECT t.g, count(*) AS cnt FROM t WHERE NOT t.x = 1 GROUP BY t.g",
            catalog,
        )
        got = counts_by_group(execute(canonical_plan(query), database), "t.g", "cnt")
        assert got == {"a": 1, "b": 1}  # ids 2 and 3 only

    def test_exists_null_never_matches(self, catalog, database):
        """u has x ∈ {1, 2, NULL, 1}: t rows with x ∈ {1, 2} survive, NULLs
        and x=3 do not (NULL = anything is UNKNOWN)."""
        query = parse_query(
            "SELECT t.g, count(*) AS cnt FROM t WHERE EXISTS "
            "(SELECT * FROM u WHERE u.x = t.x) GROUP BY t.g",
            catalog,
        )
        got = counts_by_group(execute(canonical_plan(query), database), "t.g", "cnt")
        assert got == {"a": 2, "b": 1}  # ids 1, 2, 5

    def test_not_exists_keeps_null_rows(self, catalog, database):
        """NOT EXISTS semantics: a NULL left key never finds a partner, so
        those rows are kept — unlike SQL NOT IN."""
        query = parse_query(
            "SELECT t.g, count(*) AS cnt FROM t WHERE NOT EXISTS "
            "(SELECT * FROM u WHERE u.x = t.x) GROUP BY t.g",
            catalog,
        )
        got = counts_by_group(execute(canonical_plan(query), database), "t.g", "cnt")
        assert got == {"a": 1, "b": 2}  # ids 3, 4, 6

    def test_optimized_plans_match_canonical(self, catalog, database):
        queries = [
            "SELECT t.g, count(*) AS cnt FROM t WHERE EXISTS "
            "(SELECT * FROM u WHERE u.x = t.x) GROUP BY t.g",
            "SELECT t.g, count(*) AS cnt FROM t WHERE NOT EXISTS "
            "(SELECT * FROM u WHERE u.x = t.x) GROUP BY t.g",
            "SELECT t.g, count(*) AS cnt FROM t WHERE t.id IN "
            "(SELECT u.id FROM u) AND t.x IS NOT NULL GROUP BY t.g",
            "SELECT t.g, count(*) AS cnt FROM t WHERE t.id NOT IN "
            "(SELECT u.id FROM u) AND NOT t.x = 1 GROUP BY t.g",
        ]
        for sql in queries:
            query = parse_query(sql, catalog)
            canonical = execute(canonical_plan(query), database)
            for strategy in ("dphyp", "ea-prune", "h2"):
                result = optimize(query, config=OptimizerConfig(strategy=strategy))
                assert execute(result.plan.node, database) == canonical, (sql, strategy)


class TestBindErrors:
    def test_nested_subquery_rejected(self, tpch):
        with pytest.raises(BindError, match="nested EXISTS/IN subqueries"):
            parse_query(
                "SELECT n.n_name, count(*) AS c FROM nation n WHERE EXISTS "
                "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey "
                "AND EXISTS (SELECT * FROM customer c WHERE c.c_nationkey = s.s_nationkey)) "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_exists_under_or_rejected(self, tpch):
        with pytest.raises(BindError, match="top-level WHERE conjuncts"):
            parse_query(
                "SELECT n.n_name, count(*) AS c FROM nation n "
                "WHERE n.n_regionkey = 1 OR EXISTS "
                "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_subquery_predicate_on_outer_only_rejected(self, tpch):
        with pytest.raises(BindError, match="belongs in the outer WHERE clause"):
            parse_query(
                "SELECT n.n_name, count(*) AS c FROM nation n WHERE EXISTS "
                "(SELECT * FROM supplier s WHERE n.n_regionkey = 1) "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_group_by_subquery_attr_rejected(self, tpch):
        with pytest.raises(BindError, match="unknown table or alias 's'"):
            parse_query(
                "SELECT s.s_name, count(*) AS c FROM nation n WHERE EXISTS "
                "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
                "GROUP BY s.s_name",
                tpch,
            )

    def test_in_needle_must_be_outer(self, tpch):
        with pytest.raises(BindError, match="unknown table or alias"):
            parse_query(
                "SELECT n.n_name, count(*) AS c FROM nation n WHERE "
                "s.s_suppkey IN (SELECT s.s_suppkey FROM supplier s) "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_in_requires_plain_column(self, tpch):
        with pytest.raises(BindError, match="exactly one plain column"):
            parse_query(
                "SELECT n.n_name, count(*) AS c FROM nation n WHERE "
                "n.n_nationkey IN (SELECT s.s_suppkey + 1 FROM supplier s) "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_cycle_equijoin_with_semijoin_rejected(self, tpch):
        with pytest.raises(BindError, match="all-inner-join"):
            parse_query(
                "SELECT c.c_name, count(*) AS cc FROM customer c "
                "JOIN orders o ON c.c_custkey = o.o_custkey "
                "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
                "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
                "WHERE c.c_nationkey = s.s_nationkey AND EXISTS "
                "(SELECT * FROM nation n WHERE n.n_nationkey = c.c_nationkey) "
                "GROUP BY c.c_name",
                tpch,
            )


class TestCacheServing:
    """PlanCache behaviour over the new operator surface (via the facade)."""

    EXISTS_SQL = (
        "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
        "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
        "GROUP BY n.n_name"
    )
    NOT_EXISTS_SQL = EXISTS_SQL.replace("WHERE EXISTS", "WHERE NOT EXISTS")

    def test_exists_and_not_exists_never_share_an_entry(self, tpch):
        from repro.api import PlannerSession

        session = PlannerSession(catalog=tpch)
        first = session.sql(self.EXISTS_SQL).optimize()
        assert not first.cache_hit
        anti = session.sql(self.NOT_EXISTS_SQL).optimize()
        assert not anti.cache_hit  # distinct problem, distinct entry
        again = session.sql(self.EXISTS_SQL).optimize()
        assert again.cache_hit
        assert again.cost == first.cost

    def test_right_join_cache_hit_serves_a_correct_plan(self, tpch):
        """Key equality across the RIGHT JOIN normalization is only safe if
        the rebound plan executes correctly under the new names."""
        from repro.api import PlannerSession

        right_sql = (
            "SELECT nn.n_name, count(*) AS cnt FROM supplier sup "
            "RIGHT JOIN nation nn ON sup.s_nationkey = nn.n_nationkey "
            "GROUP BY nn.n_name"
        )
        left_sql = (
            "SELECT n.n_name, count(*) AS cnt FROM nation n "
            "LEFT JOIN supplier s ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name"
        )
        session = PlannerSession(catalog=tpch)
        session.sql(right_sql).optimize()
        served = session.sql(left_sql).optimize()
        assert served.cache_hit
        query = session.parse(left_sql)
        database = micro_database(query)
        assert execute(served.plan, database) == execute(
            canonical_plan(query), database
        )


class TestCommaJoinPrecedence:
    """SQL precedence: JOIN binds tighter than the comma — join clauses
    extend the last FROM item only, and a WHERE equijoin crossing the
    boundary applies *above* the join group."""

    def test_joins_extend_the_last_from_item(self, tpch):
        query = parse_query(
            "SELECT n.n_name, count(*) AS cnt FROM region r, nation n "
            "RIGHT JOIN supplier s ON n.n_nationkey = s.s_nationkey "
            "WHERE r.r_regionkey = n.n_regionkey GROUP BY n.n_name",
            tpch,
        )
        root = query.tree
        # root: the cross edge, now carrying the merged WHERE equijoin —
        # evaluated above the outer join, as SQL demands.
        assert query.edges[root.edge_id].op is OpKind.INNER
        assert "r.r_regionkey" in query.edges[root.edge_id].predicate.attributes()
        # right child: the normalized (supplier-preserving) outerjoin.
        assert isinstance(root.right, TreeNode)
        assert query.edges[root.right.edge_id].op is OpKind.LEFT_OUTER
        assert root.right.left == TreeLeaf(query.vertex_of("s.s_suppkey"))

    def test_on_clause_cannot_reach_comma_tables(self, tpch):
        with pytest.raises(BindError, match="bind looser than JOIN"):
            parse_query(
                "SELECT n.n_name, count(*) AS cnt FROM region r, nation n "
                "JOIN supplier s ON r.r_regionkey = n.n_regionkey "
                "GROUP BY n.n_name",
                tpch,
            )

    def test_where_filters_above_the_outer_join(self, catalog, database):
        """u rows without a t partner are null-extended on t; the WHERE
        equijoin against the comma table v must then filter them out
        (NULL = 1 is UNKNOWN) — it must not slip below the outer join."""
        query = parse_query(
            "SELECT u.x, count(*) AS cnt FROM v, t "
            "RIGHT JOIN u ON t.x = u.x WHERE v.id = t.id GROUP BY u.x",
            catalog,
        )
        result = execute(canonical_plan(query), database)
        # only t.id = 1 (= v.id) survives: its x=1 matches u rows 1 and 4
        assert counts_by_group(result, "u.x", "cnt") == {1: 2}
        optimized = optimize(query)
        assert execute(optimized.plan.node, database) == result

    def test_three_table_subquery_conjunct_rejected(self, tpch):
        """Regression: a subquery conjunct spanning three subquery tables
        used to merge onto an edge that did not cover all of them."""
        with pytest.raises(BindError, match="exactly two comma-listed"):
            parse_query(
                "SELECT c.c_mktsegment, count(*) AS cnt FROM customer c "
                "WHERE EXISTS (SELECT * FROM nation n, supplier s, orders o "
                "WHERE n.n_nationkey + s.s_nationkey = o.o_custkey "
                "AND s.s_nationkey = n.n_nationkey "
                "AND o.o_custkey = c.c_custkey) GROUP BY c.c_mktsegment",
                tpch,
            )


class TestReviewRegressions:
    def test_constant_where_conjunct_rejected(self, tpch):
        """A table-free conjunct has no leaf to live on; pushing it to an
        arbitrary vertex gives wrong FULL OUTER JOIN results."""
        with pytest.raises(BindError, match="at least one table column"):
            parse_query(
                "SELECT n.n_name, count(*) AS cnt FROM nation n "
                "FULL JOIN supplier s ON n.n_nationkey = s.s_nationkey "
                "WHERE 1 = 0 GROUP BY n.n_name",
                tpch,
            )

    def test_unqualified_in_needle_binds_against_outer_scope(self, catalog):
        """The needle's column exists in both t and u: outer-scope
        resolution must win; only re-resolving it against the extended
        scope would flag it ambiguous."""
        query = parse_query(
            "SELECT g, count(*) AS cnt FROM t WHERE x IN "
            "(SELECT u.x FROM u) GROUP BY g",
            catalog,
        )
        assert [e.op for e in query.edges] == [OpKind.LEFT_SEMI]
        assert "t.x" in query.edges[0].predicate.attributes()
