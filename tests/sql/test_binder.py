"""Tests for the SQL binder: name resolution, tree building, selectivities."""

import pytest

from repro.exec import execute
from repro.optimizer import OptimizerConfig, optimize
from repro.query.canonical import canonical_plan
from repro.rewrites.pushdown import OpKind
from repro.sql import BindError, Catalog, TableStats, parse_query
from repro.tpch import micro_database


@pytest.fixture
def catalog():
    return Catalog.from_tpch()


EX_SQL = """
  SELECT ns.n_name, nc.n_name, count(*) AS cnt
  FROM nation ns
  JOIN supplier s ON ns.n_nationkey = s.s_nationkey
  FULL JOIN nation nc ON ns.n_nationkey = nc.n_nationkey
  JOIN customer c ON nc.n_nationkey = c.c_nationkey
  GROUP BY ns.n_name, nc.n_name
"""


class TestBinding:
    def test_ex_query_binds(self, catalog):
        query = parse_query(EX_SQL, catalog)
        assert len(query.relations) == 4
        assert query.edges[1].op is OpKind.FULL_OUTER
        assert query.group_by == ("ns.n_name", "nc.n_name")

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError):
            parse_query("SELECT count(*) FROM nowhere", catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            parse_query(
                "SELECT count(*) FROM nation n GROUP BY n.bogus", catalog
            )

    def test_ambiguous_column(self, catalog):
        with pytest.raises(BindError):
            parse_query(
                "SELECT count(*) FROM nation a JOIN nation b ON a.n_nationkey = b.n_nationkey "
                "GROUP BY n_name",
                catalog,
            )

    def test_unqualified_column_resolution(self, catalog):
        query = parse_query(
            "SELECT count(*) FROM customer JOIN orders ON c_custkey = o_custkey "
            "GROUP BY c_nationkey",
            catalog,
        )
        assert query.group_by == ("customer.c_nationkey",)

    def test_duplicate_alias_rejected(self, catalog):
        with pytest.raises(BindError):
            parse_query(
                "SELECT count(*) FROM nation x JOIN supplier x ON x.n_nationkey = x.s_nationkey",
                catalog,
            )

    def test_select_column_requires_group_by(self, catalog):
        with pytest.raises(BindError):
            parse_query("SELECT n_name, count(*) FROM nation", catalog)

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            parse_query(
                "SELECT count(*) FROM nation WHERE sum(n_nationkey) = 1 GROUP BY n_name",
                catalog,
            )


class TestWhereClassification:
    def test_local_predicates_assigned(self, catalog):
        query = parse_query(
            "SELECT count(*) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            "WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 1169 "
            "GROUP BY c.c_nationkey",
            catalog,
        )
        assert set(query.local_predicates) == {0, 1}
        # equality with constant: 1/5 for the 5 market segments
        assert query.local_predicates[0][1] == pytest.approx(0.2)
        # range predicate: the 1/3 default
        assert query.local_predicates[1][1] == pytest.approx(1 / 3)

    def test_cycle_predicate_becomes_floating_edge(self, catalog):
        query = parse_query(
            "SELECT count(*) FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "WHERE c.c_nationkey = s.s_nationkey "
            "GROUP BY c.c_nationkey",
            catalog,
        )
        assert len(query.floating_edge_ids) == 1

    def test_multi_table_non_equality_rejected(self, catalog):
        with pytest.raises(BindError):
            parse_query(
                "SELECT count(*) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
                "WHERE c.c_acctbal < o.o_totalprice GROUP BY c.c_nationkey",
                catalog,
            )

    def test_join_selectivity_uses_distinct_counts(self, catalog):
        query = parse_query(
            "SELECT count(*) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            "GROUP BY c.c_nationkey",
            catalog,
        )
        assert query.edges[0].selectivity == pytest.approx(1 / 150_000)


class TestCustomCatalog:
    def test_register_and_bind(self):
        catalog = Catalog()
        catalog.register(
            TableStats("t", ("id", "v"), 100.0, {"id": 100.0}, (frozenset({"id"}),))
        )
        catalog.register(TableStats("u", ("id", "w"), 50.0, {"id": 50.0}))
        query = parse_query(
            "SELECT sum(t.v) FROM t JOIN u ON t.id = u.id GROUP BY t.id", catalog
        )
        assert len(query.relations) == 2
        assert query.relations[0].duplicate_free


class TestSqlEndToEnd:
    def test_parsed_ex_optimizes_and_executes(self, catalog):
        query = parse_query(EX_SQL, catalog)
        database = micro_database(query)
        # alias names used in SQL must map onto micro tables
        canonical = execute(canonical_plan(query), database)
        for strategy in ("dphyp", "ea-prune", "h2"):
            result = optimize(query, config=OptimizerConfig(strategy=strategy))
            assert execute(result.plan.node, database) == canonical

    def test_parsed_ex_shows_the_paper_gain(self, catalog):
        query = parse_query(EX_SQL, catalog)
        lazy = optimize(query, config=OptimizerConfig(strategy="dphyp"))
        eager = optimize(query)
        assert eager.cost < lazy.cost * 1e-3
