"""Tests for the random workload generator and micro-data instantiation."""

import random

import pytest

from repro.query.tree import tree_leaves, tree_operators
from repro.rewrites.pushdown import OpKind
from repro.workload import WorkloadConfig, generate_database, generate_query


class TestGenerateQuery:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_structure(self, n):
        rng = random.Random(123 + n)
        query = generate_query(n, rng)
        assert len(query.relations) == n
        assert len(query.edges) == n - 1
        if n > 1:
            assert tree_leaves(query.tree) == (1 << n) - 1

    def test_determinism(self):
        q1 = generate_query(5, random.Random(9))
        q2 = generate_query(5, random.Random(9))
        assert repr(q1) == repr(q2)
        assert [repr(e.predicate) for e in q1.edges] == [repr(e.predicate) for e in q2.edges]

    def test_group_attrs_are_visible(self):
        """Grouping attributes must survive semijoins/antijoins/groupjoins."""
        for seed in range(30):
            rng = random.Random(seed)
            query = generate_query(rng.randint(2, 6), rng)
            hidden = 0
            for node in tree_operators(query.tree):
                edge = query.edge(node.edge_id)
                if edge.op in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI, OpKind.GROUPJOIN):
                    hidden |= tree_leaves(node.right)
            for attr in query.group_by:
                vertex = query.vertex_of(attr)
                assert not hidden & (1 << vertex), f"seed {seed}: {attr} hidden"

    def test_inner_only_config(self):
        config = WorkloadConfig(inner_only=True)
        for seed in range(10):
            query = generate_query(5, random.Random(seed), config)
            assert all(edge.op is OpKind.INNER for edge in query.edges)

    def test_every_relation_has_declared_key(self):
        query = generate_query(4, random.Random(3))
        for rel in query.relations:
            assert rel.all_keys()

    def test_aggregates_reference_known_attributes(self):
        for seed in range(20):
            rng = random.Random(seed)
            query = generate_query(rng.randint(2, 6), rng)
            for item in query.aggregates:
                for attr in item.call.attributes():
                    query.vertices_of([attr])  # raises KeyError if unknown


class TestGenerateDatabase:
    def test_schema_and_sizes(self):
        rng = random.Random(5)
        query = generate_query(4, rng)
        db = generate_database(query, rng)
        assert set(db.keys()) == {rel.name for rel in query.relations}
        for rel in query.relations:
            data = db[rel.name]
            assert set(data.attributes) == set(rel.attributes)
            assert 2 <= len(data) <= 5

    def test_declared_keys_hold_in_data(self):
        """The optimizer trusts key declarations; the data must honour them."""
        for seed in range(20):
            rng = random.Random(seed)
            query = generate_query(rng.randint(1, 5), rng)
            db = generate_database(query, rng)
            for rel in query.relations:
                data = db[rel.name]
                for key in rel.all_keys():
                    values = [row.values_for(sorted(key)) for row in data]
                    assert len(values) == len(set(values)), f"key {key} violated"


class TestSqlWorkloadMode:
    """The mixed-operator SQL mode: parser round-trip + binder properties."""

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro.sql import Catalog

        return Catalog.from_tpch()

    def test_deterministic_per_seed(self):
        from repro.workload import generate_sql_workload

        first = generate_sql_workload(20, random.Random(11))
        second = generate_sql_workload(20, random.Random(11))
        assert first == second

    def test_unique_shapes_cycle(self):
        from repro.workload import generate_sql_workload

        batch = generate_sql_workload(30, random.Random(3), unique=5)
        assert len(batch) == 30
        assert len(set(batch)) <= 5

    def test_every_statement_parses_and_binds(self, tpch):
        """Property: 200 random statements all round-trip parser + binder."""
        from repro.sql import parse_query
        from repro.workload import generate_sql_query

        rng = random.Random(1234)
        for _ in range(200):
            sql = generate_sql_query(rng)
            query = parse_query(sql, tpch)  # must not raise
            assert query.relations and query.aggregates.names()

    def test_operator_coverage(self, tpch):
        """A modest batch must exercise the full operator surface."""
        from repro.rewrites.pushdown import OpKind
        from repro.sql import parse_query
        from repro.workload import generate_sql_workload

        rng = random.Random(99)
        seen = set()
        for sql in generate_sql_workload(120, rng):
            for edge in parse_query(sql, tpch).edges:
                seen.add(edge.op)
        assert {
            OpKind.INNER,
            OpKind.LEFT_OUTER,
            OpKind.FULL_OUTER,
            OpKind.LEFT_SEMI,
            OpKind.LEFT_ANTI,
        } <= seen

    def test_syntax_coverage(self):
        """The emitted text uses the new SQL forms, not just the old ones."""
        from repro.workload import generate_sql_workload

        text = " ".join(generate_sql_workload(120, random.Random(5)))
        for construct in ("NOT EXISTS (", "EXISTS (", " IN (SELECT", "RIGHT JOIN",
                          "IS NULL", "IS NOT NULL", "NOT "):
            assert construct in text, construct

    def test_optimized_matches_canonical_execution(self, tpch):
        """End-to-end property: optimizer output equals canonical semantics
        on micro databases, for a sample of generated statements."""
        from repro.exec import execute
        from repro.optimizer import optimize
        from repro.query.canonical import canonical_plan
        from repro.sql import parse_query
        from repro.tpch import micro_database
        from repro.workload import generate_sql_query

        rng = random.Random(4242)
        for _ in range(25):
            sql = generate_sql_query(rng)
            query = parse_query(sql, tpch)
            database = micro_database(query)
            canonical = execute(canonical_plan(query), database)
            result = optimize(query)
            assert execute(result.plan.node, database) == canonical, sql
