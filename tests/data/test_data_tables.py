"""ColumnTable/Dataset units: views, conversion, resolution, stats."""

import pytest

from repro.algebra.relation import Relation
from repro.algebra.values import NULL
from repro.data.tables import ColumnTable, Dataset
from repro.exec import run_plan
from repro.plans.nodes import ScanNode
from repro.sql.catalog import Catalog

NATION = ColumnTable(
    "nation",
    {
        "n_nationkey": [0, 1, 2],
        "n_name": ["A", "B", "C"],
        "n_regionkey": [0, 0, NULL],
    },
)


def test_ragged_columns_rejected():
    with pytest.raises(ValueError):
        ColumnTable("bad", {"a": [1, 2], "b": [1]})


def test_to_relation_and_back():
    relation = NATION.to_relation()
    assert relation.attributes == ("n_nationkey", "n_name", "n_regionkey")
    assert len(relation.rows) == 3
    assert ColumnTable.from_relation("nation", relation).to_relation() == relation
    # The conversion is cached.
    assert NATION.to_relation() is relation


def test_view_qualifies_columns_without_copying():
    view = NATION.view(("ns.n_nationkey", "ns.n_name"))
    assert view.attributes == ("ns.n_nationkey", "ns.n_name")
    assert view.column("ns.n_name") is NATION.column("n_name")


def test_every_view_and_batch_shares_the_tables_columns():
    """One Column per value list for the life of the table: what a column
    caches (its lanes) is computed once, not per alias or per request —
    and only for the columns somebody computed on."""
    table = ColumnTable("t", {"k": [1, 2, NULL], "v": [1.5, 2.5, 3.5], "w": [7, 8, 9]})
    first, second = table.view(("a.k", "a.v", "a.w")), table.view(("b.k", "b.v", "b.w"))
    key = first.as_batch().column("a.k")
    assert key is second.as_batch().column("b.k") is table.as_batch().column("k")
    lanes = key.lanes()
    assert second.as_batch().column("b.k").lanes() is lanes
    assert lanes[1].tolist() == [True, True, False]
    # a NULL-free column carries no validity mask at all
    assert first.as_batch().column("a.v").lanes()[1] is None
    # and a column nothing computed on has no lanes
    assert table.as_batch().column("w")._lanes is None


def test_a_base_columns_dictionary_is_built_once_per_process(monkeypatch):
    """Key codes are cached on the shared column like lanes: every alias
    and every batch hands out the same codes object, and running a plan
    a second time builds no dictionary at all."""
    from repro.aggregates.calls import count_star
    from repro.aggregates.vector import AggItem, AggVector
    from repro.algebra.expressions import Attr, BinOp, Const
    from repro.exec import columns
    from repro.plans.nodes import GroupByNode, SelectNode

    table = ColumnTable("t", {"k": ["x", "y", NULL, "x"], "v": [1, 2, 3, 4]})
    first, second = table.view(("a.k", "a.v")), table.view(("b.k", "b.v"))
    codes = first.as_batch().column("a.k").key_codes()
    assert codes[0].tolist() == [0, 1, 2, 0] and list(codes[1]) == ["x", "y", NULL]
    assert second.as_batch().column("b.k").key_codes() is codes
    assert table.as_batch().column("k").key_codes() is table.as_batch().column("k").key_codes()
    # a column nothing keyed on has no dictionary
    assert table.as_batch().column("v")._codes is None

    built = []
    build = columns._codes_of_values
    monkeypatch.setattr(
        columns, "_codes_of_values", lambda values: built.append(values) or build(values)
    )
    fresh = ColumnTable("u", {"k": ["x", "y", NULL, "x", "y"], "s": ["p", "q", "p", "q", "p"]})
    scan = ScanNode("u", ("u.k", "u.s"))
    plan = GroupByNode(
        ("u.k",),
        AggVector([AggItem("n", count_star())]),
        SelectNode(BinOp("=", Attr("u.s"), Const("p")), scan),
    )
    database = {"u": fresh.view(("u.k", "u.s"))}
    once = run_plan(plan, database, executor="columnar")
    assert len(built) == 2  # u.s for the filter, u.k for the grouping
    again = run_plan(plan, {"u": fresh.view(("u.k", "u.s"))}, executor="columnar")
    assert len(built) == 2 and again == once
    assert once == run_plan(plan, database, executor="interpreter")


def test_view_unknown_attribute():
    with pytest.raises(KeyError):
        NATION.view(("ns.n_missing",))


def test_as_batch_feeds_both_executors():
    view = NATION.view(("ns.n_nationkey", "ns.n_name", "ns.n_regionkey"))
    plan = ScanNode("ns", view.attributes)
    database = {"ns": view}
    columnar = run_plan(plan, database, executor="columnar")
    interpreter = run_plan(plan, database, executor="interpreter")
    assert columnar == interpreter
    assert len(columnar.rows) == 3


def test_measured_stats():
    stats = NATION.stats(keys=(frozenset({"n_nationkey"}),))
    assert stats.cardinality == 3.0
    assert stats.distinct["n_regionkey"] == 2.0  # 0 and NULL
    assert stats.keys == (frozenset({"n_nationkey"}),)
    assert NATION.null_fraction("n_regionkey") == pytest.approx(1 / 3)


def test_dataset_register_stats():
    catalog = Catalog()
    Dataset({"nation": NATION}).register_stats(catalog)
    assert catalog.lookup("NATION").cardinality == 3.0


class FakeRel:
    def __init__(self, name, attributes, source=None):
        self.name = name
        self.attributes = tuple(attributes)
        self.source_table = source or name


def test_resolve_by_source_then_name_then_columns():
    dataset = Dataset({"nation": NATION})
    assert dataset.resolve(FakeRel("ns", ["ns.n_name"], source="nation")) is NATION
    assert dataset.resolve(FakeRel("nation", ["nation.n_name"])) is NATION
    # Aliased relation with no source: matched by bare column set.
    aliased = FakeRel("x", ["x.n_nationkey", "x.n_name", "x.n_regionkey"])
    assert dataset.resolve(aliased) is NATION
    with pytest.raises(KeyError):
        dataset.resolve(FakeRel("y", ["y.other"]))


def test_database_for_tpch_query():
    from repro.tpch.datagen import scaled_dataset
    from repro.tpch.queries import TPCH_QUERIES

    dataset = scaled_dataset(0.01)
    query = TPCH_QUERIES["Ex"](0.01)
    database = dataset.database_for(query)
    assert set(database) == {rel.name for rel in query.relations}
    for rel in query.relations:
        assert database[rel.name].attributes == tuple(rel.attributes)
