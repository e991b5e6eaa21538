"""Per-operator columnar units, each checked against the interpreter.

A test that takes the ``both`` fixture (``conftest.py``) runs once per
scan source: a relation, a base column table, and late takes of one.
"""

import numpy as np
import pytest

from repro.aggregates.calls import avg, count, count_star, max_, min_, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Case, Const, IsNull, Logical, Not
from repro.algebra.relation import Relation
from repro.algebra.values import NULL
from repro.exec import run_plan
from repro.exec.columns import Batch, Column
from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.rewrites.pushdown import OpKind


L = Relation.from_tuples(
    ("l.k", "l.v"), [(1, 10), (2, 20), (2, 21), (3, NULL), (NULL, 40)]
)
R = Relation.from_tuples(
    ("r.k", "r.w"), [(2, 200), (2, 201), (3, 300), (4, 400), (NULL, 500)]
)
DB = {"L": L, "R": R}

SCAN_L = ScanNode("L", ("l.k", "l.v"))
SCAN_R = ScanNode("R", ("r.k", "r.w"))
KEY_EQ = BinOp("=", Attr("l.k"), Attr("r.k"))


def test_scan_roundtrip(both):
    assert both(SCAN_L, DB) == L


def test_scan_rejects_schema_mismatch():
    bad = ScanNode("L", ("l.k", "l.other"))
    with pytest.raises(ValueError):
        run_plan(bad, DB, executor="columnar")


def test_filter_comparison(both):
    plan = SelectNode(BinOp(">", Attr("l.v"), Const(15)), SCAN_L)
    result = both(plan, DB)
    assert len(result.rows) == 3  # the NULL comparison is UNKNOWN, filtered out


def test_filter_keeps_batch_when_all_pass(both):
    plan = SelectNode(BinOp(">=", Attr("r.w"), Const(0)), SCAN_R)
    assert both(plan, DB) == R


def test_project_and_map(both):
    plan = ProjectNode(
        ("l.k", "double"),
        MapNode((("double", BinOp("*", Attr("l.v"), Const(2))),), SCAN_L),
    )
    result = both(plan, DB)
    assert {row["double"] for row in result.rows} == {20, 40, 42, NULL, 80}


@pytest.mark.parametrize(
    "kind",
    [OpKind.INNER, OpKind.LEFT_OUTER, OpKind.FULL_OUTER, OpKind.LEFT_SEMI, OpKind.LEFT_ANTI],
)
def test_hash_join_kinds(both, kind):
    plan = JoinNode(kind, KEY_EQ, SCAN_L, SCAN_R)
    both(plan, DB)


def test_hash_join_with_residual(both):
    pred = Logical("and", (KEY_EQ, BinOp(">", Attr("r.w"), Const(200))))
    plan = JoinNode(OpKind.INNER, pred, SCAN_L, SCAN_R)
    result = both(plan, DB)
    assert all(row["r.w"] > 200 for row in result.rows)


def test_nested_loop_theta_join(both):
    pred = BinOp("<", Attr("l.v"), Attr("r.w"))
    plan = JoinNode(OpKind.INNER, pred, SCAN_L, SCAN_R)
    both(plan, DB)


def test_groupjoin(both):
    vector = AggVector([AggItem("cnt", count_star()), AggItem("total", sum_(Attr("r.w")))])
    plan = JoinNode(OpKind.GROUPJOIN, KEY_EQ, SCAN_L, SCAN_R, groupjoin_vector=vector)
    result = both(plan, DB)
    by_key = {row["l.v"]: row["cnt"] for row in result.rows}
    assert by_key[20] == 2 and by_key[10] == 0


def test_group_by_all_aggregates(both):
    vector = AggVector(
        [
            AggItem("n", count_star()),
            AggItem("nv", count(Attr("l.v"))),
            AggItem("s", sum_(Attr("l.v"))),
            AggItem("lo", min_(Attr("l.v"))),
            AggItem("hi", max_(Attr("l.v"))),
            AggItem("mean", avg(Attr("l.v"))),
        ]
    )
    plan = GroupByNode(("l.k",), vector, SCAN_L)
    result = both(plan, DB)
    rows = {row["l.k"]: row for row in result.rows}
    assert rows[3]["s"] is NULL and rows[3]["n"] == 1 and rows[3]["nv"] == 0
    assert rows[2]["mean"] == 20.5


def test_group_by_distinct(both):
    dup = Relation.from_tuples(("t.g", "t.x"), [(1, 5), (1, 5), (1, 6), (2, 5)])
    vector = AggVector(
        [AggItem("d", count(Attr("t.x"), distinct=True)), AggItem("sd", sum_(Attr("t.x"), distinct=True))]
    )
    plan = GroupByNode(("t.g",), vector, ScanNode("T", ("t.g", "t.x")))
    result = both(plan, {"T": dup})
    rows = {row["t.g"]: row for row in result.rows}
    assert rows[1]["d"] == 2 and rows[1]["sd"] == 11


def test_group_by_post_expressions(both):
    vector = AggVector([AggItem("s", sum_(Attr("l.v"))), AggItem("n", count_star())])
    post = (("l.k", Attr("l.k")), ("scaled", BinOp("*", Attr("s"), Const(10))))
    plan = GroupByNode(("l.k",), vector, SCAN_L, post=post)
    result = both(plan, DB)
    assert set(result.attributes) == {"l.k", "scaled"}


def test_expression_kitchen_sink_filter(both):
    pred = Logical(
        "or",
        (
            Logical("and", (Not(IsNull(Attr("l.v"))), BinOp("<", Attr("l.v"), Const(21)))),
            BinOp(
                "=",
                Case(IsNull(Attr("l.k")), Const(1), Const(0)),
                Const(1),
            ),
        ),
    )
    plan = SelectNode(pred, SCAN_L)
    result = both(plan, DB)
    assert len(result.rows) == 3


def test_division_by_zero_is_null(both):
    t = Relation.from_tuples(("t.a", "t.b"), [(10, 2), (10, 0), (NULL, 2)])
    plan = MapNode((("q", BinOp("/", Attr("t.a"), Attr("t.b"))),), ScanNode("T", ("t.a", "t.b")))
    result = both(plan, {"T": t})
    assert [row["q"] for row in result.rows] == [5.0, NULL, NULL]


def test_limit_truncates_identically(both):
    plan = JoinNode(OpKind.INNER, KEY_EQ, SCAN_L, SCAN_R)
    full = both(plan, DB)
    capped = both(plan, DB, limit=2)
    assert len(capped.rows) == 2
    assert capped.rows == full.rows[:2]
    assert both(plan, DB, limit=0).rows == []


def test_limit_rejects_negative():
    with pytest.raises(ValueError):
        run_plan(SCAN_L, DB, limit=-1)


def test_unknown_executor_rejected():
    with pytest.raises(ValueError):
        run_plan(SCAN_L, DB, executor="gpu")


# ---------------------------------------------------------------------------
# late takes
# ---------------------------------------------------------------------------

def _vector(rows):
    return np.asarray(rows, dtype=np.intp)


def test_take_is_late_and_composes():
    base = Column([10, 20, NULL, 40, 50])
    taken = base.take(_vector([4, 2, 2, 0])).take(_vector([1, 0, 3]))
    assert taken._parent is base and taken._values is None  # nothing gathered yet
    assert len(taken) == 3
    assert taken.values == [NULL, 50, 10]
    assert all(type(v) is int for v in taken.values if v is not NULL)
    data, valid = taken.lanes()
    assert data.tolist() == [0.0, 50.0, 10.0] and valid.tolist() == [False, True, True]


def test_padded_takes_compose_and_keep_their_fills():
    base = Column([1, 2, 3])
    padded = base.take_padded(_vector([0, -1, 2]), NULL)
    assert padded.values == [1, NULL, 3]
    assert padded.take(_vector([1, 1, 2])).values == [NULL, NULL, 3]
    assert padded.take_padded(_vector([-1, 1, 0]), NULL).values == [NULL, NULL, 1]
    # another fill cannot share the index vector: the inner NULL stays NULL
    assert padded.take_padded(_vector([-1, 1, 0]), 0).values == [0, NULL, 1]
    assert Column([]).take_padded(_vector([-1, -1]), 7).values == [7, 7]
    data, valid = base.take_padded(_vector([0, -1, 2]), 0).lanes()
    assert data.tolist() == [1.0, 0.0, 3.0] and valid is None
    data, valid = padded.lanes()
    assert data.tolist() == [1.0, 0.0, 3.0] and valid.tolist() == [True, False, True]


def test_a_batch_composes_a_shared_index_vector_once():
    relation = Relation.from_tuples(("t.a", "t.b"), [(1, "x"), (2, "y"), (3, "z")])
    once = Batch.from_relation(relation).take(_vector([2, 0, 1]))
    twice = once.take(_vector([0, 0, 2]))
    assert twice.column("t.a")._index is twice.column("t.b")._index
    assert twice.to_relation().rows == [relation.rows[2], relation.rows[2], relation.rows[1]]
    assert twice.head(2).to_relation().rows == [relation.rows[2], relation.rows[2]]
