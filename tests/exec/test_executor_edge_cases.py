"""Satellite: executor-equivalence edge cases.

NULL join keys under semi/anti/outer joins, predicates evaluating to
UNKNOWN, empty inputs, and duplicate-heavy group-bys — each asserted
both against the interpreter (row-set equality, over each scan source
of the ``both`` fixture) and against the SQL semantics directly.
"""

import pytest

from repro.aggregates.calls import avg, count, count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Const, IsNull, Logical, Not
from repro.algebra.relation import Relation
from repro.algebra.values import NULL, sql_compare
from repro.exec import run_plan
from repro.exec.columns import Batch
from repro.exec.vectoreval import eval_tri
from repro.plans.nodes import GroupByNode, JoinNode, ScanNode, SelectNode
from repro.rewrites.pushdown import OpKind

SCAN_L = ScanNode("L", ("l.k",))
SCAN_R = ScanNode("R", ("r.k",))
KEY_EQ = BinOp("=", Attr("l.k"), Attr("r.k"))

ALL_JOIN_KINDS = [
    OpKind.INNER,
    OpKind.LEFT_OUTER,
    OpKind.FULL_OUTER,
    OpKind.LEFT_SEMI,
    OpKind.LEFT_ANTI,
]


# ---------------------------------------------------------------------------
# NULL join keys
# ---------------------------------------------------------------------------

NULL_L = Relation.from_tuples(("l.k",), [(1,), (NULL,), (2,), (NULL,)])
NULL_R = Relation.from_tuples(("r.k",), [(NULL,), (1,), (3,)])
NULL_DB = {"L": NULL_L, "R": NULL_R}


def test_null_keys_never_match_inner(both):
    result = both(JoinNode(OpKind.INNER, KEY_EQ, SCAN_L, SCAN_R), NULL_DB)
    # Only 1=1 matches; NULL=NULL is UNKNOWN, not TRUE.
    assert [(r["l.k"], r["r.k"]) for r in result.rows] == [(1, 1)]


def test_null_keys_semi_join(both):
    result = both(JoinNode(OpKind.LEFT_SEMI, KEY_EQ, SCAN_L, SCAN_R), NULL_DB)
    assert [r["l.k"] for r in result.rows] == [1]


def test_null_keys_anti_join_keeps_null_rows(both):
    # NOT EXISTS semantics: a NULL-keyed left row has no match, so it stays.
    result = both(JoinNode(OpKind.LEFT_ANTI, KEY_EQ, SCAN_L, SCAN_R), NULL_DB)
    assert [r["l.k"] for r in result.rows] == [NULL, 2, NULL]


def test_null_keys_left_outer_pads_null_rows(both):
    result = both(JoinNode(OpKind.LEFT_OUTER, KEY_EQ, SCAN_L, SCAN_R), NULL_DB)
    assert [(r["l.k"], r["r.k"]) for r in result.rows] == [
        (1, 1),
        (NULL, NULL),
        (2, NULL),
        (NULL, NULL),
    ]


def test_null_keys_full_outer_emits_both_sides(both):
    result = both(JoinNode(OpKind.FULL_OUTER, KEY_EQ, SCAN_L, SCAN_R), NULL_DB)
    # 4 left rows (one matched) + 2 unmatched right rows appended at the end.
    assert len(result.rows) == 6
    assert [(r["l.k"], r["r.k"]) for r in result.rows[-2:]] == [(NULL, NULL), (NULL, 3)]


def test_null_in_multi_key_conjunction(both):
    left = Relation.from_tuples(("l.a", "l.b"), [(1, 1), (1, NULL), (NULL, 2)])
    right = Relation.from_tuples(("r.a", "r.b"), [(1, 1), (1, 2), (NULL, 2)])
    pred = Logical(
        "and",
        (BinOp("=", Attr("l.a"), Attr("r.a")), BinOp("=", Attr("l.b"), Attr("r.b"))),
    )
    plan = JoinNode(
        OpKind.INNER,
        pred,
        ScanNode("L", ("l.a", "l.b")),
        ScanNode("R", ("r.a", "r.b")),
    )
    result = both(plan, {"L": left, "R": right})
    assert [(r["l.a"], r["l.b"]) for r in result.rows] == [(1, 1)]


def test_a_nan_key_never_pairs_not_even_with_itself(tmp_path):
    # A CSV ``nan`` cell loads as one float object, and both views of a
    # self-join share it: a dictionary matches it by identity, while
    # SQL ``=`` — NaN = NaN — is FALSE.
    from repro.data.loader import load_directory

    (tmp_path / "t.csv").write_text("x,y\nnan,1\n2.5,2\n")
    table = load_directory(str(tmp_path)).table("t")
    database = {"A": table.view(("a.x", "a.y")), "B": table.view(("b.x", "b.y"))}
    scans = ScanNode("A", ("a.x", "a.y")), ScanNode("B", ("b.x", "b.y"))
    keys = BinOp("=", Attr("a.x"), Attr("b.x"))
    for predicate in (
        keys,
        Logical("and", (keys, BinOp("=", Attr("a.y"), Attr("b.y")))),
        Logical("and", (keys, BinOp("<=", Attr("a.y"), Attr("b.y")))),
    ):
        for kind, expected in (
            (OpKind.INNER, [["2.5", "2", "2.5", "2"]]),
            (OpKind.LEFT_SEMI, [["2.5", "2"]]),
            (OpKind.LEFT_ANTI, [["nan", "1"]]),
        ):
            plan = JoinNode(kind, predicate, *scans)
            for executor in ("columnar", "interpreter"):
                rows = run_plan(plan, database, executor=executor).rows
                # NaN != NaN: the rows are compared spelled out
                assert [[repr(row[a]) for a in plan.attributes] for row in rows] == expected


# ---------------------------------------------------------------------------
# UNKNOWN three-valued logic
# ---------------------------------------------------------------------------

def test_unknown_is_not_false_for_not(both):
    # NOT (NULL > 0) is UNKNOWN, not TRUE: the row must NOT pass.
    t = Relation.from_tuples(("t.x",), [(NULL,), (-1,), (5,)])
    plan = SelectNode(Not(BinOp(">", Attr("t.x"), Const(0))), ScanNode("T", ("t.x",)))
    result = both(plan, {"T": t})
    assert [r["t.x"] for r in result.rows] == [-1]


def test_kleene_or_rescues_unknown(both):
    # UNKNOWN OR TRUE = TRUE: rows with NULL x but matching y still pass.
    t = Relation.from_tuples(("t.x", "t.y"), [(NULL, 1), (NULL, 0), (3, 0)])
    pred = Logical("or", (BinOp(">", Attr("t.x"), Const(0)), BinOp("=", Attr("t.y"), Const(1))))
    plan = SelectNode(pred, ScanNode("T", ("t.x", "t.y")))
    result = both(plan, {"T": t})
    assert [(r["t.x"], r["t.y"]) for r in result.rows] == [(NULL, 1), (3, 0)]


def test_kleene_and_unknown_poisons_true(both):
    t = Relation.from_tuples(("t.x", "t.y"), [(NULL, 1), (2, 1)])
    pred = Logical("and", (BinOp(">", Attr("t.x"), Const(0)), BinOp("=", Attr("t.y"), Const(1))))
    plan = SelectNode(pred, ScanNode("T", ("t.x", "t.y")))
    result = both(plan, {"T": t})
    assert [r["t.x"] for r in result.rows] == [2]


def test_is_null_is_two_valued(both):
    t = Relation.from_tuples(("t.x",), [(NULL,), (0,), (1,)])
    plan = SelectNode(IsNull(Attr("t.x")), ScanNode("T", ("t.x",)))
    assert len(both(plan, {"T": t}).rows) == 1
    plan = SelectNode(Not(IsNull(Attr("t.x"))), ScanNode("T", ("t.x",)))
    assert len(both(plan, {"T": t}).rows) == 2


def test_unknown_residual_on_hash_join(both):
    # Hash keys match but the residual is UNKNOWN: the pair must drop.
    left = Relation.from_tuples(("l.k", "l.v"), [(1, NULL), (1, 5)])
    right = Relation.from_tuples(("r.k",), [(1,)])
    pred = Logical("and", (KEY_EQ, BinOp(">", Attr("l.v"), Const(0))))
    plan = JoinNode(OpKind.INNER, pred, ScanNode("L", ("l.k", "l.v")), SCAN_R)
    result = both(plan, {"L": left, "R": right})
    assert [r["l.v"] for r in result.rows] == [5]


# ---------------------------------------------------------------------------
# empty inputs
# ---------------------------------------------------------------------------

EMPTY_L = Relation(("l.k",))
EMPTY_R = Relation(("r.k",))
SOME_L = Relation.from_tuples(("l.k",), [(1,), (2,)])
SOME_R = Relation.from_tuples(("r.k",), [(2,), (3,)])


@pytest.mark.parametrize("kind", ALL_JOIN_KINDS)
def test_empty_left_input(both, kind):
    plan = JoinNode(kind, KEY_EQ, SCAN_L, SCAN_R)
    result = both(plan, {"L": EMPTY_L, "R": SOME_R})
    if kind is OpKind.FULL_OUTER:
        assert len(result.rows) == 2  # every right row padded
    else:
        assert result.rows == []


@pytest.mark.parametrize("kind", ALL_JOIN_KINDS)
def test_empty_right_input(both, kind):
    plan = JoinNode(kind, KEY_EQ, SCAN_L, SCAN_R)
    result = both(plan, {"L": SOME_L, "R": EMPTY_R})
    if kind in (OpKind.LEFT_OUTER, OpKind.FULL_OUTER, OpKind.LEFT_ANTI):
        assert len(result.rows) == 2
    else:
        assert result.rows == []


@pytest.mark.parametrize("kind", ALL_JOIN_KINDS)
def test_both_inputs_empty(both, kind):
    plan = JoinNode(kind, KEY_EQ, SCAN_L, SCAN_R)
    assert both(plan, {"L": EMPTY_L, "R": EMPTY_R}).rows == []


def test_empty_groupjoin_left_side(both):
    vector = AggVector([AggItem("cnt", count_star())])
    plan = JoinNode(OpKind.GROUPJOIN, KEY_EQ, SCAN_L, SCAN_R, groupjoin_vector=vector)
    assert both(plan, {"L": EMPTY_L, "R": SOME_R}).rows == []


def test_group_by_empty_input(both):
    vector = AggVector([AggItem("s", sum_(Attr("l.k")))])
    plan = GroupByNode(("l.k",), vector, SCAN_L)
    assert both(plan, {"L": EMPTY_L}).rows == []


def test_filter_on_empty_input(both):
    plan = SelectNode(BinOp(">", Attr("l.k"), Const(0)), SCAN_L)
    assert both(plan, {"L": EMPTY_L}).rows == []


# ---------------------------------------------------------------------------
# duplicate-heavy group-by
# ---------------------------------------------------------------------------

def test_duplicate_heavy_group_by(both):
    # 200 rows over 3 group keys, duplicated values, NULL keys and values.
    tuples = []
    for i in range(200):
        key = (i * 7) % 3 if i % 11 else NULL
        value = (i % 5) or NULL
        tuples.append((key, value))
    t = Relation.from_tuples(("t.g", "t.x"), tuples)
    vector = AggVector(
        [
            AggItem("n", count_star()),
            AggItem("nx", count(Attr("t.x"))),
            AggItem("dx", count(Attr("t.x"), distinct=True)),
            AggItem("s", sum_(Attr("t.x"))),
            AggItem("sd", sum_(Attr("t.x"), distinct=True)),
            AggItem("m", avg(Attr("t.x"))),
        ]
    )
    plan = GroupByNode(("t.g",), vector, ScanNode("T", ("t.g", "t.x")))
    result = both(plan, {"T": t})
    assert sum(row["n"] for row in result.rows) == 200
    # NULL group keys collapse into one group.
    assert sum(1 for row in result.rows if row["t.g"] is NULL) == 1


def test_group_key_numeric_unification(both):
    # 1 and 1.0 are the same group (group_key).
    t = Relation.from_tuples(("t.g", "t.x"), [(1, 10), (1.0, 20), (2, 30)])
    vector = AggVector([AggItem("s", sum_(Attr("t.x")))])
    plan = GroupByNode(("t.g",), vector, ScanNode("T", ("t.g", "t.x")))
    result = both(plan, {"T": t})
    assert len(result.rows) == 2
    assert sorted(row["s"] for row in result.rows) == [30, 30]


def test_join_key_numeric_unification(both):
    # A float 2.0 key hash-matches an int 2 key, as SQL equality demands.
    left = Relation.from_tuples(("l.k",), [(2.0,), (3,)])
    right = Relation.from_tuples(("r.k",), [(2,), (3.5,)])
    result = both(JoinNode(OpKind.INNER, KEY_EQ, SCAN_L, SCAN_R), {"L": left, "R": right})
    assert [(r["l.k"], r["r.k"]) for r in result.rows] == [(2.0, 2)]


def test_keys_float64_cannot_tell_apart_stay_apart(both):
    # 2**53 and 2**53 + 1 are one float64: compared on lanes they would
    # join and group together.  Such a column is not exact, so it keys
    # through its dictionary of python values.
    big = 2**53
    left = Relation.from_tuples(("l.k",), [(big,), (big + 1,), (big + 1,), (3,)])
    right = Relation.from_tuples(("r.k",), [(big + 1,), (big,), (3.0,)])
    database = {"L": left, "R": right}
    for kind in ALL_JOIN_KINDS:
        both(JoinNode(kind, KEY_EQ, SCAN_L, SCAN_R), database)
    inner = run_plan(JoinNode(OpKind.INNER, KEY_EQ, SCAN_L, SCAN_R), database, executor="columnar")
    assert [(r["l.k"], r["r.k"]) for r in inner.rows] == [
        (big, big),
        (big + 1, big + 1),
        (big + 1, big + 1),
        (3, 3.0),
    ]
    grouped = both(GroupByNode(("l.k",), AggVector([AggItem("n", count_star())]), SCAN_L), database)
    assert {r["l.k"]: r["n"] for r in grouped.rows} == {big: 1, big + 1: 2, 3: 1}


# ---------------------------------------------------------------------------
# comparisons float64 cannot decide
# ---------------------------------------------------------------------------

BIG = 2**53
BIG_PAIR = Relation.from_tuples(("t.a", "t.b"), [(BIG, BIG + 1), (3, 3)])
#: per operator, ``a <op> b`` on the two rows of BIG_PAIR
BIG_PAIR_VERDICTS = {
    "=": [False, True],
    "<>": [True, False],
    "<": [True, False],
    "<=": [True, True],
    ">": [False, False],
    ">=": [False, True],
}


@pytest.mark.parametrize("op", sorted(BIG_PAIR_VERDICTS))
def test_comparison_of_ints_float64_cannot_tell_apart(both, op):
    # 2**53 and 2**53 + 1 are one float64: a comparison on lanes calls
    # them equal.  Neither two such columns nor a constant that large
    # may ride lanes; they compare as the python ints they are.
    batch = Batch.from_relation(BIG_PAIR)
    a, b = Attr("t.a"), Attr("t.b")
    for expr, expected in (
        (BinOp(op, a, b), BIG_PAIR_VERDICTS[op]),
        (BinOp(op, a, Const(BIG + 1)), [BIG_PAIR_VERDICTS[op][0], sql_compare(op, 3, BIG + 1)]),
        (BinOp(op, Const(BIG), b), [BIG_PAIR_VERDICTS[op][0], sql_compare(op, BIG, 3)]),
    ):
        assert [expr.eval(row) for row in BIG_PAIR.rows] == expected
        assert eval_tri(expr, batch).to_column().values == expected
        kept = both(SelectNode(expr, ScanNode("T", ("t.a", "t.b"))), {"T": BIG_PAIR})
        assert [row["t.a"] for row in kept.rows] == [
            row["t.a"] for row, verdict in zip(BIG_PAIR.rows, expected) if verdict
        ]
