"""Folding aggregates over runs == ``AggCall.evaluate`` on each run's rows.

The columnar executor hands every aggregation its groups as
:class:`~repro.exec.columnar.Runs` and folds ``count`` / ``min`` /
``max`` / integer ``sum`` with ``ufunc.reduceat``; everything else is
python's own fold over one gathered value list.  Whatever ran, the answer owed is the
interpreter's, *value and type*: ``min([1.0, 1])`` is ``1.0``, a sum of
ints is an exact python int however large, a float sum is python's
``sum`` bit for bit, ``count`` of nothing is 0 and every other aggregate
of nothing is NULL.  ``count(x)``, ``avg`` and DISTINCT occur in no
end-to-end statement, so this is their cover.

Runs are drawn the way a groupjoin makes them (``_partners``): any row
any number of times, runs without rows among them.  A grouping's
partition is the special case.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr
from repro.algebra.rows import Row
from repro.algebra.values import NULL
from repro.exec.columnar import Runs, _aggregate_columns, _group_rows, execute_physical
from repro.exec.columns import Batch, Column
from repro.exec.physical import PhysGroupAgg, PhysHashJoin, PhysScan
from repro.data.tables import ColumnTable
from repro.rewrites.pushdown import OpKind

CALLS = [AggCall(AggKind.COUNT_STAR)] + [
    AggCall(kind, Attr("t.x"), distinct)
    for kind in AggKind
    if kind is not AggKind.COUNT_STAR
    for distinct in (False, True)
]

#: a column is drawn from one pool (plus NULLs), or from all of them
INTS = [0, 1, 2, 3, -7, 41, 2**53 - 1, -(2**53) + 1, 2**53, 2**53 + 1, 2**62, -(2**62)]
SMALL_INTS = [0, 1, 2, 3, -7, 41, 10**6]
INF, NAN = float("inf"), float("nan")
FLOATS = [0.0, -0.0, 1.0, 2.5, -7.25, 0.1, 0.2, 1e16, INF, -INF]
WITH_NAN = FLOATS + [NAN]
ONE_AND_ONE = [1, 1.0, True, 0, 0.0, False, 2, 2.0]  # first occurrence wins
STRINGS = ["a", "b", "", "ab", "B"]
POOLS = [INTS, SMALL_INTS, FLOATS, WITH_NAN, ONE_AND_ONE, STRINGS, [True, False], [NULL]]
EVERYTHING = [value for pool in POOLS for value in pool]


@st.composite
def columns_and_runs(draw, max_rows):
    pool = draw(st.sampled_from(POOLS + [EVERYTHING]))
    values = draw(st.lists(st.sampled_from(pool + [NULL]), max_size=max_rows))
    members = st.lists(st.integers(0, len(values) - 1), max_size=8) if values else st.just([])
    return values, draw(st.lists(members, max_size=6)), draw(st.booleans())


def spelled(value):
    """A value with its type; floats by their bits (``-0.0``, NaN)."""
    if type(value) is float:
        return ("float", value.hex())
    return (type(value).__name__, value)


def evaluated(call, values, groups):
    """What the interpreter answers per group — or the error it raises."""
    return [
        spelled(call.evaluate([Row({"t.x": values[i]}) for i in members]))
        for members in groups
    ]


def _vector(rows):
    return np.asarray(rows, dtype=np.intp)


def folded(call, values, groups, late):
    """The same through ``_aggregate_columns`` over *groups* as runs."""
    column = Column(values)
    if late:  # the argument arrives as a take of a longer column
        column = Column(values + values[::-1]).take(_vector(range(len(values))))
    ends = list(accumulate(map(len, groups)))
    runs = Runs(
        _vector([i for members in groups for i in members]),
        _vector([0] + ends[:-1] if ends else []),
        _vector(ends),
    )
    batch = Batch(("t.x",), {"t.x": column}, len(values))
    ((_, out),) = _aggregate_columns(AggVector([AggItem("out", call)]), batch, runs)
    assert len(out) == len(groups)
    return [spelled(value) for value in out.values]


def check(call, drawn):
    values, groups, late = drawn
    try:
        expected = evaluated(call, values, groups)
    except TypeError:  # min('a', 1), sum('a'): the executor owes the same refusal
        with pytest.raises(TypeError):
            folded(call, values, groups, late)
        return
    assert folded(call, values, groups, late) == expected


@pytest.mark.parametrize("call", CALLS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(drawn=columns_and_runs(max_rows=12))
def test_fold_over_runs_is_evaluate_per_run(call, drawn):
    check(call, drawn)


@pytest.mark.slow
@pytest.mark.parametrize("call", CALLS, ids=repr)
@settings(max_examples=1500, deadline=None)
@given(drawn=columns_and_runs(max_rows=40))
def test_fold_over_runs_is_evaluate_per_run_exhaustive(call, drawn):
    check(call, drawn)


def agg(kind, distinct=False):
    return AggCall(kind, Attr("t.x"), distinct)


@pytest.mark.parametrize(
    "call, values, groups, expected",
    [
        # nothing to fold: count is 0, everything else NULL
        (AggCall(AggKind.COUNT_STAR), [5], [[], [0]], [0, 1]),
        (agg(AggKind.COUNT), [5, NULL], [[], [1], [0, 1]], [0, 0, 1]),
        (agg(AggKind.SUM), [5, NULL], [[], [1], [0, 1]], [NULL, NULL, 5]),
        (agg(AggKind.MIN), [5, NULL], [[], [1], [0, 1]], [NULL, NULL, 5]),
        (agg(AggKind.MAX), [5.5, NULL], [[], [1], [0, 1]], [NULL, NULL, 5.5]),
        (agg(AggKind.AVG), [5, NULL], [[], [1], [0, 1]], [NULL, NULL, 5.0]),
        # the first row that attains the extreme lends its type
        (agg(AggKind.MIN), [1.0, 1, True], [[0, 1, 2], [1, 0], [2, 1]], [1.0, 1, True]),
        (agg(AggKind.MAX), [0, -0.0, 0.0], [[0, 1], [1, 2], [2, 1]], [0, -0.0, 0.0]),
        (agg(AggKind.MAX), ["a", "B", "ab"], [[0, 1, 2]], ["ab"]),  # lexicographic
        # a NULL is not the infinity it is masked with; lanes that cannot
        # tell two values apart, or order a NaN, do not decide
        (agg(AggKind.MIN), [NULL, INF], [[0, 1]], [INF]),
        (agg(AggKind.MAX), [NULL, -INF], [[0, 1]], [-INF]),
        (agg(AggKind.MIN), [2**53 + 1, 2**53], [[0, 1]], [2**53]),
        (agg(AggKind.MIN), [NAN, 1.0], [[0, 1], [1, 0]], [NAN, 1.0]),
        # int sums stay exact python ints past 2^53 and past 2^63
        (agg(AggKind.SUM), [2**53 - 1, 1, 1], [[0, 1, 2]], [2**53 + 1]),
        (agg(AggKind.SUM), [2**62, 2**62, 1], [[0, 1, 2]], [2**63 + 1]),
        (agg(AggKind.SUM), [2**52] * 3, [[0, 1, 2] * 700], [2**52 * 2100]),  # past int64
        (agg(AggKind.SUM), [True, True, 3], [[0, 1], [0, 1, 2]], [2, 5]),
        (agg(AggKind.SUM), [1, 2.0], [[0, 1], [0]], [3.0, 1]),
        (agg(AggKind.AVG), [1, 2], [[0, 1], [1]], [1.5, 2.0]),  # always a float
        (agg(AggKind.SUM, True), [1, 1.0, 2], [[0, 1, 2]], [3]),
        (agg(AggKind.COUNT, True), ["a", "a", NULL, "b"], [[0, 1, 2, 3]], [2]),
    ],
)
def test_pinned_folds(call, values, groups, expected):
    for late in (False, True):
        assert folded(call, values, groups, late) == [spelled(v) for v in expected]
    assert evaluated(call, values, groups) == [spelled(v) for v in expected]


def test_scalar_aggregate_builds_no_row_list():
    """No GROUP BY: one run over every row — an ``arange``, not a python
    list of them — and several aggregates at once."""
    table = ColumnTable("T", {"t.x": [3, NULL, 1, 2], "t.s": ["b", "c", NULL, "a"]})
    firsts, runs = _group_rows(table.as_batch(), ())
    assert not isinstance(runs.order, list) and list(runs.order) == [0, 1, 2, 3]
    assert (list(firsts), list(runs.starts), list(runs.ends)) == ([0], [0], [4])
    vector = AggVector(
        [
            AggItem("n", AggCall(AggKind.COUNT_STAR)),
            AggItem("nx", AggCall(AggKind.COUNT, Attr("t.x"))),
            AggItem("sum", AggCall(AggKind.SUM, Attr("t.x"))),
            AggItem("low", AggCall(AggKind.MIN, Attr("t.x"))),
            AggItem("last", AggCall(AggKind.MAX, Attr("t.s"))),
            AggItem("mean", AggCall(AggKind.AVG, Attr("t.x"))),
        ]
    )
    plan = PhysGroupAgg((), vector, (), PhysScan("T", table.attributes))
    (row,) = execute_physical(plan, {"T": table}).to_relation().rows
    assert [spelled(row[item.name]) for item in vector] == [
        spelled(v) for v in (4, 3, 6, 1, "c", 2.0)
    ]


def test_groupjoin_whose_last_left_rows_have_no_partner():
    """``reduceat`` must see neither an empty run nor an index at the end
    of the array: the trailing left rows here have both."""
    left = ColumnTable("L", {"l.k": [1, 9, 2, 1, 8, NULL, 9]})
    right = ColumnTable("R", {"r.k": [2, 1, 1, 2, 1], "r.v": [10, 4, NULL, 30, 5.5]})
    vector = AggVector(
        [
            AggItem("n", AggCall(AggKind.COUNT_STAR)),
            AggItem("nv", AggCall(AggKind.COUNT, Attr("r.v"))),
            AggItem("low", AggCall(AggKind.MIN, Attr("r.v"))),
            AggItem("high", AggCall(AggKind.MAX, Attr("r.v"))),
            AggItem("keys", AggCall(AggKind.SUM, Attr("r.k"))),
            AggItem("total", AggCall(AggKind.SUM, Attr("r.v"))),
        ]
    )
    join = PhysHashJoin(
        OpKind.GROUPJOIN,
        ("l.k",),
        ("r.k",),
        None,
        PhysScan("L", left.attributes),
        PhysScan("R", right.attributes),
        groupjoin_vector=vector,
    )
    rows = execute_physical(join, {"L": left, "R": right}).to_relation().rows
    matched_1 = [3, 2, 4, 5.5, 3, 9.5]
    matched_2 = [2, 2, 10, 30, 4, 40]
    unmatched = [0, 0, NULL, NULL, NULL, NULL]
    assert [[spelled(row[item.name]) for item in vector] for row in rows] == [
        [spelled(v) for v in expected]
        for expected in (
            matched_1, unmatched, matched_2, matched_1, unmatched, unmatched, unmatched
        )
    ]
