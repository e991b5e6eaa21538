"""``column <op> constant`` == ``sql_compare`` row by row.

A comparison with a constant rides exact lanes where both sides have
them and is otherwise judged once per dictionary entry of the column
(:meth:`Column.key_codes`) and gathered by code.  Whichever path runs,
the two 3VL masks must be what ``sql_compare`` says of each row — and
where a row makes ``sql_compare`` raise (``'a' < 1``), the predicate
raises the same ``TypeError`` the interpreter does.
"""

import random

import numpy as np
import pytest

from repro.algebra.expressions import Attr, BinOp, Const
from repro.algebra.values import NULL, sql_compare
from repro.data.tables import ColumnTable
from repro.exec.columns import Batch
from repro.exec.vectoreval import eval_tri

OPERATORS = ["=", "<>", "<", "<=", ">", ">="]

#: value pools a column is drawn from
POOLS = {
    "str": ["a", "b", "", "ab", "B"],
    "str_null": ["a", "b", "", NULL, NULL],
    "mixed": [0, 1, 1.0, 2.5, True, -0.0, "a", "1", "", NULL],
    "numeric_null": [0, 1, 1.0, 2.5, False, -7, 1e3, NULL],
    "beyond_float64": [2**53, 2**53 + 1, -(2**53) - 1, 3, 3.0, NULL],
}
CONSTANTS = ["a", "", "zz", 1, 1.0, 2.5, True, 2**53 + 1, float(2**53), NULL]


def vector(rows):
    return np.asarray(rows, dtype=np.intp)


def masks(tri):
    return tri.t.tolist(), tri.f.tolist()


def expected(op, lefts, rights):
    """Per-row ``sql_compare``: the masks, or the TypeError a row raises."""
    try:
        verdicts = [sql_compare(op, left, right) for left, right in zip(lefts, rights)]
    except TypeError:
        return TypeError
    return [v is True for v in verdicts], [v is False for v in verdicts]


def check(op, batch, values, constant):
    count = len(values)
    for expr, want in (
        (BinOp(op, Attr("t.x"), Const(constant)), expected(op, values, [constant] * count)),
        (BinOp(op, Const(constant), Attr("t.x")), expected(op, [constant] * count, values)),
    ):
        if want is TypeError:
            with pytest.raises(TypeError):
                eval_tri(expr, batch)
            with pytest.raises(TypeError):
                [expr.eval({"t.x": value}) for value in values]
        else:
            assert masks(eval_tri(expr, batch)) == want, (expr, values)


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("op", OPERATORS)
def test_constant_comparisons_match_sql_compare(op, pool):
    rng = random.Random(f"{op}:{pool}")
    for rows in (1, 7, 40):
        values = [rng.choice(POOLS[pool]) for _ in range(rows)]
        base = ColumnTable("t", {"t.x": values}).as_batch()
        picks = [rng.randrange(rows) for _ in range(rows // 2 + 1)]
        slots = [rng.choice([-1, rng.randrange(rows)]) for _ in range(rows)]
        padded = base.column("t.x").take_padded(vector(slots), NULL)
        for constant in CONSTANTS:
            check(op, base, values, constant)
            # a late take judges its parent's dictionary, a prefix too
            check(op, base.take(vector(picks)), [values[i] for i in picks], constant)
            check(op, base.head(rows // 2), values[: rows // 2], constant)
            check(op, Batch(("t.x",), {"t.x": padded}, rows), padded.values, constant)


def test_an_entry_no_row_holds_is_not_judged():
    # the take left the string behind: nothing raises, as nothing does
    # row by row — while the whole column still raises
    base = ColumnTable("t", {"t.x": [1, "a", 1.5, 1, 10**400]}).as_batch()
    less = BinOp("<", Attr("t.x"), Const(5))
    with pytest.raises(TypeError):
        eval_tri(less, base)
    assert masks(eval_tri(less, base.take(vector([0, 2, 3, 4])))) == (
        [True, True, True, False],
        [False, False, False, True],
    )


def test_a_constant_is_compared_once_per_entry(monkeypatch):
    from repro.exec import vectoreval

    calls = []
    monkeypatch.setattr(
        vectoreval, "sql_compare", lambda *args: calls.append(args) or sql_compare(*args)
    )
    values = ["R", "A", NULL, "N"] * 250
    batch = ColumnTable("t", {"t.x": values}).as_batch()
    tri = eval_tri(BinOp("=", Attr("t.x"), Const("R")), batch)
    assert masks(tri) == expected("=", values, ["R"] * 1000)
    assert len(calls) == 4  # R, A, NULL, N — not a thousand rows
    eval_tri(BinOp("<>", Const("A"), Attr("t.x")), batch.take(vector([1, 5, 9])))
    assert len(calls) == 5  # the one entry the take holds


def test_type_mismatched_ordering_raises_what_the_interpreter_raises():
    batch = ColumnTable("t", {"t.x": ["a", "b"]}).as_batch()
    for expr in (BinOp("<", Attr("t.x"), Const(1)), BinOp(">=", Const(1), Attr("t.x"))):
        with pytest.raises(TypeError) as interpreted:
            expr.eval({"t.x": "a"})
        with pytest.raises(TypeError) as vectorized:
            eval_tri(expr, batch)
        assert str(vectorized.value) == str(interpreted.value)
    # equality across types is FALSE, not an error
    assert masks(eval_tri(BinOp("=", Attr("t.x"), Const(1)), batch)) == ([False] * 2, [True] * 2)


@pytest.mark.parametrize("constant", ["a", 1, 2**53 + 1, NULL])
def test_empty_batch_gives_empty_masks(constant):
    batch = ColumnTable("t", {"t.x": []}).as_batch()
    for op in OPERATORS:
        for expr in (
            BinOp(op, Attr("t.x"), Const(constant)),
            BinOp(op, Const(constant), Attr("t.x")),
        ):
            assert masks(eval_tri(expr, batch)) == ([], [])
