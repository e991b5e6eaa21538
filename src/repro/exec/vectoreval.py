"""Vectorized expression evaluation over column batches.

Two entry points:

* :func:`eval_expr` — any :class:`~repro.algebra.expressions.Expr` to a
  value :class:`~repro.exec.columns.Column`,
* :func:`eval_tri` — a predicate to a :class:`Tri`, the columnar
  representation of three-valued logic: two parallel boolean vectors
  ``t`` ("evaluates to TRUE") and ``f`` ("evaluates to FALSE"), UNKNOWN
  being neither.  Kleene AND/OR/NOT become bitwise mask algebra.

Numeric sub-expressions ride numpy ``float64`` lanes (comparisons and
arithmetic are then single array ops, a constant being one float
gathered to length).  A comparison rides them only where they are
*exact* (:meth:`Column.key_lanes`): ``2**53`` and ``2**53 + 1`` are one
float64 and two python ints.  Where it cannot — strings, mixed types, a
NaN, a big int — a column against a constant is judged once per
dictionary entry (:meth:`Column.key_codes`) and the verdicts gathered by
code; two such columns compare elementwise over the value lists.  Every
one of these paths calls the *same* :mod:`repro.algebra.values` helpers
the interpreter uses, which keeps the two backends row-set identical by
construction.
"""

from __future__ import annotations

import operator
from typing import List

from repro.algebra.expressions import (
    Attr,
    BinOp,
    Case,
    Const,
    Expr,
    IsNull,
    Logical,
    Not,
    _COMPARISONS,
)
from repro.algebra.values import NULL, sql_arith, sql_compare
from repro.exec.columns import Batch, Column, const_column

# after repro.exec.columns, which names the missing extra
import numpy as np


class Tri:
    """A three-valued predicate vector: ``t``/``f`` bool masks, UNKNOWN = neither."""

    __slots__ = ("t", "f")

    def __init__(self, t, f):
        self.t = t
        self.f = f

    def __len__(self) -> int:
        return len(self.t)

    def and_(self, other: "Tri") -> "Tri":
        return Tri(self.t & other.t, self.f | other.f)

    def or_(self, other: "Tri") -> "Tri":
        return Tri(self.t | other.t, self.f & other.f)

    def not_(self) -> "Tri":
        return Tri(self.f, self.t)

    def to_column(self) -> Column:
        """TRUE/FALSE/NULL values — the SQL surface form of a predicate."""
        t, f = self.t.tolist(), self.f.tolist()
        return Column([True if a else (False if b else NULL) for a, b in zip(t, f)])

    def true_indices(self):
        """Row indices where the predicate is TRUE, as an index array."""
        return self.t.nonzero()[0]

    def true_list(self) -> List[bool]:
        return self.t.tolist()


def _masked(valid, hit) -> Tri:
    """TRUE where *hit*, FALSE where not, UNKNOWN off *valid* (None: all valid)."""
    if valid is None:
        return Tri(hit, ~hit)
    return Tri(valid & hit, valid & ~hit)


def _both_valid(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _mask(flags):
    return np.fromiter(flags, dtype=bool)


def _tri_from_column(col: Column) -> Tri:
    """Truthiness of a value column (the interpreter's ``bool(value)``)."""
    lanes = col.lanes()
    if lanes is not None:
        data, valid = lanes
        return _masked(valid, data != 0.0)
    truthy = _mask(map(bool, col.values))  # bool(NULL) is False
    return Tri(truthy, ~truthy & _mask(v is not NULL for v in col.values))


_CMP_FUNCS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def eval_tri(expr: Expr, batch: Batch) -> Tri:
    """Evaluate *expr* as a predicate over *batch* (3VL masks)."""
    if isinstance(expr, Logical):
        acc = eval_tri(expr.operands[0], batch)
        for operand in expr.operands[1:]:
            nxt = eval_tri(operand, batch)
            acc = acc.and_(nxt) if expr.op == "and" else acc.or_(nxt)
        return acc
    if isinstance(expr, Not):
        return eval_tri(expr.operand, batch).not_()
    if isinstance(expr, IsNull):
        col = eval_expr(expr.operand, batch)
        lanes = col.lanes()
        if lanes is not None:
            valid = lanes[1]
            if valid is None:
                valid = np.ones(len(col), dtype=bool)
        else:
            valid = _mask(v is not NULL for v in col.values)
        return Tri(~valid, valid)
    if isinstance(expr, BinOp) and expr.op in _COMPARISONS:
        left = eval_expr(expr.left, batch)
        right = eval_expr(expr.right, batch)
        llanes = left.key_lanes()
        rlanes = right.key_lanes()
        if llanes is not None and rlanes is not None:
            ldata, lvalid = llanes
            rdata, rvalid = rlanes
            return _masked(_both_valid(lvalid, rvalid), _CMP_FUNCS[expr.op](ldata, rdata))
        if isinstance(expr.right, Const):
            return _compare_entries(expr.op, left, expr.right.value, False)
        if isinstance(expr.left, Const):
            return _compare_entries(expr.op, right, expr.left.value, True)
        verdicts = [sql_compare(expr.op, lv, rv) for lv, rv in zip(left.values, right.values)]
        return Tri(_mask(v is True for v in verdicts), _mask(v is False for v in verdicts))
    # Any other expression: evaluate as a value, take its truthiness.
    return _tri_from_column(eval_expr(expr, batch))


def _compare_entries(op: str, column: Column, value, value_first: bool) -> Tri:
    """``column <op> value`` (``value <op> column`` with *value_first*)
    by ``sql_compare`` once per dictionary entry, the two masks gathered
    by key code.

    Only the entries that occur are judged: a take shares its parent's
    dictionary, and an entry no row holds must neither cost a comparison
    nor raise its ``TypeError``.
    """
    codes, table = column.key_codes()
    entries = list(table)
    t = np.zeros(len(entries), dtype=bool)
    f = np.zeros(len(entries), dtype=bool)
    for code in np.bincount(codes).nonzero()[0].tolist():
        if value_first:
            verdict = sql_compare(op, value, entries[code])
        else:
            verdict = sql_compare(op, entries[code], value)
        t[code] = verdict is True
        f[code] = verdict is False
    return Tri(t[codes], f[codes])


def eval_expr(expr: Expr, batch: Batch) -> Column:
    """Evaluate *expr* as a value column over *batch*."""
    if isinstance(expr, Attr):
        return batch.column(expr.name)
    if isinstance(expr, Const):
        return const_column(expr.value, batch.length)
    if isinstance(expr, BinOp):
        if expr.op in _COMPARISONS:
            return eval_tri(expr, batch).to_column()
        return _arith(expr, batch)
    if isinstance(expr, (Logical, Not, IsNull)):
        return eval_tri(expr, batch).to_column()
    if isinstance(expr, Case):
        cond = eval_tri(expr.condition, batch)
        then = eval_expr(expr.then, batch).values
        other = eval_expr(expr.otherwise, batch).values
        keep = cond.true_list()
        return Column([then[i] if keep[i] else other[i] for i in range(len(keep))])
    raise TypeError(f"unknown expression {expr!r}")


def _arith(expr: BinOp, batch: Batch) -> Column:
    left = eval_expr(expr.left, batch)
    right = eval_expr(expr.right, batch)
    llanes = left.lanes()
    rlanes = right.lanes()
    if llanes is None or rlanes is None:
        return Column([sql_arith(expr.op, lv, rv) for lv, rv in zip(left.values, right.values)])
    ldata, lvalid = llanes
    rdata, rvalid = rlanes
    valid = _both_valid(lvalid, rvalid)
    if expr.op == "+":
        data = ldata + rdata
    elif expr.op == "-":
        data = ldata - rdata
    elif expr.op == "*":
        data = ldata * rdata
    else:  # "/" — SQL maps division by zero to NULL
        nonzero = rdata != 0.0
        if not bool(nonzero.all()):
            valid = _both_valid(valid, nonzero)
        with np.errstate(divide="ignore", invalid="ignore"):
            data = ldata / np.where(nonzero, rdata, 1.0)
    if valid is not None:
        data = np.where(valid, data, 0.0)
    return Column(lanes=(data, valid))
