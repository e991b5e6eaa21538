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
code; two such columns, or a numpy-less process, compare elementwise
over the value lists.  Every one of these paths calls the *same*
:mod:`repro.algebra.values` helpers the interpreter uses, which keeps
the two backends row-set identical by construction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.expressions import (
    Attr,
    BinOp,
    Case,
    Const,
    Expr,
    IsNull,
    Logical,
    Not,
    _ARITHMETIC,
    _COMPARISONS,
)
from repro.algebra.values import NULL, is_null, sql_arith, sql_compare
from repro.exec.arrays import numpy_module
from repro.exec.columns import Batch, Column, const_column


class Tri:
    """A three-valued predicate vector: ``t``/``f`` masks, UNKNOWN = neither.

    Masks are numpy bool arrays when *xp* is set, python bool lists
    otherwise; mixing is resolved by promoting lists to arrays.
    """

    __slots__ = ("t", "f", "xp")

    def __init__(self, t, f, xp=None):
        self.t = t
        self.f = f
        self.xp = xp

    def __len__(self) -> int:
        return len(self.t)

    def _paired(self, other: "Tri"):
        """Promote to a common representation (arrays win)."""
        if self.xp is not None and other.xp is None:
            return self, _promote(other, self.xp)
        if self.xp is None and other.xp is not None:
            return _promote(self, other.xp), other
        return self, other

    def and_(self, other: "Tri") -> "Tri":
        a, b = self._paired(other)
        if a.xp is not None:
            return Tri(a.t & b.t, a.f | b.f, a.xp)
        return Tri(
            [x and y for x, y in zip(a.t, b.t)],
            [x or y for x, y in zip(a.f, b.f)],
        )

    def or_(self, other: "Tri") -> "Tri":
        a, b = self._paired(other)
        if a.xp is not None:
            return Tri(a.t | b.t, a.f & b.f, a.xp)
        return Tri(
            [x or y for x, y in zip(a.t, b.t)],
            [x and y for x, y in zip(a.f, b.f)],
        )

    def not_(self) -> "Tri":
        return Tri(self.f, self.t, self.xp)

    def to_column(self) -> Column:
        """TRUE/FALSE/NULL values — the SQL surface form of a predicate."""
        t = self.t.tolist() if self.xp is not None else self.t
        f = self.f.tolist() if self.xp is not None else self.f
        return Column([True if a else (False if b else NULL) for a, b in zip(t, f)])

    def true_indices(self):
        """Row indices where the predicate is TRUE: an index array for
        array masks, a list for list masks."""
        if self.xp is not None:
            return self.t.nonzero()[0]
        return [i for i, v in enumerate(self.t) if v]

    def true_list(self) -> List[bool]:
        return self.t.tolist() if self.xp is not None else list(self.t)


def _promote(tri: Tri, xp) -> Tri:
    return Tri(xp.asarray(tri.t, dtype=bool), xp.asarray(tri.f, dtype=bool), xp)


def _masked(valid, hit, xp) -> Tri:
    """TRUE where *hit*, FALSE where not, UNKNOWN off *valid* (None: all valid)."""
    if valid is None:
        return Tri(hit, ~hit, xp)
    return Tri(valid & hit, valid & ~hit, xp)


def _both_valid(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _tri_from_column(col: Column, xp) -> Tri:
    """Truthiness of a value column (the interpreter's ``bool(value)``)."""
    if xp is not None:
        lanes = col.lanes(xp)
        if lanes is not None:
            data, valid = lanes
            return _masked(valid, data != 0.0, xp)
    t = []
    f = []
    for value in col.values:
        if value is NULL:
            t.append(False)
            f.append(False)
        else:
            truthy = bool(value)
            t.append(truthy)
            f.append(not truthy)
    return Tri(t, f)


_CMP_FUNCS = {
    "=": lambda xp, a, b: a == b,
    "<>": lambda xp, a, b: a != b,
    "<": lambda xp, a, b: a < b,
    "<=": lambda xp, a, b: a <= b,
    ">": lambda xp, a, b: a > b,
    ">=": lambda xp, a, b: a >= b,
}


def eval_tri(expr: Expr, batch: Batch) -> Tri:
    """Evaluate *expr* as a predicate over *batch* (3VL masks)."""
    xp = numpy_module()
    return _tri(expr, batch, xp)


def _tri(expr: Expr, batch: Batch, xp) -> Tri:
    if isinstance(expr, Logical):
        acc = _tri(expr.operands[0], batch, xp)
        for operand in expr.operands[1:]:
            nxt = _tri(operand, batch, xp)
            acc = acc.and_(nxt) if expr.op == "and" else acc.or_(nxt)
        return acc
    if isinstance(expr, Not):
        return _tri(expr.operand, batch, xp).not_()
    if isinstance(expr, IsNull):
        col = _expr(expr.operand, batch, xp)
        if xp is not None:
            lanes = col.lanes(xp)
            if lanes is not None:
                data, valid = lanes
                if valid is None:
                    valid = xp.ones(len(data), dtype=bool)
                return Tri(~valid, valid, xp)
        nulls = [v is NULL for v in col.values]
        return Tri(nulls, [not n for n in nulls])
    if isinstance(expr, BinOp) and expr.op in _COMPARISONS:
        left = _expr(expr.left, batch, xp)
        right = _expr(expr.right, batch, xp)
        if xp is not None:
            llanes = left.key_lanes(xp)
            rlanes = right.key_lanes(xp)
            if llanes is not None and rlanes is not None:
                ldata, lvalid = llanes
                rdata, rvalid = rlanes
                hit = _CMP_FUNCS[expr.op](xp, ldata, rdata)
                return _masked(_both_valid(lvalid, rvalid), hit, xp)
            if isinstance(expr.right, Const):
                return _compare_entries(expr.op, left, expr.right.value, False, xp)
            if isinstance(expr.left, Const):
                return _compare_entries(expr.op, right, expr.left.value, True, xp)
        t = []
        f = []
        for lv, rv in zip(left.values, right.values):
            result = sql_compare(expr.op, lv, rv)
            t.append(result is True)
            f.append(result is False)
        return Tri(t, f)
    # Any other expression: evaluate as a value, take its truthiness.
    return _tri_from_column(_expr(expr, batch, xp), xp)


def _compare_entries(op: str, column: Column, value, value_first: bool, xp) -> Tri:
    """``column <op> value`` (``value <op> column`` with *value_first*)
    by ``sql_compare`` once per dictionary entry, the two masks gathered
    by key code.

    Only the entries that occur are judged: a take shares its parent's
    dictionary, and an entry no row holds must neither cost a comparison
    nor raise its ``TypeError``.
    """
    codes, table = column.key_codes(xp)
    entries = list(table)
    t = [False] * len(entries)
    f = [False] * len(entries)
    for code in xp.bincount(codes).nonzero()[0].tolist():
        if value_first:
            verdict = sql_compare(op, value, entries[code])
        else:
            verdict = sql_compare(op, entries[code], value)
        t[code] = verdict is True
        f[code] = verdict is False
    return Tri(xp.asarray(t, dtype=bool)[codes], xp.asarray(f, dtype=bool)[codes], xp)


def eval_expr(expr: Expr, batch: Batch) -> Column:
    """Evaluate *expr* as a value column over *batch*."""
    xp = numpy_module()
    return _expr(expr, batch, xp)


def _expr(expr: Expr, batch: Batch, xp) -> Column:
    if isinstance(expr, Attr):
        return batch.column(expr.name)
    if isinstance(expr, Const):
        return const_column(expr.value, batch.length, xp)
    if isinstance(expr, BinOp):
        if expr.op in _COMPARISONS:
            return _tri(expr, batch, xp).to_column()
        return _arith(expr, batch, xp)
    if isinstance(expr, (Logical, Not, IsNull)):
        return _tri(expr, batch, xp).to_column()
    if isinstance(expr, Case):
        cond = _tri(expr.condition, batch, xp)
        then = _expr(expr.then, batch, xp).values
        other = _expr(expr.otherwise, batch, xp).values
        keep = cond.true_list()
        return Column([then[i] if keep[i] else other[i] for i in range(len(keep))])
    raise TypeError(f"unknown expression {expr!r}")


def _arith(expr: BinOp, batch: Batch, xp) -> Column:
    left = _expr(expr.left, batch, xp)
    right = _expr(expr.right, batch, xp)
    if xp is not None:
        llanes = left.lanes(xp)
        rlanes = right.lanes(xp)
        if llanes is not None and rlanes is not None:
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
                with xp.errstate(divide="ignore", invalid="ignore"):
                    data = ldata / xp.where(nonzero, rdata, 1.0)
            if valid is not None:
                data = xp.where(valid, data, 0.0)
            return Column(lanes=(data, valid))
    return Column([sql_arith(expr.op, lv, rv) for lv, rv in zip(left.values, right.values)])
