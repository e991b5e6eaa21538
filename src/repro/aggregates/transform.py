"""Decomposition (Def. 2) and duplicate scaling ``F ⊗ c`` (Sec. 2.1.3).

These two transformations are the algebraic core of eager aggregation:

* **Decomposition** splits an aggregate into an *inner* stage, evaluated in a
  pushed-down grouping, and an *outer* stage, evaluated further up over the
  inner stage's result column:

  ===========  =================  ==================
  aggregate    inner stage        outer stage
  ===========  =================  ==================
  sum(e)       s := sum(e)        sum(s)
  count(*)     c := count(*)      sum(c)
  count(e)     c := count(e)      sum(c)
  min(e)       m := min(e)        min(m)
  max(e)       m := max(e)        max(m)
  avg(e)       — normalised to (sum, countNN) + final division first —
  ===========  =================  ==================

  ``sum(distinct)``, ``count(distinct)`` and ``avg(distinct)`` are *not*
  decomposable and therefore block pushdown on their own side.

* **Scaling** ``f ⊗ c`` adjusts a duplicate-sensitive aggregate for the fact
  that a grouping on the *other* join side collapsed ``c`` duplicates into a
  single row carrying a ``count(*)`` column:

  ==============  ========================================================
  aggregate       scaled form
  ==============  ========================================================
  agnostic        unchanged (min, max, distinct)
  sum(e)          sum(e * c)
  count(*)        sum(c)
  count(e)        sum(CASE WHEN e IS NULL THEN 0 ELSE c END)
  avg(e)          — normalised away before scaling is ever required —
  ==============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Case, Const, Expr, IsNull


class NotDecomposableError(ValueError):
    """Raised when an aggregate that cannot be decomposed would need to be."""


class NotScalableError(ValueError):
    """Raised when an aggregate cannot be ⊗-scaled (only avg; normalise it)."""


# ---------------------------------------------------------------------------
# avg normalisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedVector:
    """Result of replacing ``avg`` by (sum, countNN) plus a final division.

    ``vector`` contains no plain ``avg`` calls; ``post`` lists the scalar
    projections (name, expression over vector output columns) that rebuild
    every original output — identity references for non-avg aggregates.
    """

    vector: AggVector
    post: Tuple[Tuple[str, Expr], ...]


def normalize_avg(vector: AggVector) -> NormalizedVector:
    """Rewrite every plain ``avg(e)`` as ``sum(e) / countNN(e)``.

    ``avg(distinct)`` is left alone: it is duplicate agnostic (never needs
    scaling) and not decomposable (never pushed down on its own side), so it
    can always be evaluated directly.
    """
    items: List[AggItem] = []
    post: List[Tuple[str, Expr]] = []
    for item in vector:
        call = item.call
        if call.kind is AggKind.AVG and not call.distinct:
            sum_name = f"{item.name}#s"
            cnt_name = f"{item.name}#c"
            items.append(AggItem(sum_name, AggCall(AggKind.SUM, call.arg)))
            items.append(AggItem(cnt_name, AggCall(AggKind.COUNT, call.arg)))
            post.append((item.name, BinOp("/", Attr(sum_name), Attr(cnt_name))))
        else:
            items.append(item)
            post.append((item.name, Attr(item.name)))
    return NormalizedVector(AggVector(items), tuple(post))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose_call(call: AggCall, inner_name: str) -> Tuple[AggCall, AggCall]:
    """Return ``(inner, outer)`` stages; *inner_name* is the inner column.

    Raises :class:`NotDecomposableError` for distinct sums/counts/avgs and
    for plain ``avg`` (which must be normalised first).
    """
    if not call.decomposable:
        raise NotDecomposableError(f"{call!r} is not decomposable")
    if call.kind is AggKind.AVG:
        raise NotDecomposableError(f"{call!r} must be normalised to sum/count before decomposition")
    column = Attr(inner_name)
    if call.kind in (AggKind.SUM, AggKind.COUNT, AggKind.COUNT_STAR):
        return call, AggCall(AggKind.SUM, column)
    if call.kind is AggKind.MIN:
        return call, AggCall(AggKind.MIN, column)
    if call.kind is AggKind.MAX:
        return call, AggCall(AggKind.MAX, column)
    raise AssertionError(f"unhandled aggregate kind {call.kind}")


@dataclass(frozen=True)
class VectorDecomposition:
    """``F`` decomposed into inner stage ``F¹`` and outer stage ``F²``.

    The outer vector produces exactly the original output names, evaluated
    over the inner vector's columns.
    """

    inner: AggVector
    outer: AggVector


def decompose_vector(vector: AggVector, suffix: str = "'") -> VectorDecomposition:
    """Decompose every aggregate of *vector*; inner columns get *suffix*."""
    inner_items: List[AggItem] = []
    outer_items: List[AggItem] = []
    for item in vector:
        inner_name = item.name + suffix
        inner, outer = decompose_call(item.call, inner_name)
        inner_items.append(AggItem(inner_name, inner))
        outer_items.append(AggItem(item.name, outer))
    return VectorDecomposition(AggVector(inner_items), AggVector(outer_items))


# ---------------------------------------------------------------------------
# duplicate scaling (⊗)
# ---------------------------------------------------------------------------

def _count_product(count_attrs: Sequence[str]) -> Expr:
    product: Expr = Attr(count_attrs[0])
    for name in count_attrs[1:]:
        product = BinOp("*", product, Attr(name))
    return product


def scale_call(call: AggCall, count_attrs: Sequence[str]) -> AggCall:
    """``f ⊗ c`` for ``c`` = the product of *count_attrs* (Sec. 2.1.3)."""
    if not count_attrs:
        return call
    if call.duplicate_agnostic:
        return call
    if call.kind is AggKind.AVG:
        raise NotScalableError("normalise avg to sum/count before scaling")
    c = _count_product(count_attrs)
    if call.kind is AggKind.COUNT_STAR:
        return AggCall(AggKind.SUM, c)
    assert call.arg is not None
    if call.kind is AggKind.SUM:
        return AggCall(AggKind.SUM, BinOp("*", call.arg, c))
    if call.kind is AggKind.COUNT:
        return AggCall(AggKind.SUM, Case(IsNull(call.arg), Const(0), c))
    raise AssertionError(f"unhandled aggregate kind {call.kind}")


def scale_vector(vector: AggVector, count_attrs: Sequence[str]) -> AggVector:
    """``F ⊗ c`` applied item-wise (names preserved)."""
    return AggVector(AggItem(item.name, scale_call(item.call, count_attrs)) for item in vector)


# ---------------------------------------------------------------------------
# single-row finalisation (top-grouping elimination, Eqv. 42)
# ---------------------------------------------------------------------------

def single_row_expr(call: AggCall) -> Expr:
    """``f({t})`` as a scalar expression over the single tuple *t*.

    Used by Eqv. 42 to replace a top grouping whose groups are guaranteed to
    be singletons by a map operator: ``sum(e) → e``, ``count(*) → 1``,
    ``count(e) → CASE WHEN e IS NULL THEN 0 ELSE 1``, ``min/max/avg(e) → e``.
    """
    if call.kind is AggKind.COUNT_STAR:
        return Const(1)
    assert call.arg is not None
    if call.kind is AggKind.COUNT:
        return Case(IsNull(call.arg), Const(0), Const(1))
    # sum / min / max / avg of a single value is the value itself (NULL for
    # NULL input, which matches SQL's empty-group semantics used here).
    return call.arg
