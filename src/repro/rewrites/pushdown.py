"""Specification builder for a single eager-aggregation step.

Given the grouping attributes and the split aggregation vector, this module
computes everything the equivalences of Fig. 3 need:

* the pushed-down grouping ``Γ_{G_i^+; F_i^1 ∘ (c_i : count(*))}``,
* the adjusted outer vector ``(F_j ⊗ c_i) ∘ F_i^2``,
* the default vector ``F_i^1({⊥}), c_i : 1`` for generalised outerjoins.

The builder is deliberately independent of relations *and* of plan nodes so
that the algebra-level rewrites (:mod:`repro.rewrites.eager`) and the DP
plan generator share one implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.aggregates.transform import (
    NotDecomposableError,
    decompose_vector,
    scale_vector,
)
from repro.aggregates.vector import AggItem, AggVector
from repro.aggregates.calls import AggCall, AggKind
from repro.algebra.values import SqlValue


class OpKind(enum.Enum):
    """Binary operators eligible for eager aggregation (Fig. 3)."""

    INNER = "join"
    LEFT_OUTER = "left-outerjoin"
    FULL_OUTER = "full-outerjoin"
    LEFT_SEMI = "semijoin"
    LEFT_ANTI = "antijoin"
    GROUPJOIN = "groupjoin"

    @property
    def left_only(self) -> bool:
        """Operators whose output exposes only left-side attributes.

        For these, grouping can only ever be pushed into the left argument
        (Fig. 3, block *Others*).
        """
        return self in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI, OpKind.GROUPJOIN)


@dataclass(frozen=True)
class GroupPushdown:
    """A fully specified eager-aggregation step for one join side.

    Attributes:
        side: 1 when the grouping is pushed into the left argument, else 2.
        group_attrs: the pushed grouping's attributes ``G_i^+``.
        inner: the pushed grouping's aggregation vector
            (``F_i^1`` possibly extended by ``c_i : count(*)``).
        outer: the replacement vector for the grouping above the join
            (``(F_j ⊗ c_i) ∘ F_i^2`` — names match the original outputs).
        count_attr: name of the introduced count column, or ``None`` when no
            duplicate-sensitive aggregate on the other side requires scaling.
        defaults: default vector for the grouped side's new columns, used to
            pad unmatched tuples of the *other* side in generalised
            outerjoins (``F_i^1({⊥})`` plus ``c_i : 1``).
    """

    side: int
    group_attrs: Tuple[str, ...]
    inner: AggVector
    outer: AggVector
    count_attr: Optional[str]
    defaults: Dict[str, SqlValue]


def plan_pushdown(
    group_attrs: Sequence[str],
    pushed_vector: AggVector,
    other_vector: AggVector,
    side: int,
    suffix: str = "'",
    count_attr: Optional[str] = None,
) -> Optional[GroupPushdown]:
    """Build the pushdown spec, or ``None`` when the rewrite is invalid.

    Args:
        group_attrs: ``G_i^+`` — the grouping attributes of the pushed
            grouping (grouping attributes of side *i* plus all join
            attributes of side *i* still needed above).
        pushed_vector: ``F_i`` — the aggregates whose arguments live on the
            pushed side (must be decomposable; plain ``avg`` must have been
            normalised away beforehand).
        other_vector: ``F_j`` — the remaining aggregates, to be ⊗-scaled.
        side: 1 (left) or 2 (right); recorded in the spec.
        suffix: appended to output names to form inner column names.
        count_attr: name for the ``count(*)`` column; a default is derived
            from *side* when omitted.

    Invalidity causes (→ ``None``): a non-decomposable aggregate in
    ``pushed_vector``, or a plain ``avg`` anywhere (callers normalise first).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    for item in other_vector:
        if item.call.kind is AggKind.AVG and not item.call.distinct:
            return None  # must be normalised to sum/countNN first
    try:
        decomposition = decompose_vector(pushed_vector, suffix=suffix)
    except NotDecomposableError:
        return None

    needs_count = any(item.call.duplicate_sensitive for item in other_vector)
    count_name: Optional[str] = None
    inner = decomposition.inner
    if needs_count:
        count_name = count_attr or f"c{side}#"
        inner = inner.concat(AggVector([AggItem(count_name, AggCall(AggKind.COUNT_STAR))]))

    scaled_other = scale_vector(other_vector, [count_name] if count_name else [])
    outer = scaled_other.concat(decomposition.outer)

    defaults: Dict[str, SqlValue] = dict(decomposition.inner.evaluate_on_null_tuple())
    if count_name is not None:
        defaults[count_name] = 1

    return GroupPushdown(
        side=side,
        group_attrs=tuple(group_attrs),
        inner=inner,
        outer=outer,
        count_attr=count_name,
        defaults=defaults,
    )


def pushdown_valid_for(op: OpKind, side: int) -> bool:
    """Which sides an eager grouping may be pushed into, per operator.

    Inner and full outerjoins accept both sides (Eqvs. 10–15), the left
    outerjoin accepts both (Eqvs. 11/14 — the right side via defaults), and
    the left-only operators (semijoin, antijoin, groupjoin) accept only the
    left argument (Eqvs. 37–41).
    """
    if side == 1:
        return True
    return not op.left_only
