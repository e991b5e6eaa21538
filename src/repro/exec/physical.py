"""Lowering: logical :mod:`repro.plans.nodes` trees → physical operators.

The physical plan is the seam both executor backends share: the
interpreter walks the logical tree directly (it *is* the executable
spec), while the columnar backend executes the physical tree produced
here.  Lowering is where execution strategy decisions live — most
importantly turning a join predicate into hash-join keys:

* the predicate is flattened into its top-level AND conjuncts,
* every conjunct of the form ``Attr = Attr`` with one side from each
  input becomes an equi-key pair,
* the remaining conjuncts are re-ANDed into a *residual* predicate
  applied to hash-matched candidate pairs.

The decomposition is sound under 3VL because a Kleene conjunction is
TRUE iff every conjunct is TRUE — and rows with a NULL key can never
make an equality conjunct TRUE, which is why the hash table skips them
on both sides.  Joins with no equi conjunct fall back to a block
nested-loop operator over the full cross pairing.

:class:`PhysLimit` has no logical counterpart (LIMIT is still
parse-reserved); it exists for the executor API
(``run_plan(..., limit=N)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.aggregates.vector import AggVector
from repro.algebra.expressions import Attr, BinOp, Expr, Logical, conjunction
from repro.algebra.values import SqlValue
from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.rewrites.pushdown import OpKind


class PhysOp:
    """Base physical operator; ``attributes`` is the output schema."""

    attributes: Tuple[str, ...]

    def children(self) -> Tuple["PhysOp", ...]:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PhysScan(PhysOp):
    relation: str
    attributes: Tuple[str, ...]

    def children(self) -> Tuple[PhysOp, ...]:
        return ()

    def label(self) -> str:
        return f"scan({self.relation})"


@dataclass(frozen=True)
class PhysFilter(PhysOp):
    predicate: Expr
    child: PhysOp
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", self.child.attributes)

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"filter[{self.predicate!r}]"


@dataclass(frozen=True)
class PhysProject(PhysOp):
    attributes: Tuple[str, ...]
    child: PhysOp

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"project[{', '.join(self.attributes)}]"


@dataclass(frozen=True)
class PhysMap(PhysOp):
    extensions: Tuple[Tuple[str, Expr], ...]
    child: PhysOp
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        attrs = self.child.attributes + tuple(name for name, _ in self.extensions)
        object.__setattr__(self, "attributes", attrs)

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"map[{', '.join(name for name, _ in self.extensions)}]"


def _join_attributes(op: OpKind, left: PhysOp, right: PhysOp,
                     vector: Optional[AggVector]) -> Tuple[str, ...]:
    if op is OpKind.GROUPJOIN:
        assert vector is not None
        return left.attributes + vector.names()
    if op in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI):
        return left.attributes
    return left.attributes + right.attributes


@dataclass(frozen=True)
class PhysHashJoin(PhysOp):
    """Hash join on equi-keys, any join kind, optional residual predicate."""

    op: OpKind
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    residual: Optional[Expr]
    left: PhysOp
    right: PhysOp
    left_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
    right_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
    groupjoin_vector: Optional[AggVector] = None
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "attributes",
            _join_attributes(self.op, self.left, self.right, self.groupjoin_vector),
        )

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        residual = f" where {self.residual!r}" if self.residual is not None else ""
        return f"hash-{self.op.value}[{keys}]{residual}"


@dataclass(frozen=True)
class PhysNLJoin(PhysOp):
    """Block nested-loop join: no equi conjunct to hash on."""

    op: OpKind
    predicate: Expr
    left: PhysOp
    right: PhysOp
    left_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
    right_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
    groupjoin_vector: Optional[AggVector] = None
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "attributes",
            _join_attributes(self.op, self.left, self.right, self.groupjoin_vector),
        )

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"nl-{self.op.value}[{self.predicate!r}]"


@dataclass(frozen=True)
class PhysGroupAgg(PhysOp):
    group_attrs: Tuple[str, ...]
    vector: AggVector
    post: Tuple[Tuple[str, Expr], ...]
    child: PhysOp
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.post:
            attrs = self.group_attrs + tuple(name for name, _ in self.post)
        else:
            attrs = self.group_attrs + self.vector.names()
        object.__setattr__(self, "attributes", attrs)

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"group[{','.join(self.group_attrs)}; {self.vector!r}]"


@dataclass(frozen=True)
class PhysLimit(PhysOp):
    count: int
    child: PhysOp
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", self.child.attributes)

    def children(self) -> Tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"limit[{self.count}]"


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def flatten_conjuncts(predicate: Expr) -> List[Expr]:
    """Top-level AND conjuncts of *predicate* (nested ANDs flattened)."""
    if isinstance(predicate, Logical) and predicate.op == "and":
        out: List[Expr] = []
        for operand in predicate.operands:
            out.extend(flatten_conjuncts(operand))
        return out
    return [predicate]


def split_equi_keys(
    predicate: Expr, left_attrs: Tuple[str, ...], right_attrs: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Optional[Expr]]:
    """``(left_keys, right_keys, residual)`` for a hash join, or no keys.

    A conjunct qualifies as an equi-key when it is ``Attr = Attr`` with
    the two attributes on opposite sides of the join.
    """
    left_set = set(left_attrs)
    right_set = set(right_attrs)
    left_keys: List[str] = []
    right_keys: List[str] = []
    residual: List[Expr] = []
    for conjunct in flatten_conjuncts(predicate):
        if (
            isinstance(conjunct, BinOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if a in left_set and b in right_set:
                left_keys.append(a)
                right_keys.append(b)
                continue
            if b in left_set and a in right_set:
                left_keys.append(b)
                right_keys.append(a)
                continue
        residual.append(conjunct)
    rest = conjunction(residual) if residual else None
    return tuple(left_keys), tuple(right_keys), rest


def lower(plan: PlanNode) -> PhysOp:
    """Compile a logical plan tree into a physical operator tree."""
    if isinstance(plan, ScanNode):
        return PhysScan(plan.relation, plan.attributes)
    if isinstance(plan, SelectNode):
        return PhysFilter(plan.predicate, lower(plan.child))
    if isinstance(plan, JoinNode):
        left = lower(plan.left)
        right = lower(plan.right)
        left_keys, right_keys, residual = split_equi_keys(
            plan.predicate, left.attributes, right.attributes
        )
        if left_keys:
            return PhysHashJoin(
                plan.op,
                left_keys,
                right_keys,
                residual,
                left,
                right,
                plan.left_defaults,
                plan.right_defaults,
                plan.groupjoin_vector,
            )
        return PhysNLJoin(
            plan.op,
            plan.predicate,
            left,
            right,
            plan.left_defaults,
            plan.right_defaults,
            plan.groupjoin_vector,
        )
    if isinstance(plan, GroupByNode):
        return PhysGroupAgg(plan.group_attrs, plan.vector, plan.post, lower(plan.child))
    if isinstance(plan, MapNode):
        return PhysMap(plan.extensions, lower(plan.child))
    if isinstance(plan, ProjectNode):
        return PhysProject(plan.attributes, lower(plan.child))
    raise TypeError(f"unknown plan node {plan!r}")


def render_physical(op: PhysOp, indent: int = 0) -> str:
    """ASCII tree of a physical plan (mirrors ``plans.render``)."""
    lines = ["  " * indent + op.label()]
    for child in op.children():
        lines.append(render_physical(child, indent + 1))
    return "\n".join(lines)
