"""Rebinding cached plans to the requesting query's names.

The cache key (:mod:`repro.service.fingerprint`) is deliberately blind to
relation and attribute *names* — two queries that differ only in naming
are the same optimization problem.  But the cached
:class:`~repro.optimizer.driver.OptimizationResult` is not name-blind:
its plan scans relations and references attributes under the names of the
query that produced it.  Serving it verbatim to a renamed query would
reference relations that do not exist there.

Because the fingerprint embeds every relation's position and arity and
the snapshot embeds its statistics, a key match guarantees the two
queries are isomorphic under the positional mapping ``(vertex, attribute
position)``.  Rebinding applies exactly that mapping: every relation name
and every base-attribute name in the plan (and in the ``PlanInfo``'s
derived properties) is rewritten from the cached query's binding to the
requesting query's.  Synthetic columns (aggregate outputs, groupjoin
outputs, internal count columns) carry no relation names and pass through
unchanged — the fingerprint already pins them to be identical.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.aggregates.calls import AggCall
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Case, Const, Expr, IsNull, Logical, Not
from repro.optimizer.planinfo import PlanInfo
from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.query.spec import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.driver import OptimizationResult

#: (relation name, attribute names) per vertex — a query's naming.
Binding = Tuple[Tuple[str, Tuple[str, ...]], ...]


def query_binding(query: Query) -> Binding:
    """The naming a plan produced from *query* is bound to.

    Relations are listed in the fingerprint's canonical vertex order
    (:func:`repro.service.fingerprint.canonical_vertex_order`), not
    storage order: a cache-key match guarantees isomorphism under the
    *canonical* positional mapping, so the rename maps must zip in that
    order (two FROM-order spellings of one problem — e.g. ``RIGHT JOIN``
    and its mirrored ``LEFT JOIN`` — store their vertices differently).
    """
    from repro.service.fingerprint import canonical_vertex_order

    return tuple(
        (query.relations[vertex].name, query.relations[vertex].attributes)
        for vertex in canonical_vertex_order(query)
    )


class _Rebinder:
    """Positional rename maps between two isomorphic bindings."""

    def __init__(self, source: Binding, target: Binding):
        if len(source) != len(target):
            raise ValueError("bindings have different relation counts")
        self.relations: Dict[str, str] = {}
        self.attrs: Dict[str, str] = {}
        for (old_name, old_attrs), (new_name, new_attrs) in zip(source, target):
            if len(old_attrs) != len(new_attrs):
                raise ValueError("bindings have different relation arities")
            self.relations[old_name] = new_name
            for old_attr, new_attr in zip(old_attrs, new_attrs):
                self.attrs[old_attr] = new_attr

    def attr(self, name: str) -> str:
        return self.attrs.get(name, name)

    # -- expressions ---------------------------------------------------------
    def expr(self, expr: Expr) -> Expr:
        if isinstance(expr, Attr):
            return Attr(self.attr(expr.name))
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self.expr(expr.left), self.expr(expr.right))
        if isinstance(expr, Logical):
            return Logical(expr.op, tuple(self.expr(op) for op in expr.operands))
        if isinstance(expr, Not):
            return Not(self.expr(expr.operand))
        if isinstance(expr, IsNull):
            return IsNull(self.expr(expr.operand))
        if isinstance(expr, Case):
            return Case(self.expr(expr.condition), self.expr(expr.then), self.expr(expr.otherwise))
        raise TypeError(f"cannot rebind expression {expr!r}")

    def call(self, call: AggCall) -> AggCall:
        if call.arg is None:
            return call
        return AggCall(call.kind, self.expr(call.arg), call.distinct)

    def vector(self, vector: AggVector) -> AggVector:
        return AggVector(AggItem(self.attr(item.name), self.call(item.call)) for item in vector)

    # -- plan nodes ----------------------------------------------------------
    def node(self, node: PlanNode) -> PlanNode:
        if isinstance(node, ScanNode):
            return ScanNode(
                self.relations.get(node.relation, node.relation),
                tuple(self.attr(a) for a in node.attributes),
            )
        if isinstance(node, SelectNode):
            return SelectNode(self.expr(node.predicate), self.node(node.child))
        if isinstance(node, JoinNode):
            return JoinNode(
                op=node.op,
                predicate=self.expr(node.predicate),
                left=self.node(node.left),
                right=self.node(node.right),
                left_defaults=tuple((self.attr(n), v) for n, v in node.left_defaults),
                right_defaults=tuple((self.attr(n), v) for n, v in node.right_defaults),
                groupjoin_vector=(
                    self.vector(node.groupjoin_vector)
                    if node.groupjoin_vector is not None
                    else None
                ),
            )
        if isinstance(node, GroupByNode):
            return GroupByNode(
                group_attrs=tuple(self.attr(a) for a in node.group_attrs),
                vector=self.vector(node.vector),
                child=self.node(node.child),
                post=tuple((self.attr(n), self.expr(e)) for n, e in node.post),
            )
        if isinstance(node, MapNode):
            return MapNode(
                extensions=tuple((self.attr(n), self.expr(e)) for n, e in node.extensions),
                child=self.node(node.child),
            )
        if isinstance(node, ProjectNode):
            return ProjectNode(
                attributes=tuple(self.attr(a) for a in node.attributes),
                child=self.node(node.child),
            )
        raise TypeError(f"cannot rebind plan node {node!r}")

    # -- derived plan properties --------------------------------------------
    def planinfo(self, info: PlanInfo) -> PlanInfo:
        return replace(
            info,
            node=self.node(info.node),
            keys=tuple(frozenset(self.attr(a) for a in key) for key in info.keys),
            raw_attrs=frozenset(self.attr(a) for a in info.raw_attrs),
            distinct={self.attr(a): v for a, v in info.distinct.items()},
            terms={self.attr(n): self.call(c) for n, c in info.terms.items()},
            scale_cols=tuple(self.attr(c) for c in info.scale_cols),
            defaults={self.attr(n): v for n, v in info.defaults.items()},
            equiv=tuple(frozenset(self.attr(a) for a in cls) for cls in info.equiv),
        )


def rebind_result(
    result: "OptimizationResult",
    source: Binding,
    query: Query,
    target: Optional[Binding] = None,
) -> "OptimizationResult":
    """Re-express a cached *result* in *query*'s relation/attribute names.

    *source* is the binding of the query the result was computed for (as
    recorded by :func:`query_binding` at cache-store time); *target* is
    *query*'s own, for a caller that already holds it.  Identical
    bindings return the result unchanged.
    """
    if target is None:
        target = query_binding(query)
    if source == target:
        return result
    return replace(result, plan=_Rebinder(source, target).planinfo(result.plan))
