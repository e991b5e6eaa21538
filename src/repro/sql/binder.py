"""The binder: SQL AST + catalog → :class:`~repro.query.spec.Query`.

Responsibilities:

* name resolution (aliases, unqualified columns),
* building the initial operator tree (left-deep in FROM order — exactly the
  "straightforward" derivation the paper assumes, Sec. 4.1),
* classifying WHERE conjuncts into base-table predicates (with estimated
  selectivities), join predicates merged into cross-join edges, and
  cycle-closing equijoins,
* decorrelating ``[NOT] EXISTS`` / ``[NOT] IN`` subqueries into
  semijoin / antijoin edges applied on top of the outer tree,
* normalizing ``RIGHT [OUTER] JOIN`` to a left outerjoin with swapped
  inputs,
* assembling the aggregation vector and grouping attributes.

Operator mapping (the full surface of Eich & Moerkotte's algebra):

================================  =======================================
SQL construct                      :class:`~repro.rewrites.pushdown.OpKind`
================================  =======================================
``JOIN ... ON`` / ``INNER JOIN``   ``INNER``
``FROM a, b`` / ``CROSS JOIN``     ``INNER`` (TRUE predicate; WHERE
                                   equijoins merge into the edge)
``LEFT [OUTER] JOIN``              ``LEFT_OUTER``
``RIGHT [OUTER] JOIN``             ``LEFT_OUTER`` with swapped inputs
``FULL [OUTER] JOIN``              ``FULL_OUTER``
``EXISTS (subquery)``              ``LEFT_SEMI``
``NOT EXISTS (subquery)``          ``LEFT_ANTI``
``x IN (subquery)``                ``LEFT_SEMI`` on ``x = selected``
``x NOT IN (subquery)``            ``LEFT_ANTI`` on ``x = selected``
================================  =======================================

``NOT IN`` caveat: SQL's ``NOT IN`` yields UNKNOWN for every row once the
subquery produces a NULL, which an antijoin does not model.  The binder
deliberately binds ``NOT IN`` to the antijoin (``NOT EXISTS`` semantics),
the rewrite every practical optimizer applies when the compared columns
are non-nullable.

Subqueries share one flat namespace with the outer query: every alias
must be unique across the whole statement, and unqualified columns are
resolved against the tables in scope at their syntactic position (outer
tables for outer conjuncts; outer *and* subquery tables inside a
subquery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Const, Expr, IsNull, Logical, Not
from repro.query.spec import JoinEdge, Query, RelationInfo
from repro.query.tree import Tree, TreeLeaf, TreeNode, tree_leaves
from repro.rewrites.pushdown import OpKind
from repro.sql.catalog import Catalog
from repro.sql.parser import (
    Binary,
    ColumnRef,
    Exists,
    FuncCall,
    InSubquery,
    IsNullExpr,
    JoinClause,
    Literal,
    NotExpr,
    SelectStmt,
    SqlExpr,
    TableRef,
    parse_select,
)

_AGG_KINDS = {
    "sum": AggKind.SUM,
    "count": AggKind.COUNT,
    "min": AggKind.MIN,
    "max": AggKind.MAX,
    "avg": AggKind.AVG,
}
#: default selectivity for range predicates (the classic System-R guess)
RANGE_SELECTIVITY = 1.0 / 3.0
#: default selectivity for ``IS NULL`` (few rows are NULL in practice)
NULL_SELECTIVITY = 0.1
#: floor keeping every estimate inside JoinEdge's (0, 1] contract
MIN_SELECTIVITY = 1e-12


class BindError(ValueError):
    """Raised when the statement cannot be bound against the catalog."""


@dataclass
class _Scope:
    """Alias → (vertex index, RelationInfo, unqualified column set)."""

    relations: List[RelationInfo]
    by_alias: Dict[str, int]
    columns: Dict[str, List[str]]  # unqualified column -> [alias, ...]

    def resolve(self, ref: ColumnRef) -> str:
        if ref.table is not None:
            if ref.table not in self.by_alias:
                raise BindError(f"unknown table or alias {ref.table!r}")
            attr = f"{ref.table}.{ref.column}"
            vertex = self.by_alias[ref.table]
            if attr not in self.relations[vertex].attributes:
                raise BindError(f"table {ref.table!r} has no column {ref.column!r}")
            return attr
        owners = self.columns.get(ref.column, [])
        if not owners:
            raise BindError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise BindError(f"ambiguous column {ref.column!r} (in {sorted(owners)})")
        return f"{owners[0]}.{ref.column}"

    def vertex_of_attr(self, attr: str) -> int:
        alias = attr.split(".", 1)[0]
        return self.by_alias[alias]

    def distinct_of(self, attr: str) -> float:
        vertex = self.vertex_of_attr(attr)
        return self.relations[vertex].distinct_count(attr)


def bind(stmt: SelectStmt, catalog: Catalog) -> Query:
    """Bind a parsed statement against *catalog*."""
    return _Binder(catalog).bind(stmt)


def parse_query(sql: str, catalog: Catalog) -> Query:
    """Parse and bind in one step."""
    return bind(parse_select(sql), catalog)


# --------------------------------------------------------------------------

class _Binder:
    """One statement's binding pass: scope + tree + edges under construction."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.scope = _Scope([], {}, {})
        self.edges: List[JoinEdge] = []
        #: edge ids carrying a placeholder TRUE predicate (comma-FROM /
        #: CROSS JOIN) that WHERE join conjuncts may merge into.
        self.cross_edge_ids: set = set()

    def bind(self, stmt: SelectStmt) -> Query:
        for ref in stmt.tables:
            self._add_table(ref)
        for join in stmt.joins:
            self._add_table(join.table)
        outer_vertex_count = len(self.scope.relations)

        tree = self._build_tree(stmt.tables, stmt.joins)

        # Resolve the output shape against the *outer* scope only — before
        # any subquery extends it — so grouping or aggregating over an
        # attribute hidden inside an EXISTS subquery cannot bind.
        group_by = tuple(self.scope.resolve(ref) for ref in stmt.group_by)
        aggregates = self._build_aggregates(stmt, group_by)

        local_predicates: Dict[int, Tuple[Expr, float]] = {}
        floating_conjuncts: List[SqlExpr] = []
        subquery_conjuncts: List[SqlExpr] = []
        if stmt.where is not None:
            for conjunct in _conjuncts(stmt.where):
                if isinstance(conjunct, (Exists, InSubquery)):
                    subquery_conjuncts.append(conjunct)
                    continue
                tree = self._classify_conjunct(
                    conjunct, tree, local_predicates, floating_conjuncts
                )

        for conjunct in subquery_conjuncts:
            tree = self._bind_subquery_conjunct(
                conjunct, tree, outer_vertex_count, local_predicates
            )

        self._append_floating_edges(floating_conjuncts)
        return Query(
            self.scope.relations, self.edges, tree, group_by, aggregates,
            local_predicates=local_predicates,
        )

    # -- scope -------------------------------------------------------------
    def _add_table(self, ref: TableRef) -> int:
        stats = self.catalog.lookup(ref.table)
        if stats is None:
            raise BindError(f"unknown table {ref.table!r}")
        alias = ref.alias or ref.table
        if alias in self.scope.by_alias:
            raise BindError(f"duplicate table alias {alias!r}")
        attrs = tuple(f"{alias}.{c}" for c in stats.columns)
        distinct = {f"{alias}.{c}": v for c, v in stats.distinct.items()}
        keys = tuple(frozenset(f"{alias}.{c}" for c in key) for key in stats.keys)
        vertex = len(self.scope.relations)
        self.scope.by_alias[alias] = vertex
        self.scope.relations.append(
            RelationInfo(alias, attrs, stats.cardinality, distinct, keys, source=stats.name)
        )
        for column in stats.columns:
            self.scope.columns.setdefault(column, []).append(alias)
        return vertex

    def _vertex_of(self, ref: TableRef) -> int:
        return self.scope.by_alias[ref.alias or ref.table]

    # -- the initial operator tree ------------------------------------------
    def _build_tree(
        self, tables: Sequence[TableRef], joins: Sequence[JoinClause]
    ) -> Tree:
        """FROM-order tree with SQL precedence: JOIN binds tighter than the
        comma, so the join clauses extend the *last* FROM item and the
        comma items cross in above the join group (``FROM a, b JOIN c``
        means ``a × (b ⋈ c)``, and a WHERE equijoin over the boundary
        merges into the cross edge — i.e. applies after the join)."""
        join_group = self._apply_joins(
            TreeLeaf(self._vertex_of(tables[-1])), joins
        )
        if len(tables) == 1:
            return join_group
        tree: Tree = TreeLeaf(self._vertex_of(tables[0]))
        for ref in tables[1:-1]:
            tree = self._cross(tree, TreeLeaf(self._vertex_of(ref)))
        return self._cross(tree, join_group)

    def _apply_joins(self, tree: Tree, joins: Sequence[JoinClause]) -> Tree:
        for join in joins:
            vertex = self._vertex_of(join.table)
            if join.kind == "cross":
                tree = self._cross(tree, TreeLeaf(vertex))
                continue
            assert join.condition is not None
            predicate = self._bind_scalar(join.condition)
            in_scope = tree_leaves(tree) | (1 << vertex)
            for attr in predicate.attributes():
                if not (1 << self.scope.vertex_of_attr(attr)) & in_scope:
                    raise BindError(
                        f"the ON clause may only reference tables of its "
                        f"join group, not {attr.split('.', 1)[0]!r} "
                        "(comma-listed FROM items bind looser than JOIN)"
                    )
            selectivity = self._join_selectivity(join.condition)
            if join.kind == "right":
                # a RIGHT JOIN b  ≡  b LEFT JOIN a: same edge, swapped inputs.
                edge = JoinEdge(len(self.edges), OpKind.LEFT_OUTER, predicate, selectivity)
                self.edges.append(edge)
                tree = TreeNode(edge.edge_id, TreeLeaf(vertex), tree)
                continue
            op = {
                "inner": OpKind.INNER,
                "left": OpKind.LEFT_OUTER,
                "full": OpKind.FULL_OUTER,
            }[join.kind]
            edge = JoinEdge(len(self.edges), op, predicate, selectivity)
            self.edges.append(edge)
            tree = TreeNode(edge.edge_id, tree, TreeLeaf(vertex))
        return tree

    def _cross(self, left: Tree, right: Tree) -> Tree:
        edge = JoinEdge(len(self.edges), OpKind.INNER, Const(True), 1.0)
        self.edges.append(edge)
        self.cross_edge_ids.add(edge.edge_id)
        return TreeNode(edge.edge_id, left, right)

    # -- WHERE classification -----------------------------------------------
    def _classify_conjunct(
        self,
        conjunct: SqlExpr,
        tree: Tree,
        local_predicates: Dict[int, Tuple[Expr, float]],
        floating_conjuncts: List[SqlExpr],
    ) -> Tree:
        """Route one non-subquery WHERE conjunct; returns the (possibly
        predicate-merged) tree."""
        bound = self._bind_scalar(conjunct)
        vertices = sorted({self.scope.vertex_of_attr(a) for a in bound.attributes()})
        if not vertices:
            # A constant conjunct has no leaf to live on — pushing it to an
            # arbitrary vertex changes outer-join results.
            raise BindError(
                f"a WHERE conjunct must reference at least one table column: {conjunct!r}"
            )
        if len(vertices) == 1:
            selectivity = self._local_selectivity(conjunct)
            _append_local(local_predicates, vertices[0], bound, selectivity)
            return tree
        if len(vertices) == 2:
            merged = self._merge_into_cross_edge(tree, vertices, bound, conjunct)
            if merged is not None:
                return merged
            if isinstance(conjunct, Binary) and conjunct.op == "=":
                floating_conjuncts.append(conjunct)
                return tree
        raise BindError(
            "unsupported WHERE conjunct (must be single-table, a join "
            f"predicate over two tables, or a binary equijoin): {conjunct!r}"
        )

    def _merge_into_cross_edge(
        self, node: Tree, vertices: List[int], bound: Expr, conjunct: SqlExpr
    ) -> Optional[Tree]:
        """AND *bound* into the TRUE cross edge of *node*'s tree that
        separates *vertices*, at the lowest such edge.

        ``FROM a, b WHERE a.x = b.x`` turns the placeholder cross product
        into a proper join edge; returns the rebuilt tree, or None when no
        cross edge splits the two vertices (the conjunct then falls back
        to a floating edge).  The method recurses on itself, not through a
        nested closure, which would be a reference cycle left for the
        collector on every statement that closes a cycle in WHERE.
        """
        if isinstance(node, TreeLeaf):
            return None
        v1, v2 = (1 << vertices[0]), (1 << vertices[1])
        left_set, right_set = tree_leaves(node.left), tree_leaves(node.right)
        both = v1 | v2
        if ((left_set | right_set) & both) != both:
            return None
        # Recurse first: merge at the lowest separating edge.
        for attr, child in (("left", node.left), ("right", node.right)):
            replaced = self._merge_into_cross_edge(child, vertices, bound, conjunct)
            if replaced is not None:
                return TreeNode(
                    node.edge_id,
                    replaced if attr == "left" else node.left,
                    replaced if attr == "right" else node.right,
                )
        separates = (left_set & v1 and right_set & v2) or (
            left_set & v2 and right_set & v1
        )
        if not separates or node.edge_id not in self.cross_edge_ids:
            return None
        old = self.edges[node.edge_id]
        predicate = (
            bound if isinstance(old.predicate, Const)
            else Logical("and", (old.predicate, bound))
        )
        selectivity = max(
            MIN_SELECTIVITY, old.selectivity * self._join_selectivity(conjunct)
        )
        self.edges[node.edge_id] = JoinEdge(
            old.edge_id, old.op, predicate, selectivity
        )
        return node

    def _append_floating_edges(self, conjuncts: List[SqlExpr]) -> None:
        if not conjuncts:
            return
        if any(edge.op is not OpKind.INNER for edge in self.edges):
            raise BindError(
                "a WHERE equijoin that closes a cycle requires an "
                "all-inner-join query (outer joins, semijoins and antijoins "
                "pin predicates to their operators)"
            )
        for conjunct in conjuncts:
            self.edges.append(
                JoinEdge(
                    len(self.edges), OpKind.INNER,
                    self._bind_scalar(conjunct),
                    self._join_selectivity(conjunct),
                )
            )

    # -- subqueries → semijoin / antijoin edges ------------------------------
    def _bind_subquery_conjunct(
        self,
        conjunct: SqlExpr,
        tree: Tree,
        outer_vertex_count: int,
        local_predicates: Dict[int, Tuple[Expr, float]],
    ) -> Tree:
        if isinstance(conjunct, Exists):
            subquery, negated, needle = conjunct.subquery, conjunct.negated, None
        else:
            assert isinstance(conjunct, InSubquery)
            subquery, negated, needle = conjunct.subquery, conjunct.negated, conjunct.needle
            if subquery.select is None:
                raise BindError(
                    "an IN subquery must select exactly one plain column "
                    "(SELECT <column> FROM ...)"
                )

        # The IN needle binds against the *outer* scope as it stood — check
        # before the subquery's tables join the namespace.
        bound_needle = self._bind_scalar(needle) if needle is not None else None
        if bound_needle is not None:
            needle_vertices = {
                self.scope.vertex_of_attr(a) for a in bound_needle.attributes()
            }
            if any(v >= outer_vertex_count for v in needle_vertices):
                raise BindError(
                    "the left side of IN must reference outer tables only"
                )

        sub_start = len(self.scope.relations)
        for ref in subquery.tables:
            self._add_table(ref)
        for join in subquery.joins:
            self._add_table(join.table)
        sub_tree = self._build_tree(subquery.tables, subquery.joins)

        correlation: List[Expr] = []
        selectivity = 1.0
        if bound_needle is not None:
            selected = self._bind_scalar(subquery.select)
            sel_vertices = {
                self.scope.vertex_of_attr(a) for a in selected.attributes()
            }
            if any(v < sub_start for v in sel_vertices):
                raise BindError(
                    "the IN subquery's selected column must come from the "
                    "subquery's own tables"
                )
            correlation.append(BinOp("=", bound_needle, selected))
            # Estimate from the already-bound sides: re-resolving the raw
            # needle here would see the subquery's tables in scope and
            # mis-flag an unqualified needle column as ambiguous.
            selectivity *= self._bound_equality_selectivity(bound_needle, selected)

        if subquery.where is not None:
            for sub_conjunct in _conjuncts(subquery.where):
                if isinstance(sub_conjunct, (Exists, InSubquery)):
                    raise BindError(
                        "nested EXISTS/IN subqueries are not supported"
                    )
                bound = self._bind_scalar(sub_conjunct)
                vertices = sorted(
                    {self.scope.vertex_of_attr(a) for a in bound.attributes()}
                )
                if any(outer_vertex_count <= v < sub_start for v in vertices):
                    # References an earlier subquery's tables — out of scope.
                    raise BindError(
                        "a subquery predicate may only reference its own "
                        f"tables and the outer query's tables: {sub_conjunct!r}"
                    )
                inner = [v for v in vertices if v >= sub_start]
                outer = [v for v in vertices if v < sub_start]
                if outer and inner:
                    correlation.append(bound)
                    selectivity *= self._conjunct_selectivity(sub_conjunct)
                elif inner:
                    if len(inner) == 1:
                        _append_local(
                            local_predicates, inner[0], bound,
                            self._local_selectivity(sub_conjunct),
                        )
                    else:
                        merged = (
                            self._merge_into_cross_edge(
                                sub_tree, inner, bound, sub_conjunct
                            )
                            if len(inner) == 2 else None
                        )
                        if merged is None:
                            raise BindError(
                                "a multi-table subquery predicate must join "
                                "exactly two comma-listed subquery tables: "
                                f"{sub_conjunct!r}"
                            )
                        sub_tree = merged
                else:
                    raise BindError(
                        "a subquery predicate referencing only outer tables "
                        f"belongs in the outer WHERE clause: {sub_conjunct!r}"
                    )

        predicate: Expr = (
            Logical("and", tuple(correlation)) if len(correlation) > 1
            else correlation[0] if correlation else Const(True)
        )
        op = OpKind.LEFT_ANTI if negated else OpKind.LEFT_SEMI
        edge = JoinEdge(
            len(self.edges), op, predicate, max(MIN_SELECTIVITY, selectivity)
        )
        self.edges.append(edge)
        return TreeNode(edge.edge_id, tree, sub_tree)

    # -- scalar expressions ---------------------------------------------------
    def _bind_scalar(self, expr: SqlExpr) -> Expr:
        if isinstance(expr, ColumnRef):
            return Attr(self.scope.resolve(expr))
        if isinstance(expr, Literal):
            return Const(expr.value)
        if isinstance(expr, Binary):
            if expr.op in ("and", "or"):
                return Logical(
                    expr.op,
                    (self._bind_scalar(expr.left), self._bind_scalar(expr.right)),
                )
            return BinOp(
                expr.op, self._bind_scalar(expr.left), self._bind_scalar(expr.right)
            )
        if isinstance(expr, NotExpr):
            return Not(self._bind_scalar(expr.operand))
        if isinstance(expr, IsNullExpr):
            test = IsNull(self._bind_scalar(expr.operand))
            return Not(test) if expr.negated else test
        if isinstance(expr, (Exists, InSubquery)):
            raise BindError(
                "EXISTS/IN subqueries are only supported as top-level WHERE "
                "conjuncts (not under OR or inside expressions)"
            )
        if isinstance(expr, FuncCall):
            raise BindError("aggregate calls are only allowed in the SELECT list")
        raise AssertionError(f"unhandled SQL expression {expr!r}")

    # -- selectivities --------------------------------------------------------
    def _join_selectivity(self, condition: SqlExpr) -> float:
        """σ for a join condition: 1/max(d) per equijoin conjunct, 1/3 else."""
        selectivity = 1.0
        for conjunct in _conjuncts(condition):
            selectivity *= self._conjunct_selectivity(conjunct)
        return max(selectivity, MIN_SELECTIVITY)

    def _bound_equality_selectivity(self, left: Expr, right: Expr) -> float:
        """1/max(d) for an equality over two already-bound attributes."""
        if isinstance(left, Attr) and isinstance(right, Attr):
            d1 = self.scope.distinct_of(left.name)
            d2 = self.scope.distinct_of(right.name)
            return 1.0 / max(d1, d2)
        return RANGE_SELECTIVITY

    def _conjunct_selectivity(self, conjunct: SqlExpr) -> float:
        if (
            isinstance(conjunct, Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            d1 = self.scope.distinct_of(self.scope.resolve(conjunct.left))
            d2 = self.scope.distinct_of(self.scope.resolve(conjunct.right))
            return 1.0 / max(d1, d2)
        return RANGE_SELECTIVITY

    def _local_selectivity(self, conjunct: SqlExpr) -> float:
        """Equality with a constant → 1/d; IS [NOT] NULL → 0.1/0.9;
        NOT p → 1 − σ(p); ranges and everything else → 1/3."""
        if isinstance(conjunct, IsNullExpr):
            base = NULL_SELECTIVITY
            return (1.0 - base) if conjunct.negated else base
        if isinstance(conjunct, NotExpr):
            return min(
                1.0, max(MIN_SELECTIVITY, 1.0 - self._local_selectivity(conjunct.operand))
            )
        if isinstance(conjunct, Binary) and conjunct.op == "=":
            column = None
            if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
                column = conjunct.left
            elif isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
                column = conjunct.right
            if column is not None:
                return 1.0 / self.scope.distinct_of(self.scope.resolve(column))
        return RANGE_SELECTIVITY

    # -- aggregation -----------------------------------------------------------
    def _build_aggregates(self, stmt: SelectStmt, group_by: Tuple[str, ...]) -> AggVector:
        items: List[AggItem] = []
        counter = 0
        for item in stmt.items:
            if isinstance(item.expr, ColumnRef):
                attr = self.scope.resolve(item.expr)
                if attr not in group_by:
                    raise BindError(
                        f"column {attr} appears in SELECT but not in GROUP BY"
                    )
                continue
            if isinstance(item.expr, FuncCall):
                call = self._bind_aggregate(item.expr)
                name = item.alias or f"agg{counter}"
                counter += 1
                items.append(AggItem(name, call))
                continue
            raise BindError(f"unsupported SELECT item {item.expr!r}")
        if not items:
            raise BindError("the SELECT list needs at least one aggregate")
        return AggVector(items)

    def _bind_aggregate(self, call: FuncCall) -> AggCall:
        if call.name not in _AGG_KINDS:
            raise BindError(f"unknown aggregate function {call.name!r}")
        if call.argument is None:
            return AggCall(AggKind.COUNT_STAR)
        return AggCall(_AGG_KINDS[call.name], self._bind_scalar(call.argument), call.distinct)


# --------------------------------------------------------------------------

def _conjuncts(expr: SqlExpr):
    if isinstance(expr, Binary) and expr.op == "and":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _append_local(
    local_predicates: Dict[int, Tuple[Expr, float]],
    vertex: int,
    bound: Expr,
    selectivity: float,
) -> None:
    existing = local_predicates.get(vertex)
    if existing is None:
        local_predicates[vertex] = (bound, selectivity)
    else:
        combined = Logical("and", (existing[0], bound))
        local_predicates[vertex] = (
            combined, max(MIN_SELECTIVITY, existing[1] * selectivity)
        )


