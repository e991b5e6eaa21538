"""The query specification consumed by every plan generator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.aggregates.transform import normalize_avg
from repro.aggregates.vector import AggVector
from repro.algebra.expressions import Expr, attrs_of
from repro.query.tree import Tree, TreeLeaf, tree_leaves, tree_operators
from repro.rewrites.pushdown import OpKind


@dataclass(frozen=True)
class RelationInfo:
    """A base relation with optimizer statistics.

    Attributes:
        name: relation name (also the executor's lookup key).
        attributes: qualified attribute names (``"s.nationkey"``).
        cardinality: estimated/true row count.
        distinct: per-attribute distinct value counts; attributes missing
            from the mapping default to the relation cardinality.
        keys: declared candidate keys.  Only *declared* keys participate in
            κ computation and ``NeedsGrouping`` — key-ness is a semantic
            guarantee (Sec. 2.3: "specified in the database schema"), and
            inferring it from approximate statistics would make
            top-grouping elimination (Eqv. 42) unsound.
        source: the catalog base table this relation's statistics came
            from, when ``name`` is a query-local alias.  Plan-cache
            invalidation tracks tables by this name; None means ``name``
            is the table itself.
    """

    name: str
    attributes: Tuple[str, ...]
    cardinality: float
    distinct: Mapping[str, float] = field(default_factory=dict)
    keys: Tuple[FrozenSet[str], ...] = ()
    source: Optional[str] = None

    @property
    def source_table(self) -> str:
        """The base-table name catalog invalidation should match on."""
        return self.source or self.name

    def distinct_count(self, attr: str) -> float:
        base = self.distinct.get(attr, self.cardinality)
        return max(1.0, min(float(base), float(self.cardinality)))

    def all_keys(self) -> Tuple[FrozenSet[str], ...]:
        """The declared candidate keys."""
        return tuple(self.keys)

    @property
    def duplicate_free(self) -> bool:
        """Base relations with a key are duplicate-free (SQL semantics)."""
        return bool(self.all_keys())


@dataclass(frozen=True)
class JoinEdge:
    """One operator of the initial tree: kind, predicate, selectivity."""

    edge_id: int
    op: OpKind
    predicate: Expr
    selectivity: float
    groupjoin_vector: Optional[AggVector] = None

    def __post_init__(self) -> None:
        if self.op is OpKind.GROUPJOIN and self.groupjoin_vector is None:
            raise ValueError("groupjoin edges need an aggregation vector")
        if not (0.0 < self.selectivity <= 1.0):
            raise ValueError(f"selectivity must be in (0, 1], got {self.selectivity}")


class Query:
    """Relations, join edges, the initial tree, grouping and aggregation.

    On construction the query normalises plain ``avg`` aggregates into
    (sum, countNN) pairs plus final division expressions (Sec. 2.1.2) —
    the optimizer works exclusively on the normalised vector and the final
    plan re-assembles the original outputs.
    """

    def __init__(
        self,
        relations: Sequence[RelationInfo],
        edges: Sequence[JoinEdge],
        tree: Tree,
        group_by: Sequence[str],
        aggregates: AggVector,
        local_predicates: Optional[Mapping[int, Tuple[Expr, float]]] = None,
    ):
        self.relations: Tuple[RelationInfo, ...] = tuple(relations)
        self.edges: Tuple[JoinEdge, ...] = tuple(edges)
        self.tree = tree
        self.group_by: Tuple[str, ...] = tuple(group_by)
        self.aggregates = aggregates
        self.normalized = normalize_avg(aggregates)
        #: per-vertex base-table selections: vertex → (predicate, selectivity)
        self.local_predicates: Dict[int, Tuple[Expr, float]] = dict(local_predicates or {})

        tree_edge_ids = {node.edge_id for node in tree_operators(tree)}
        #: edges not part of the initial tree: cycle-closing WHERE predicates
        #: (TPC-H Q5).  Only inner joins support them — in the presence of
        #: outer joins a WHERE predicate cannot float into the join tree.
        self.floating_edge_ids: Tuple[int, ...] = tuple(
            e.edge_id for e in self.edges if e.edge_id not in tree_edge_ids
        )
        if self.floating_edge_ids and any(e.op is not OpKind.INNER for e in self.edges):
            raise ValueError("floating (cycle) edges require an all-inner-join query")

        self._attr_to_vertex: Dict[str, int] = {}
        for vertex, rel in enumerate(self.relations):
            for attr in rel.attributes:
                if attr in self._attr_to_vertex:
                    raise ValueError(f"attribute {attr!r} defined by two relations")
                self._attr_to_vertex[attr] = vertex

        if {leaf for leaf in self._tree_vertices()} != set(range(len(self.relations))):
            raise ValueError("initial tree must reference every relation exactly once")

        for attr in self.group_by:
            if attr not in self._attr_to_vertex and attr not in self._groupjoin_outputs():
                raise ValueError(f"unknown grouping attribute {attr!r}")

        self.all_relations_mask = (1 << len(self.relations)) - 1
        self._sides: Optional[Dict[int, Tuple[int, int]]] = None  # _operator_sides
        self._users = None  # _attribute_users

    # -- helpers -------------------------------------------------------------
    def _tree_vertices(self):
        def walk(node):
            if isinstance(node, TreeLeaf):
                yield node.vertex
            else:
                yield from walk(node.left)
                yield from walk(node.right)

        yield from walk(self.tree)

    def _groupjoin_outputs(self) -> FrozenSet[str]:
        names: set = set()
        for edge in self.edges:
            if edge.groupjoin_vector is not None:
                names.update(edge.groupjoin_vector.names())
        return frozenset(names)

    def edge(self, edge_id: int) -> JoinEdge:
        return self.edges[edge_id]

    def vertex_of(self, attr: str) -> int:
        """The base relation (vertex index) providing *attr*."""
        return self._attr_to_vertex[attr]

    def vertices_of(self, attrs) -> int:
        """Bitset of relations providing any of *attrs*.

        A groupjoin output only exists once its groupjoin edge has been
        applied, so it maps to the union of both subtrees of that edge —
        the smallest relation set whose plans can carry the attribute.
        """
        mask = 0
        gj_outputs = self._groupjoin_outputs()
        for attr in attrs:
            if attr in self._attr_to_vertex:
                mask |= 1 << self._attr_to_vertex[attr]
            elif attr in gj_outputs:
                mask |= self._groupjoin_edge_mask(attr)
            else:
                raise KeyError(f"unknown attribute {attr!r}")
        return mask

    def _groupjoin_edge_mask(self, attr: str) -> int:
        for node in tree_operators(self.tree):
            edge = self.edges[node.edge_id]
            if edge.groupjoin_vector is not None and attr in edge.groupjoin_vector.names():
                return tree_leaves(node.left) | tree_leaves(node.right)
        raise KeyError(attr)

    def groupjoin_scaling_requirements(self) -> List[Tuple[int, bool]]:
        """Per groupjoin edge: (right-subtree mask, F̂ duplicate sensitive).

        A grouping pushed inside a groupjoin's *right* subtree collapses the
        rows its aggregation vector F̂ consumes; when F̂ is duplicate
        sensitive, the grouping must introduce a count column so the
        groupjoin node can ⊗-scale F̂.
        """
        requirements: List[Tuple[int, bool]] = []
        for node in tree_operators(self.tree):
            edge = self.edges[node.edge_id]
            if edge.groupjoin_vector is not None:
                sensitive = any(
                    item.call.duplicate_sensitive for item in edge.groupjoin_vector
                )
                requirements.append((tree_leaves(node.right), sensitive))
        return requirements

    def _operator_sides(self) -> Dict[int, Tuple[int, int]]:
        """Tree edge id → the relation sets below its operator's two inputs."""
        if self._sides is None:
            self._sides = {
                node.edge_id: (tree_leaves(node.left), tree_leaves(node.right))
                for node in tree_operators(self.tree)
            }
        return self._sides

    # -- attribute bookkeeping used by the optimizer ---------------------------
    def relation_attrs(self, mask: int) -> FrozenSet[str]:
        """All base attributes of the relations in bitset *mask*."""
        attrs: set = set()
        for vertex, rel in enumerate(self.relations):
            if mask & (1 << vertex):
                attrs.update(rel.attributes)
        return frozenset(attrs)

    def needed_above(self, mask: int) -> FrozenSet[str]:
        """Attributes of *mask*-relations still needed above a plan for *mask*.

        These are: the query grouping attributes, the attributes referenced
        by any join edge crossing the boundary of *mask* (including
        groupjoin aggregation vectors), and the attributes of aggregates
        whose sources straddle the boundary (they must survive raw).
        """
        group_by, users = self._attribute_users()
        outside = ~mask
        beyond = outside & self.all_relations_mask
        # An attribute is the plan's own when its home lies inside *mask*.
        needed = {attr for attr, home in group_by if not home & outside}
        for inside, crossing, attrs in users:
            if inside & mask and crossing & beyond:
                needed.update(attr for attr, home in attrs if not home & outside)
        return frozenset(needed)

    def _attribute_users(self):
        """What :meth:`needed_above` reads of the query, computed once:
        the grouping attributes, and per join edge and per aggregate the
        attributes it references — each attribute paired with its *home*,
        the smallest relation set whose plans carry it (its relation; for
        a groupjoin output, both subtrees of its edge) — together with the
        relation sets that make it a boundary crosser of a plan for *mask*:
        it must touch ``inside & mask`` and ``crossing & ~mask``."""
        if self._users is None:
            homes = {attr: 1 << vertex for attr, vertex in self._attr_to_vertex.items()}
            for name in self._groupjoin_outputs():
                homes[name] = self._groupjoin_edge_mask(name)

            def housed(attrs):
                return tuple((a, homes[a]) for a in attrs if a in homes)

            users = []
            for edge in self.edges:
                referenced = attrs_of(edge.predicate)
                if edge.groupjoin_vector is not None:
                    referenced = referenced | edge.groupjoin_vector.attributes()
                touched = self.vertices_of(a for a in referenced if a in self._attr_to_vertex)
                # A predicate mentioning one input of its operator only (``ON
                # 1 = s.k``) is still applied where both meet: pad the other
                # side as the conflict detector pads the edge's TES.
                for side in self._operator_sides().get(edge.edge_id, ()):
                    if touched and not touched & side:
                        touched |= side & -side
                users.append((touched, touched, housed(referenced)))
            for item in self.normalized.vector:
                src = item.call.attributes()
                if src:
                    # Needed raw wherever part of the source is still missing.
                    users.append((-1, self.vertices_of(src), housed(src)))
            self._users = (housed(self.group_by), tuple(users))
        return self._users

    def __repr__(self) -> str:
        return (
            f"Query({len(self.relations)} relations, {len(self.edges)} edges, "
            f"group_by={list(self.group_by)}, F={self.aggregates!r})"
        )
