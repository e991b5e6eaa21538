"""Query fingerprints: cache keys that survive renaming and reordering.

A plan cache is only useful when syntactically different spellings of the
same optimization problem map to the same key.  Two :class:`~repro.query.spec.Query`
objects describe the same problem whenever they differ only in

* **relation / attribute names** — the optimizer never looks at names,
  only at vertex indices and attribute positions, and
* **predicate spelling** — operand order of commutative operators
  (``a = b`` vs ``b = a``), conjunct order inside ``AND``/``OR``, and the
  direction of comparisons (``a < b`` vs ``b > a``).

* **relation numbering** — ``a RIGHT JOIN b`` normalizes to ``b LEFT
  JOIN a`` with the vertices in the opposite storage order; the problem
  is the same one the mirrored ``LEFT JOIN`` spelling produces.

The fingerprint therefore serializes the query *structurally*: vertices
are renumbered by their first appearance in a pre-order walk of the
initial operator tree (:func:`canonical_vertex_order`), attributes
become ``?<canonical vertex>#<position>`` tokens, expressions are
canonicalised S-expressions (commutative operands sorted, comparisons
flipped to ``<``/``<=``), and join operators are embedded at their
position in the initial operator tree so edge ids never leak into the
key.  Rebinding (:mod:`repro.service.rebind`) maps cached plans between
key-equal queries by the same canonical order, so the wider equivalence
class stays servable.

Statistics are deliberately kept out of the fingerprint and hashed into a
separate **cardinality snapshot**: a catalog update (new row counts,
changed selectivities) changes the snapshot but not the fingerprint, which
lets a cache distinguish "same query, stale statistics" from "new query".

The full cache key is fingerprint + snapshot + strategy + cost model
(Sec. 4's plan generators produce different plans, and so do differently
priced searches, so neither may share entries); :func:`plan_key` derives
it from an :class:`~repro.optimizer.config.OptimizerConfig` for every
cache user below the transports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algebra.expressions import Attr, BinOp, Case, Const, Expr, IsNull, Logical, Not
from repro.aggregates.calls import AggCall
from repro.aggregates.vector import AggVector
from repro.optimizer.registry import STRATEGIES
from repro.optimizer.strategies import Strategy
from repro.query.spec import Query
from repro.query.tree import Tree, TreeLeaf, tree_operators

#: comparison directions normalised away: ``a > b`` ≡ ``b < a``.
_FLIP = {">": "<", ">=": "<="}
#: operators whose operand order is semantically irrelevant.
_COMMUTATIVE = {"=", "<>", "+", "*"}


@dataclass(frozen=True)
class PlanCacheKey:
    """Hashable cache key: structure + statistics + plan generator + cost model."""

    fingerprint: str
    snapshot: str
    strategy: str
    factor: Optional[float] = None
    cost_model: str = "cout"

    def digest(self) -> str:
        """A single stable hex digest (handy for logging / sharding)."""
        payload = (
            f"{self.fingerprint}|{self.snapshot}|{self.strategy}|{self.factor}"
            f"|{self.cost_model}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def canonical_vertex_order(query: Query) -> Tuple[int, ...]:
    """Storage vertex indices in pre-order of the initial tree's leaves.

    This is the numbering the fingerprint, the snapshot and plan
    rebinding all share: it makes the key invariant under FROM-order
    permutations that produce the same initial tree — most importantly
    the ``RIGHT JOIN`` → swapped ``LEFT JOIN`` normalization.
    """
    return tuple(query._tree_vertices())


class _Canonicalizer:
    """Maps one query's attribute names to canonical position tokens."""

    def __init__(self, query: Query):
        self.query = query
        self.vertex_order = canonical_vertex_order(query)
        self._canonical_index: Dict[int, int] = {
            vertex: index for index, vertex in enumerate(self.vertex_order)
        }
        self._attr_token: Dict[str, str] = {}
        for vertex, rel in enumerate(query.relations):
            for position, attr in enumerate(rel.attributes):
                self._attr_token[attr] = f"?{self._canonical_index[vertex]}#{position}"

    def vertex(self, storage_vertex: int) -> int:
        return self._canonical_index[storage_vertex]

    def attr(self, name: str) -> str:
        # Groupjoin outputs are optimizer-chosen aliases, not relation
        # attributes — they carry no relation name and stay literal.
        return self._attr_token.get(name, f"!{name}")

    # -- expressions ---------------------------------------------------------
    def expr(self, expr: Expr) -> str:
        if isinstance(expr, Attr):
            return self.attr(expr.name)
        if isinstance(expr, Const):
            return f"const({expr.value!r})"
        if isinstance(expr, BinOp):
            op, left, right = expr.op, expr.left, expr.right
            if op in _FLIP:
                op, left, right = _FLIP[op], right, left
            parts = [self.expr(left), self.expr(right)]
            if op in _COMMUTATIVE:
                parts.sort()
            return f"({op} {parts[0]} {parts[1]})"
        if isinstance(expr, Logical):
            parts = sorted(self.expr(operand) for operand in expr.operands)
            return f"({expr.op} " + " ".join(parts) + ")"
        if isinstance(expr, Not):
            return f"(not {self.expr(expr.operand)})"
        if isinstance(expr, IsNull):
            return f"(isnull {self.expr(expr.operand)})"
        if isinstance(expr, Case):
            return (
                f"(case {self.expr(expr.condition)} "
                f"{self.expr(expr.then)} {self.expr(expr.otherwise)})"
            )
        raise TypeError(f"cannot canonicalise expression {expr!r}")

    # -- aggregates ----------------------------------------------------------
    def call(self, call: AggCall) -> str:
        arg = self.expr(call.arg) if call.arg is not None else "*"
        distinct = "distinct " if call.distinct else ""
        return f"{call.kind.value}({distinct}{arg})"

    def vector(self, vector: AggVector) -> str:
        return "[" + ", ".join(f"{item.name}={self.call(item.call)}" for item in vector) + "]"

    # -- the initial operator tree -------------------------------------------
    def tree(self, tree: Tree) -> str:
        if isinstance(tree, TreeLeaf):
            return f"R{self.vertex(tree.vertex)}"
        edge = self.query.edge(tree.edge_id)
        vector = "" if edge.groupjoin_vector is None else f" {self.vector(edge.groupjoin_vector)}"
        return (
            f"({edge.op.name} {self.expr(edge.predicate)}{vector} "
            f"{self.tree(tree.left)} {self.tree(tree.right)})"
        )

    # -- floating (cycle-closing) edges --------------------------------------
    def floating_edge(self, edge_id: int) -> str:
        """The canonical ``(op predicate)`` form shared by fingerprint and
        snapshot — both must key a floating edge identically."""
        edge = self.query.edge(edge_id)
        return f"({edge.op.name} {self.expr(edge.predicate)})"


def query_fingerprint(query: Query) -> str:
    """Structural fingerprint of *query* (sha256 hex).

    Invariant under relation/attribute renaming, commutative operand
    order, conjunct order and comparison direction; sensitive to tree
    shape, operators, predicate structure, grouping and aggregation.
    """
    canon = _Canonicalizer(query)
    parts: List[str] = [f"n={len(query.relations)}"]
    parts.append("arity=" + ",".join(
        str(len(query.relations[vertex].attributes)) for vertex in canon.vertex_order
    ))
    parts.append("tree=" + canon.tree(query.tree))
    floating = sorted(canon.floating_edge(eid) for eid in query.floating_edge_ids)
    parts.append("floating=" + ";".join(floating))
    parts.append("local=" + ";".join(
        f"{canon_vertex}:{canon.expr(pred)}"
        for canon_vertex, (pred, _sel) in sorted(
            (canon.vertex(vertex), entry)
            for vertex, entry in query.local_predicates.items()
        )
    ))
    parts.append("group=" + ",".join(sorted(canon.attr(a) for a in query.group_by)))
    parts.append("agg=" + canon.vector(query.aggregates))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _band_token(value: float, band_width: float) -> str:
    """Quantize a positive statistic onto a log10 grid of *band_width*.

    ``b<k>`` where ``k = round(log10(value) / band_width)`` — every value
    within the same band (half a band either side of the grid point)
    produces the same token, so snapshots whose statistics drifted less
    than ~half a band apart digest identically.  Non-positive values get
    their own token (cardinality 0 must never band with cardinality 1).
    """
    if value <= 0:
        return "b!"
    return f"b{math.floor(math.log10(value) / band_width + 0.5):d}"


def cardinality_snapshot(query: Query, band_width: Optional[float] = None) -> str:
    """Digest of every statistic the cost model consumes (sha256 hex).

    Covers relation cardinalities, per-attribute distinct counts (by
    position), declared keys, and edge / local-predicate selectivities.
    Unchanged by renaming; changed by any catalog statistics update.

    Each selectivity is keyed to its edge's *canonical structural
    identity* — tree edges by their position in the same pre-order
    traversal :func:`query_fingerprint` serializes, floating edges by
    their canonical ``(op predicate)`` form — never by edge-list storage
    order.  The fingerprint is storage-order invariant, so a
    storage-ordered selectivity list would let two different problems
    (same structure, selectivities attached to different predicates)
    share a full cache key and serve each other's plans.

    With *band_width* set (> 0, in log10 decades), every statistic is
    quantized onto a log-scale grid before digesting, so *nearby*
    snapshots share the digest: a stats refresh that moves a cardinality
    by less than ~half a band maps the query to the same structural
    cache entry, whose exact statistics the entry itself remembers for
    re-costing.  Banded and exact digests never collide — the band width
    is salted into the banded payload.
    """
    if band_width is not None and not band_width > 0:
        raise ValueError(f"band_width must be > 0 (or None for exact), got {band_width}")
    if band_width is None:
        stat6 = lambda value: f"{value:.6g}"  # noqa: E731 — local formatters
        stat9 = lambda value: f"{value:.9g}"  # noqa: E731
    else:
        stat6 = stat9 = lambda value: _band_token(value, band_width)  # noqa: E731
    canon = _Canonicalizer(query)
    parts: List[str] = []
    if band_width is not None:
        parts.append(f"band={band_width:.9g}")
    for canon_vertex, vertex in enumerate(canon.vertex_order):
        rel = query.relations[vertex]
        positions = {attr: i for i, attr in enumerate(rel.attributes)}
        distinct = ",".join(
            f"{i}:{stat6(rel.distinct_count(attr))}" for attr, i in positions.items()
        )
        keys = ";".join(sorted(
            ",".join(sorted(str(positions[a]) for a in key)) for key in rel.keys
        ))
        parts.append(f"{canon_vertex}|{stat6(rel.cardinality)}|{distinct}|{keys}")

    # tree_operators (STO) yields operator nodes in the same pre-order
    # _Canonicalizer.tree serializes, so slot i here pairs with the
    # fingerprint's i-th tree operator — never with edge-list order.
    parts.append("treesel=" + ",".join(
        stat9(query.edge(node.edge_id).selectivity) for node in tree_operators(query.tree)
    ))
    floating = sorted(
        f"{canon.floating_edge(eid)}:{stat9(query.edge(eid).selectivity)}"
        for eid in query.floating_edge_ids
    )
    parts.append("floatsel=" + ";".join(floating))
    parts.append("localsel=" + ",".join(
        f"{canon_vertex}:{stat9(sel)}"
        for canon_vertex, sel in sorted(
            (canon.vertex(vertex), sel)
            for vertex, (_pred, sel) in query.local_predicates.items()
        )
    ))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def shard_for_fingerprint(fingerprint: str, shards: int) -> int:
    """The shard (``0 .. shards-1``) owning *fingerprint*'s cache entries.

    The sharded serving tier routes every request by this function so one
    structural fingerprint always lands on the same worker-owned cache
    shard, whatever the SQL spelling.  It must therefore be **stable
    across processes and interpreter runs** — Python's builtin ``hash()``
    is salted per process and would scatter a query over all shards.

    The fingerprint is already a sha256 hex digest (uniformly
    distributed), so its leading 64 bits modulo *shards* is both stable
    and uniform.  Keys that differ only in statistics snapshot, strategy
    or cost model share a fingerprint and thus a shard, which is exactly
    right: they describe the same query structure and belong to the same
    shard's working set.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(fingerprint[:16], 16) % shards


def catalog_fingerprint(catalog) -> str:
    """A stable digest of every statistic *catalog* holds (sha256 hex).

    The handle cache persistence validates against: a plan-cache snapshot
    written under one catalog must not warm-start a server whose catalog
    (tables, columns, cardinalities, distinct counts, keys) differs —
    cached plans embed cost decisions derived from exactly these numbers,
    so serving them under different statistics would be a correctness
    bug, not a performance one.

    Covers table names, column order, cardinality, per-column distinct
    counts and declared keys; insensitive to registration order.
    """
    parts: List[str] = []
    for name in catalog.tables():
        stats = catalog.lookup(name)
        distinct = ",".join(
            f"{column}:{stats.distinct_count(column):.9g}" for column in stats.columns
        )
        keys = ";".join(sorted(
            ",".join(sorted(key)) for key in stats.keys
        ))
        parts.append(
            f"{stats.name.lower()}|{','.join(stats.columns)}|"
            f"{stats.cardinality:.9g}|{distinct}|{keys}"
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def strategy_label(strategy: "str | Strategy", factor: float = 1.03) -> Tuple[str, Optional[float]]:
    """Normalise a strategy spec to (name, effective factor) for keying."""
    if not isinstance(strategy, Strategy):
        strategy = STRATEGIES.create(strategy, factor=factor)
    return strategy.name, getattr(strategy, "factor", None)


def cache_key(
    query: Query,
    strategy: "str | Strategy" = "ea-prune",
    factor: float = 1.03,
    cost_model: str = "cout",
    band_width: Optional[float] = None,
) -> PlanCacheKey:
    """The full plan-cache key for optimizing *query* with *strategy*.

    *cost_model* is the registered cost-model name — plans priced by
    different models must not share entries.  *band_width* (log10
    decades, None = exact) selects the banded snapshot variant so nearby
    statistics share one structural entry — see
    :func:`cardinality_snapshot`.
    """
    name, effective_factor = strategy_label(strategy, factor)
    return PlanCacheKey(
        fingerprint=query_fingerprint(query),
        snapshot=cardinality_snapshot(query, band_width=band_width),
        strategy=name,
        factor=effective_factor,
        cost_model=cost_model,
    )


def plan_key(query: Query, config) -> Tuple[PlanCacheKey, str]:
    """``(cache key, exact snapshot)`` for planning *query* under *config*.

    The one statement of which optimizer settings a cached plan depends
    on: strategy label and effective factor, cost-model name, snapshot
    band width — not the engine, the deadline or the worker count, none
    of which changes a finished plan.  The exact (unbanded) snapshot
    travels beside the key: ``PlanCache.serve_entry`` compares it to
    detect drift within a band, and a stored entry remembers it for
    re-costing.  Without banding it is the key's own — no second digest.
    """
    key = cache_key(
        query,
        config.strategy,
        config.factor,
        cost_model=config.cost_model_name,
        band_width=config.snapshot_band_width,
    )
    if config.snapshot_band_width is None:
        return key, key.snapshot
    return key, cardinality_snapshot(query)
