"""The seed's DP, kept whole as the oracle the product is tested against.

:func:`optimize_reference` is the paper's Fig. 5 loop as the seed ran it:
leaves, then every csg-cmp-pair of the seed's recursive DPhyp
transcription, the operator found by a linear scan over the annotated
edges, every OpTrees placement of every plan pair fully built (a fresh
Γ per pair) and offered to the strategy's insert — and, for the full
relation set, keep-the-cheaper.  There is no plan cache, ceiling, known
cost, deadline or degraded fallback: no differential reads them.

Each piece is an independent implementation of what the product's one
loop (:func:`repro.optimizer.driver.optimize`) does with an index or a
memo: the recursive enumerator over uncached edge scans against
:func:`~repro.hypergraph.enumerate.enumerate_ccps`; the linear edge scan
(:func:`_resolve_edge`) against
:class:`~repro.optimizer.edgeindex.EdgeResolver`; FD *sets* against FD
*states* — :class:`SeedPlanBuilder` derives a join's triple with
frozenset arithmetic every time, and :class:`SeedPruneStrategy` projects
each plan's triple onto ``query.needed_above(S)`` (:func:`_projected_fd`)
and compares with :func:`_fd_superset` in an unordered list, where the
product looks states up by transition, projects them over masks
(:meth:`~repro.optimizer.planinfo.FdTable.project`) and asks
:meth:`~repro.optimizer.planinfo.FdState.dominates`.

Tests and ``benchmarks/bench_hotpath.py`` import this module; nothing in
the product does.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.expressions import Expr, attrs_of, conjunction
from repro.conflict.detector import AnnotatedEdge
from repro.hypergraph.bitset import bits_of, is_subset, lowest_bit, prefix_below, subsets
from repro.hypergraph.graph import Hyperedge, Hypergraph
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import (
    OptimizationResult,
    OptimizerHooks,
    PreparedQuery,
    prepare,
)
from repro.optimizer.edgeindex import JoinSpec
from repro.optimizer.planinfo import (
    _LEFT_ONLY,
    VIA_CLASS,
    FdState,
    PlanBuilder,
    PlanInfo,
    _closure,
    _combine_keys,
    _equality_pairs,
    _join_equiv,
)
from repro.optimizer.strategies import EaPruneStrategy, Strategy
from repro.query.spec import Query
from repro.rewrites.pushdown import OpKind, pushdown_valid_for


def optimize_reference(
    query: Query,
    *,
    config: Optional[OptimizerConfig] = None,
    prepared: Optional[PreparedQuery] = None,
    hooks: Optional[OptimizerHooks] = None,
) -> OptimizationResult:
    """Plan *query* the seed's way and return the final plan.

    *config* supplies the strategy and the cost model (None means
    ``OptimizerConfig(cache_capacity=None)``, EA-Prune under Cout); every
    other knob in it is ignored.  EA-Prune runs as
    :class:`SeedPruneStrategy`.  *prepared* reuses a
    :func:`~repro.optimizer.driver.prepare` pre-pass.  All four *hooks*
    fire: ``on_plan`` once per built candidate.  ``stats`` holds
    ``plans_constructed`` (every candidate, so equal to ``plans_built``)
    and ``top_replacements``.
    """
    if config is None:
        config = OptimizerConfig(cache_capacity=None)
    if prepared is not None and prepared.query is not query:
        raise ValueError("prepared pre-pass belongs to a different query")
    strategy = config.resolve_strategy()
    if isinstance(strategy, EaPruneStrategy):
        strategy = SeedPruneStrategy(strategy.criteria, query)
    start = time.perf_counter()
    if prepared is None:
        prepared = prepare(query)
        if hooks is not None and hooks.on_prepare is not None:
            hooks.on_prepare(prepared)
    on_ccp = hooks.on_ccp if hooks is not None else None
    on_plan = hooks.on_plan if hooks is not None else None

    builder = SeedPlanBuilder(query, cost_model=config.resolve_cost_model())
    all_mask = query.all_relations_mask
    table = {}
    for vertex in range(len(query.relations)):
        leaf = builder.leaf(vertex)
        table[1 << vertex] = [leaf]
        if on_plan is not None:
            on_plan(leaf)
    built, replacements, ccp_count = len(table), 0, 0
    if len(query.relations) == 1:
        table[all_mask] = [builder.finish_top(table[all_mask][0])]
        if on_plan is not None:
            on_plan(table[all_mask][0])

    for s1, s2 in enumerate_ccps_reference(prepared.graph):
        ccp_count += 1
        if on_ccp is not None:
            on_ccp(s1, s2)
        spec = _resolve_edge(prepared.annotated, query, s1, s2)
        if spec is None:
            continue
        left_set, right_set = (s2, s1) if spec.swap else (s1, s2)
        left_bucket = table.get(left_set, ())
        right_bucket = table.get(right_set, ())
        if not left_bucket or not right_bucket:
            continue
        combined = left_set | right_set
        is_top = combined == all_mask
        bucket = table.get(combined)
        if bucket is None:
            # The full relation set keeps one plan (InsertTopLevelPlan);
            # inner entries use the strategy's bucket.
            bucket = table[combined] = [] if is_top else strategy.new_bucket()
        more, replaced = _build_plans(
            builder, strategy, bucket, is_top, left_bucket, right_bucket, spec, on_plan
        )
        built += more
        replacements += replaced

    if not table.get(all_mask):
        raise RuntimeError("no plan found — query hypergraph not fully connectable")
    result = OptimizationResult(
        plan=table[all_mask][0],
        strategy=strategy.name,
        elapsed_seconds=time.perf_counter() - start,
        ccp_count=ccp_count,
        plans_built=built,
        table_sizes={mask: len(plans) for mask, plans in table.items()},
        stats={"plans_constructed": built, "top_replacements": replacements},
    )
    if hooks is not None and hooks.on_result is not None:
        hooks.on_result(result)
    return result


def _build_plans(
    builder: "SeedPlanBuilder",
    strategy: Strategy,
    bucket,
    is_top: bool,
    left_bucket,
    right_bucket,
    spec: JoinSpec,
    on_plan,
) -> Tuple[int, int]:
    """The seed's BuildPlans: every OpTrees placement is fully built, with
    a fresh Γ per plan pair, and every one is offered — the strategy its
    inner ones, the keep-the-cheaper rule the finished ones.  Returns how
    many candidates were built and how many finished plans displaced the
    incumbent."""
    join = partial(
        builder.join, op=spec.op, predicate=spec.predicate,
        selectivity=spec.selectivity, groupjoin_vector=spec.groupjoin_vector,
    )
    group_left = strategy.explore_eager and pushdown_valid_for(spec.op, 1)
    group_right = strategy.explore_eager and pushdown_valid_for(spec.op, 2)
    insert = strategy.insert
    built = replaced = 0
    for left in left_bucket:
        for right in right_bucket:
            grouped_left = grouped_right = None
            if group_left:
                g_plus = builder.needed_above(left.rel_set) & left.raw_attrs
                grouped_left = builder.group(left, g_plus)
            if group_right:
                g_plus = builder.needed_above(right.rel_set) & right.raw_attrs
                grouped_right = builder.group(right, g_plus)
            for lhs, rhs in (
                (left, right), (grouped_left, right), (left, grouped_right),
                (grouped_left, grouped_right),
            ):
                plan = None if lhs is None or rhs is None else join(lhs, rhs)
                if plan is None:
                    continue
                built += 1
                if is_top:
                    plan = builder.finish_top(plan)
                if on_plan is not None:
                    on_plan(plan)
                if not is_top:
                    insert(bucket, plan)
                    continue
                if bucket:
                    if not plan.cost < bucket[0].cost:
                        continue
                    replaced += 1
                bucket[:] = [plan]
    return built, replaced


# -- operator resolution ------------------------------------------------------------


def _resolve_edge(
    annotated: Sequence[AnnotatedEdge], query: Query, s1: int, s2: int
) -> Optional[JoinSpec]:
    """The seed's linear scan over all annotated edges.

    Exactly one edge crossing: use its operator (checking applicability in
    both orientations; non-commutative operators fix the orientation).
    Multiple crossing edges: only legal when all of them are inner joins —
    their predicates are conjoined and selectivities multiplied.
    """
    crossing = [
        e
        for e in annotated
        if (is_subset(e.l_tes, s1) and is_subset(e.r_tes, s2))
        or (is_subset(e.l_tes, s2) and is_subset(e.r_tes, s1))
    ]
    if not crossing:
        return None

    if len(crossing) == 1:
        edge = crossing[0]
        join_edge = query.edge(edge.edge_id)
        if edge.applicable(s1, s2):
            return JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=False,
            )
        if edge.applicable(s2, s1):
            return JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=True,
            )
        return None

    # Several predicates meet at this ccp (cyclic inner-join queries).
    if any(e.op is not OpKind.INNER for e in crossing):
        return None
    predicates = []
    selectivity = 1.0
    for edge in crossing:
        if not (edge.applicable(s1, s2) or edge.applicable(s2, s1)):
            return None
        join_edge = query.edge(edge.edge_id)
        predicates.append(join_edge.predicate)
        selectivity *= join_edge.selectivity
    return JoinSpec(OpKind.INNER, conjunction(predicates), selectivity, None, swap=False)


# -- FD sets --------------------------------------------------------------------------


class SeedPlanBuilder(PlanBuilder):
    """:class:`PlanBuilder` without its memos: a predicate's attributes and
    equality pairs are recomputed per join, and a join's FD triple is
    derived from the inputs' sets every time (:func:`_join_keys`) and only
    then interned — so the triple a plan carries is the definition's, not
    a transition the product's table remembered.  It is derived when the
    plan is built, never left pending: a pending triple is derived through
    the product's transition (:meth:`~repro.optimizer.planinfo.FdTable.join_state`),
    not through this class."""

    def _attrs_of(self, predicate: Expr):
        return attrs_of(predicate)

    def construct(self, priced):
        priced.state  # through _join_state below, before the plan exists
        return super().construct(priced)

    def _join_state(
        self, left: PlanInfo, right: PlanInfo, op: OpKind, predicate: Expr
    ) -> FdState:
        left_state = self.state_of(left)
        if op in _LEFT_ONLY:
            return left_state  # the result exposes the left rows, once each
        return self.fd_table.intern(
            left.duplicate_free and right.duplicate_free,
            _join_keys(op, left, right, self._attrs_of(predicate)),
            _join_equiv(op, left.equiv, right.equiv, tuple(_equality_pairs(predicate))),
        )


def _join_keys(
    op: OpKind, left: PlanInfo, right: PlanInfo, join_attrs
) -> Tuple[frozenset, ...]:
    """κ for join results (Sec. 2.3), over the plans' own sets."""
    if op in _LEFT_ONLY:
        return left.keys
    return _combine_keys(
        op,
        left.keys,
        right.keys,
        left.has_key_within(join_attrs & left.raw_attrs),
        right.has_key_within(join_attrs & right.raw_attrs),
    )


class SeedPruneStrategy(Strategy):
    """EA-Prune as the seed ran it: an unordered list, scanned pairwise
    with Def. 4 spelled out on each plan's own fields — it never looks at
    an :class:`FdState`.  *criteria* is EA-Prune's ablation knob.  With a
    *query*, the FD clause compares triples projected onto what a
    completion of the plan's relation set can read
    (:func:`_projected_fd` of ``query.needed_above(S)``); without one —
    plans made by hand — it compares them whole."""

    def __init__(self, criteria: str = "full", query: Optional[Query] = None):
        self.criteria = criteria
        self.name = "ea-prune" if criteria == "full" else f"ea-prune[{criteria}]"
        self.query = query
        self._needed = {}

    def _fd(self, plan):
        """What the FD clause compares of *plan*: its triple projected
        onto ``needed_above`` of its relation set, or the plan itself."""
        if self.query is None:
            return plan
        needed = self._needed.get(plan.rel_set)
        if needed is None:
            needed = self._needed[plan.rel_set] = self.query.needed_above(plan.rel_set)
        return _projected_fd(plan.duplicate_free, plan.keys, plan.equiv, needed)

    def _dominates(self, a, b) -> bool:
        if a.cost > b.cost:
            return False
        if self.criteria == "cost-only":
            return True
        if a.cardinality > b.cardinality:
            return False
        if self.criteria == "cost-card":
            return True
        return _fd_superset(self._fd(a), self._fd(b))

    def insert(self, bucket: List[PlanInfo], plan) -> bool:
        for existing in bucket:
            if self._dominates(existing, plan):
                return False  # dominated: discard the new plan
        bucket[:] = [existing for existing in bucket if not self._dominates(plan, existing)]
        bucket.append(plan)
        return True


class ProjectedFd(NamedTuple):
    """An FD triple as a completion sees it (:func:`_projected_fd`)."""

    duplicate_free: bool
    keys: Tuple[FrozenSet[str], ...]
    equiv: Tuple[FrozenSet[str], ...]

    def has_key_within(self, attrs: FrozenSet[str]) -> bool:
        closed = _closure(self.equiv, attrs)
        return any(key <= closed for key in self.keys)


@lru_cache(maxsize=65536)
def _projected_fd(
    duplicate_free: bool,
    keys: Tuple[FrozenSet[str], ...],
    equiv: Tuple[FrozenSet[str], ...],
    needed: FrozenSet[str],
) -> ProjectedFd:
    """The triple cut down to *needed*, on frozensets: a class keeps its
    members in *needed* (two or more); a key keeps its attributes in
    *needed*, trades each other one for the *needed* members of its class
    plus the :data:`~repro.optimizer.planinfo.VIA_CLASS` mark, or is
    dropped when some attribute's class has none; *needed* is a key too
    if any key is left; the minimal keys remain."""
    projected = set()
    for key in keys:
        outside = key - needed
        if outside:
            classes = [cls for cls in equiv if cls & outside]
            if not outside <= frozenset().union(*classes) or not all(
                cls & needed for cls in classes
            ):
                continue
            key = frozenset((key & needed).union(*(cls & needed for cls in classes), (VIA_CLASS,)))
        projected.add(key)
    if projected:
        projected.add(needed)
    return ProjectedFd(
        duplicate_free,
        tuple(key for key in projected if not any(other < key for other in projected)),
        tuple(cls for cls in (cls & needed for cls in equiv) if len(cls) >= 2),
    )


def _fd_superset(a, b) -> bool:
    """FD⁺(a) ⊇ FD⁺(b), approximated through candidate keys and attribute
    equivalences:

    * *a* must be duplicate-free whenever *b* is (NeedsGrouping depends on
      the flag),
    * every key of *b* must be implied by *a* (some key of *a* inside the
      equivalence closure of *b*'s key),
    * every attribute-equivalence class of *b* must be known to *a* too —
      equivalences are FDs (x = y ⇒ x → y ∧ y → x) and feed key closure.

    The oracle for :meth:`~repro.optimizer.planinfo.FdState.dominates`;
    accepts anything exposing ``duplicate_free`` / ``keys`` / ``equiv`` /
    ``has_key_within`` — a plan, or its :class:`ProjectedFd`.
    """
    if b.duplicate_free and not a.duplicate_free:
        return False
    if not all(a.has_key_within(kb) for kb in b.keys):
        return False
    return all(any(cls_b <= cls_a for cls_a in a.equiv) for cls_b in b.equiv)


# -- enumeration ----------------------------------------------------------------------

#: Recursion depth the reference enumerator can safely need per vertex.
_REFERENCE_MAX_N = 400


class _RecursiveEnumerator:
    """The seed's recursive DPhyp transcription.

    Every emitted pair travels back through a ``yield from`` chain of up to
    O(n) generator frames, and deep recursions can exhaust the interpreter
    stack — which is why the product's enumerator is iterative.  It asks
    :meth:`neighborhood_scan` and :func:`connected_scan`, which scan the
    edges on every call (no per-vertex orientation index, no memo), so its
    cost profile is the seed's.
    """

    def __init__(self, graph: Hypergraph):
        self.graph = graph
        self.buildable = {1 << v for v in range(graph.n)}
        self.simple_neighbors = [0] * graph.n
        self.complex_edges: List[Hyperedge] = []
        for edge in graph.edges:
            if edge.simple:
                self.simple_neighbors[lowest_bit(edge.left)] |= edge.right
                self.simple_neighbors[lowest_bit(edge.right)] |= edge.left
            else:
                self.complex_edges.append(edge)

    def neighborhood_scan(self, s: int, excluded: int) -> int:
        """``N(S, X)``: simple neighbours, plus ``min(w)`` for every complex
        edge ``(u, w)`` with ``u ⊆ S`` and ``w ∩ (S ∪ X) = ∅``."""
        forbidden = s | excluded
        result = 0
        for v in bits_of(s):
            result |= self.simple_neighbors[v]
        result &= ~forbidden
        for edge in self.complex_edges:
            for u, w in ((edge.left, edge.right), (edge.right, edge.left)):
                if is_subset(u, s) and not (w & forbidden):
                    result |= 1 << lowest_bit(w)
        return result

    def run(self) -> Iterator[Tuple[int, int]]:
        if self.graph.n > _REFERENCE_MAX_N:
            raise RecursionError(
                f"reference enumerator supports n <= {_REFERENCE_MAX_N} "
                f"(got n={self.graph.n}); use the default iterative enumerator"
            )
        for i in range(self.graph.n - 1, -1, -1):
            seed = 1 << i
            yield from self.emit_csg(seed)
            yield from self.enumerate_csg_rec(seed, prefix_below(i))

    def enumerate_csg_rec(self, s1: int, excluded: int) -> Iterator[Tuple[int, int]]:
        neighborhood = self.neighborhood_scan(s1, excluded)
        if not neighborhood:
            return
        for subset in subsets(neighborhood):
            grown = s1 | subset
            if grown in self.buildable:
                yield from self.emit_csg(grown)
        for subset in subsets(neighborhood):
            yield from self.enumerate_csg_rec(s1 | subset, excluded | neighborhood)

    def emit_csg(self, s1: int) -> Iterator[Tuple[int, int]]:
        min_index = (s1 & -s1).bit_length() - 1
        excluded = s1 | prefix_below(min_index)
        neighborhood = self.neighborhood_scan(s1, excluded)
        for v in sorted(bits_of(neighborhood), reverse=True):
            s2 = 1 << v
            if connected_scan(self.graph, s1, s2):
                self.buildable.add(s1 | s2)
                yield s1, s2
            below = neighborhood & prefix_below(v)
            yield from self.enumerate_cmp_rec(s1, s2, excluded | below)

    def enumerate_cmp_rec(self, s1: int, s2: int, excluded: int) -> Iterator[Tuple[int, int]]:
        neighborhood = self.neighborhood_scan(s2, excluded)
        if not neighborhood:
            return
        for subset in subsets(neighborhood):
            grown = s2 | subset
            if grown in self.buildable and connected_scan(self.graph, s1, grown):
                self.buildable.add(s1 | grown)
                yield s1, grown
        for subset in subsets(neighborhood):
            yield from self.enumerate_cmp_rec(s1, s2 | subset, excluded | neighborhood)


def enumerate_ccps_reference(graph: Hypergraph) -> Iterator[Tuple[int, int]]:
    """The seed's recursive enumerator over uncached graph scans.

    Raises :class:`RecursionError` up front for graphs too deep for the
    interpreter stack; :func:`~repro.hypergraph.enumerate.enumerate_ccps`
    has no such limit.  Emission order is pinned to it by tests.
    """
    return _RecursiveEnumerator(graph).run()


def connected_scan(graph: Hypergraph, s1: int, s2: int) -> bool:
    """Whether some hyperedge connects *s1* and *s2*: a scan over all edges."""
    for edge in graph.edges:
        if (is_subset(edge.left, s1) and is_subset(edge.right, s2)) or (
            is_subset(edge.left, s2) and is_subset(edge.right, s1)
        ):
            return True
    return False


def connecting_edges(graph: Hypergraph, s1: int, s2: int) -> List[Hyperedge]:
    """All hyperedges with one side inside *s1* and the other inside *s2*,
    in edge order."""
    return [
        edge
        for edge in graph.edges
        if (is_subset(edge.left, s1) and is_subset(edge.right, s2))
        or (is_subset(edge.left, s2) and is_subset(edge.right, s1))
    ]


def induces_connected_subgraph(graph: Hypergraph, s: int) -> bool:
    """Whether *s* is connected in the DP-relevant (buildable) sense.

    For hypergraphs the right notion of connectivity is recursive: a set
    is connected iff it is a single vertex, or it can be partitioned into
    two connected parts S1, S2 linked by a hyperedge ``(u, w)`` with
    ``u ⊆ S1 ∧ w ⊆ S2``.  (A set like {2,4} whose only incident
    hyperedge is ({2,4}, {1}) is *not* connected: no plan could ever be
    built for it.)  Computed bottom-up over the connected subsets of *s*.
    """
    if not s:
        return False
    if s.bit_count() == 1:
        return True
    known = {1 << v for v in bits_of(s)}
    frontier = list(known)
    while frontier:
        a = frontier.pop()
        for b in list(known):
            if a & b:
                continue
            combined = a | b
            if combined in known or not is_subset(combined, s):
                continue
            if connected_scan(graph, a, b):
                if combined == s:
                    return True
                known.add(combined)
                frontier.append(combined)
    return False


def brute_force_ccps(graph: Hypergraph) -> set:
    """The csg-cmp-pairs straight from Def. 3: every unordered pair of
    disjoint, individually connected (buildable) vertex sets that a
    hyperedge connects to each other."""
    n = graph.n
    result = set()
    for s1 in range(1, 1 << n):
        if not induces_connected_subgraph(graph, s1):
            continue
        for s2 in range(s1 + 1, 1 << n):
            if s1 & s2:
                continue
            if not induces_connected_subgraph(graph, s2):
                continue
            if connected_scan(graph, s1, s2):
                result.add((s1, s2))
    return result
