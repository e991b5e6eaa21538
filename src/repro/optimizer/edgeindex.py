"""Per-edge join-spec precomputation and TES-mask indexing.

The seed driver re-derived, for *every* enumerated csg-cmp-pair, which
annotated edges cross the pair — a linear scan over all edges with four
subset tests each — and then re-fetched the edge's predicate, selectivity
and groupjoin vector from the query.  This module hoists all of that to
preparation time:

* one immutable :class:`JoinSpec` per edge and orientation, built once,
* a per-vertex index over edge orientations: orientation ``(a, b)`` is
  filed under ``min(a)``, so the crossing edges of ``(S1, S2)`` are found
  by scanning only the orientations whose ``min`` vertex lies in the
  smaller side — every crossing edge has an orientation filed there,
* for an edge without conflict rules, the orientation's resolved spec
  and its partner's beside it (found under S2, it is the edge's other
  orientation): ``Applicable`` is then TES containment, which the crossing
  test has just checked, so only edges with rules are asked again,
* an interning cache for the conjoined predicates of multi-edge ccps
  (cyclic inner-join queries), keyed by the crossing edge-id tuple, so
  each distinct predicate/selectivity combination is built once per run
  and plan builders can memoise per predicate identity.

``counters`` feeds the ``stats`` block of
:class:`~repro.optimizer.driver.OptimizationResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import conjunction
from repro.conflict.detector import AnnotatedEdge
from repro.hypergraph.bitset import lowest_bit
from repro.query.spec import Query
from repro.rewrites.pushdown import OpKind


class JoinSpec:
    """Resolved operator for one csg-cmp-pair: op, predicate, selectivity."""

    __slots__ = ("op", "predicate", "selectivity", "groupjoin_vector", "swap")

    def __init__(self, op, predicate, selectivity, groupjoin_vector, swap):
        self.op = op
        self.predicate = predicate
        self.selectivity = selectivity
        self.groupjoin_vector = groupjoin_vector
        self.swap = swap


class EdgeResolver:
    """Answers ``Applicable``/operator-resolution queries for one prepared
    query, from precomputed per-edge specs and a min-vertex orientation
    index."""

    __slots__ = (
        "_query",
        "_sides_by_min",
        "_specs",
        "_conjunctions",
        "counters",
    )

    def __init__(self, annotated: Sequence[AnnotatedEdge], query: Query):
        self._query = query
        n = len(query.relations)
        # seq is the edge's position in `annotated` — crossing lists are
        # sorted by it so multi-edge conjunction and selectivity products
        # fold in exactly the seed's (annotated-order) sequence, keeping
        # float results bit-identical.
        # An orientation of an edge without conflict rules carries the spec
        # it resolves to: for such an edge ``applicable`` is TES
        # containment, which is exactly the crossing test — (l, r) found
        # inside (S1, S2) is applicable as is, (r, l) swapped.  An edge
        # with rules carries None and is asked.  Last comes the partner: the
        # other orientation's spec, for a scan from S2's side.
        self._sides_by_min: List[
            List[Tuple[int, int, int, Optional[JoinSpec], Optional[JoinSpec]]]
        ] = [[] for _ in range(n)]
        self._specs: List[Tuple[AnnotatedEdge, JoinSpec, JoinSpec]] = []
        for seq, edge in enumerate(annotated):
            join_edge = query.edge(edge.edge_id)
            plain = JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=False,
            )
            swapped = JoinSpec(
                edge.op, join_edge.predicate, join_edge.selectivity,
                join_edge.groupjoin_vector, swap=True,
            )
            self._specs.append((edge, plain, swapped))
            plain_found, swapped_found = (None, None) if edge.rules else (plain, swapped)
            self._sides_by_min[lowest_bit(edge.l_tes)].append(
                (edge.l_tes, edge.r_tes, seq, plain_found, swapped_found)
            )
            self._sides_by_min[lowest_bit(edge.r_tes)].append(
                (edge.r_tes, edge.l_tes, seq, swapped_found, plain_found)
            )
        self._conjunctions: Dict[Tuple[int, ...], Tuple[object, float]] = {}
        self.counters: Dict[str, int] = {"resolve_calls": 0, "edge_sides_scanned": 0}

    def resolve(self, s1: int, s2: int) -> Optional[JoinSpec]:
        """Determine the operator applied when joining *s1* and *s2*.

        Exactly one edge crossing: use its operator (checking applicability
        in both orientations; non-commutative operators fix the
        orientation).  Multiple crossing edges: only legal when all of them
        are inner joins — their predicates are conjoined and selectivities
        multiplied.  Only edges with conflict rules are asked
        ``applicable``: for the others the crossing test, made from the
        smaller side as ``connected``'s, has answered.
        """
        counters = self.counters
        counters["resolve_calls"] += 1
        sides_by_min = self._sides_by_min
        crossing: List[int] = []
        found = None
        scanned = 0
        from_s2 = s1.bit_count() > s2.bit_count()
        side, other = (s2, s1) if from_s2 else (s1, s2)
        rest = side
        while rest:
            low = rest & -rest
            for a, b, seq, spec, partner in sides_by_min[low.bit_length() - 1]:
                scanned += 1
                if not (a & ~side) and not (b & ~other):
                    crossing.append(seq)
                    found = partner if from_s2 else spec
            rest ^= low
        counters["edge_sides_scanned"] += scanned
        if not crossing:
            return None

        if len(crossing) == 1:
            if found is not None:
                return found
            edge, plain, swapped = self._specs[crossing[0]]
            if edge.applicable(s1, s2):
                return plain
            if edge.applicable(s2, s1):
                return swapped
            return None

        # Several predicates meet at this ccp (cyclic inner-join queries).
        crossing.sort()
        specs = self._specs
        for seq in crossing:
            edge = specs[seq][0]
            if edge.op is not OpKind.INNER:
                return None
            if edge.rules and not (edge.applicable(s1, s2) or edge.applicable(s2, s1)):
                return None
        key = tuple(crossing)
        interned = self._conjunctions.get(key)
        if interned is None:
            predicates = []
            selectivity = 1.0
            for seq in crossing:
                join_edge = self._query.edge(specs[seq][0].edge_id)
                predicates.append(join_edge.predicate)
                selectivity *= join_edge.selectivity
            interned = (conjunction(predicates), selectivity)
            self._conjunctions[key] = interned
        predicate, selectivity = interned
        return JoinSpec(OpKind.INNER, predicate, selectivity, None, swap=False)
