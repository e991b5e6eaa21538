"""The DPhyp csg-cmp-pair enumerator (Moerkotte & Neumann).

``enumerate_ccps`` yields every csg-cmp-pair (Def. 3 of the paper) exactly
once, in an order suitable for dynamic programming: both components of a
pair are always emitted after all of their own connected subsets.  This is
the enumeration backbone shared by *all* plan generators in the repository
(DPhyp baseline, EA-All, EA-Prune, H1, H2) — exactly as in the paper, where
only ``BuildPlans`` differs between algorithms.

Like the published algorithm — which consults the DP table before emitting —
the enumerator tracks which vertex sets are *buildable* (have at least one
plan): the representative-based neighbourhood growth of hypergraph DPhyp can
visit sets that no join of two connected parts can ever produce, and those
must not surface as csg-cmp components.

On a graph without complex edges no pair is put to ``Hypergraph.connected``:
every vertex of N(S1, X) has a simple edge into S1, and every complement
grown from one keeps it, so the neighbourhood has proved the pair connected.

In :class:`_Enumerator` EnumerateCsgRec / EmitCsg / EnumerateCmpRec are
small generators that yield either a csg-cmp-pair or a child generator,
and ``run`` drives them from an explicit LIFO stack.  That keeps the
exact depth-first emission order of the published recursion while making
every emitted pair O(1) (a recursive ``yield from`` chain re-yields each
pair through O(depth) frames) and removing Python's recursion limit from
the picture — chains of hundreds of relations enumerate fine.  The
seed's literal recursive transcription is the test oracle's
(:mod:`repro.optimizer.reference`); tests pin this enumerator to it pair
for pair, in order.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.hypergraph.bitset import prefix_below, subsets
from repro.hypergraph.graph import Hypergraph


class _Enumerator:
    """Stateful DPhyp run over one hypergraph (iterative hot path)."""

    __slots__ = ("graph", "buildable", "ask")

    def __init__(self, graph: Hypergraph):
        self.graph = graph
        # Whether a pair is put to `connected` (see the module docstring).
        self.ask = not graph._no_complex
        # Mirrors "DPTable[S] is non-empty": singletons start buildable, and
        # every emitted pair makes its union buildable.
        self.buildable = {1 << v for v in range(graph.n)}

    def run(self) -> Iterator[Tuple[int, int]]:
        """Drive the generator frames from an explicit stack.

        Each frame yields csg-cmp-pairs (tuples) and child frames
        (generators); children are pushed and fully drained before their
        parent resumes — exactly the published depth-first order.
        """
        stack = [self._seeds()]
        push = stack.append
        pop = stack.pop
        while stack:
            frame = stack[-1]
            for item in frame:
                if item.__class__ is tuple:
                    yield item
                else:
                    push(item)
                    break
            else:
                pop()

    def _seeds(self):
        for i in range(self.graph.n - 1, -1, -1):
            seed = 1 << i
            yield self._emit_csg(seed)
            yield self._enumerate_csg_rec(seed, prefix_below(i))

    def _enumerate_csg_rec(self, s1: int, excluded: int):
        neighborhood = self.graph.neighborhood(s1, excluded)
        if not neighborhood:
            return
        buildable = self.buildable
        for subset in subsets(neighborhood):
            if s1 | subset in buildable:
                yield self._emit_csg(s1 | subset)
        grown_excluded = excluded | neighborhood
        for subset in subsets(neighborhood):
            yield self._enumerate_csg_rec(s1 | subset, grown_excluded)

    def _emit_csg(self, s1: int):
        graph = self.graph
        ask = self.ask
        excluded = s1 | prefix_below((s1 & -s1).bit_length() - 1)
        # Highest neighbour v first; `rest` holds N(S1) up to v.
        rest = graph.neighborhood(s1, excluded)
        while rest:
            s2 = 1 << (rest.bit_length() - 1)
            if not ask or graph.connected(s1, s2):
                self.buildable.add(s1 | s2)
                yield s1, s2
            yield self._enumerate_cmp_rec(s1, s2, excluded | rest)
            rest ^= s2

    def _enumerate_cmp_rec(self, s1: int, s2: int, excluded: int):
        graph = self.graph
        neighborhood = graph.neighborhood(s2, excluded)
        if not neighborhood:
            return
        buildable, ask = self.buildable, self.ask
        for subset in subsets(neighborhood):
            grown = s2 | subset
            if grown in buildable and (not ask or graph.connected(s1, grown)):
                buildable.add(s1 | grown)
                yield s1, grown
        grown_excluded = excluded | neighborhood
        for subset in subsets(neighborhood):
            yield self._enumerate_cmp_rec(s1, s2 | subset, grown_excluded)


def enumerate_ccps(graph: Hypergraph) -> Iterator[Tuple[int, int]]:
    """Yield csg-cmp-pairs ``(S1, S2)`` (bitsets), each unordered pair once.

    The enumeration follows the published algorithm:

    * ``EnumerateCsg``: seeds every singleton {v_i} (descending i) and grows
      connected subgraphs only with vertices of index > i,
    * ``EmitCsg``: for each csg S1, finds complements among vertices larger
      than min(S1) that are neighbours of S1,
    * ``EnumerateCmpRec``: grows each complement seed into all connected
      complements.
    """
    return _Enumerator(graph).run()


def count_ccps(graph: Hypergraph) -> int:
    """Number of csg-cmp-pairs (#ccp in the paper's complexity analysis)."""
    return sum(1 for _ in enumerate_ccps(graph))
