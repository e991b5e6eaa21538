"""Query hypergraphs.

A hypergraph ``H = (V, E)`` has vertices ``0..n-1`` (the base relations) and
hyperedges ``(u, w)`` — pairs of disjoint, non-empty vertex sets.  A *simple*
edge has ``|u| = |w| = 1``.  The conflict detector maps every operator of
the initial tree to one hyperedge ``(L-TES, R-TES)``, so hyperedges carry an
opaque ``label`` (the operator's edge id) for the plan generator.

Hot-path design (see docs/architecture.md): the DPhyp enumerator calls
``neighborhood`` once or more per csg-cmp-pair, and ``connected`` on graphs
with complex edges, so both are served from per-vertex indexes instead of
scans over ``self.edges``:

* ``_simple_neighbors[v]`` — union of simple-edge neighbours of ``v``,
* ``_complex_sides_by_min[v]`` — every orientation ``(u, w)`` of a
  complex edge whose side ``u`` has ``min(u) = v``.  Any edge with
  ``u ⊆ S`` is findable under one of S's vertices, so both queries touch
  only complex edges incident to S,
* a memo dictionary for ``neighborhood`` — a pure function of the
  (immutable) graph whose arguments repeat (≈ 60 % hits on a DP run), so
  results are cached across the run; ``reset_caches()`` drops it (e.g.
  between benchmark repetitions).  ``connected`` is not memoised: DPhyp
  asks it about each csg-cmp candidate about once (≈ 6 % repeats), and
  the bitmask test is cheaper than the key and the insert a memo costs.

The pre-index linear scans are the test oracle's
(:mod:`repro.optimizer.reference`); tests pin both queries to them.

``counters`` tracks calls, index probes and memo hits; the optimizer
surfaces a snapshot of them on
:class:`~repro.optimizer.driver.OptimizationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.hypergraph.bitset import bits_of, lowest_bit


@dataclass(frozen=True)
class Hyperedge:
    """An undirected hyperedge between two disjoint vertex sets (bitsets)."""

    left: int
    right: int
    label: Any = None

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("hyperedge sides must be non-empty")
        if self.left & self.right:
            raise ValueError("hyperedge sides must be disjoint")

    @property
    def simple(self) -> bool:
        return self.left.bit_count() == 1 and self.right.bit_count() == 1

    def vertices(self) -> int:
        return self.left | self.right


class Hypergraph:
    """Vertices 0..n-1 plus a list of hyperedges."""

    def __init__(self, n: int, edges: Sequence[Hyperedge] = ()):
        if n <= 0:
            raise ValueError("hypergraph needs at least one vertex")
        self.n = n
        self.edges: List[Hyperedge] = list(edges)
        self.all_vertices = (1 << n) - 1
        for edge in self.edges:
            if edge.vertices() & ~self.all_vertices:
                raise ValueError(f"edge {edge} references vertices outside 0..{n - 1}")
        # Simple-edge adjacency per vertex accelerates the common case.
        self._simple_neighbors = [0] * n
        # Both orientations (u, w) of every complex edge, indexed by min(u).
        self._complex_sides_by_min: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for edge in self.edges:
            if edge.simple:
                u = lowest_bit(edge.left)
                w = lowest_bit(edge.right)
                self._simple_neighbors[u] |= edge.right
                self._simple_neighbors[w] |= edge.left
            else:
                for u, w in ((edge.left, edge.right), (edge.right, edge.left)):
                    self._complex_sides_by_min[lowest_bit(u)].append((u, w))
        #: Simple-only graphs (every bench topology) answer both hot-path
        #: queries from the bitmask adjacency alone — the explicit
        #: crossover that keeps small graphs from paying per-edge
        #: orientation scans that the seed's linear scan never paid for.
        self._no_complex = not any(self._complex_sides_by_min)
        self._neighborhood_cache: Dict[Tuple[int, int], int] = {}
        self.counters: Dict[str, int] = {
            "neighborhood_calls": 0,
            "neighborhood_memo_hits": 0,
            "connected_calls": 0,
            "edge_sides_scanned": 0,
        }

    @classmethod
    def from_pairs(cls, n: int, pairs: Sequence[Tuple[int, int]]) -> "Hypergraph":
        """Build a simple graph from vertex-index pairs (test convenience)."""
        edges = [Hyperedge(1 << u, 1 << w, label=i) for i, (u, w) in enumerate(pairs)]
        return cls(n, edges)

    def reset_caches(self) -> None:
        """Drop the neighbourhood memo and zero the counters."""
        self._neighborhood_cache.clear()
        for key in self.counters:
            self.counters[key] = 0

    # -- connectivity -------------------------------------------------------
    def neighborhood(self, s: int, excluded: int) -> int:
        """``N(S, X)`` — DPhyp's neighbourhood of *s* avoiding *excluded*.

        Simple neighbours contribute directly; a complex edge ``(u, w)``
        with ``u ⊆ S`` and ``w ∩ (S ∪ X) = ∅`` contributes only ``min(w)``
        as its representative (Moerkotte & Neumann 2008).
        """
        counters = self.counters
        counters["neighborhood_calls"] += 1
        forbidden = s | excluded
        # The result depends only on (s, s ∪ X), so memoise on that — it
        # also folds together calls whose excluded sets differ inside s.
        key = (s, forbidden)
        cached = self._neighborhood_cache.get(key)
        if cached is not None:
            counters["neighborhood_memo_hits"] += 1
            return cached
        result = 0
        simple = self._simple_neighbors
        if self._no_complex:
            rest = s
            while rest:
                low = rest & -rest
                result |= simple[low.bit_length() - 1]
                rest ^= low
            result &= ~forbidden
            self._neighborhood_cache[key] = result
            return result
        complex_sides = self._complex_sides_by_min
        scanned = 0
        for v in bits_of(s):
            result |= simple[v]
            for u, w in complex_sides[v]:
                scanned += 1
                if not (u & ~s) and not (w & forbidden):
                    result |= w & -w
        result &= ~forbidden
        counters["edge_sides_scanned"] += scanned
        self._neighborhood_cache[key] = result
        return result

    def connected(self, s1: int, s2: int) -> bool:
        """Whether some hyperedge connects *s1* and *s2*."""
        counters = self.counters
        counters["connected_calls"] += 1
        # Any crossing edge has the min vertex of its s1-side inside s1, so
        # scanning the smaller side's incident orientations suffices.
        if s1.bit_count() > s2.bit_count():
            s1, s2 = s2, s1
        # A simple crossing edge shows up in the bitmask adjacency — the
        # O(|S1|) test that settles simple-only graphs without touching
        # any orientation list.
        simple = self._simple_neighbors
        for v in bits_of(s1):
            if simple[v] & s2:
                return True
        if self._no_complex:
            return False
        sides = self._complex_sides_by_min
        scanned = 0
        for v in bits_of(s1):
            for u, w in sides[v]:
                scanned += 1
                if not (u & ~s1) and not (w & ~s2):
                    counters["edge_sides_scanned"] += scanned
                    return True
        counters["edge_sides_scanned"] += scanned
        return False

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={len(self.edges)})"
