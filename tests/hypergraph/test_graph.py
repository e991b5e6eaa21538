"""Tests for the hypergraph data structure and bitset helpers."""

import pytest

from repro.hypergraph.bitset import (
    bits_of,
    is_subset,
    lowest_bit,
    prefix_below,
    set_of,
    subsets,
)
from repro.hypergraph.graph import Hyperedge, Hypergraph
from repro.optimizer.reference import (
    _RecursiveEnumerator,
    connected_scan,
    connecting_edges,
    induces_connected_subgraph,
)


class TestBitset:
    def test_set_of_round_trip(self):
        assert list(bits_of(set_of([0, 2, 5]))) == [0, 2, 5]

    def test_lowest_bit(self):
        assert lowest_bit(0b10100) == 2
        assert lowest_bit(0) == -1

    def test_is_subset(self):
        assert is_subset(0b010, 0b110)
        assert not is_subset(0b001, 0b110)
        assert is_subset(0, 0b110)

    def test_subsets_enumerates_all_nonempty(self):
        found = list(subsets(0b1011))
        assert len(found) == 7
        assert set(found) == {s for s in range(1, 16) if is_subset(s, 0b1011)}

    def test_subsets_smaller_first(self):
        found = list(subsets(0b111))
        assert found[0] == 0b001
        assert found[-1] == 0b111

    def test_prefix_below(self):
        assert prefix_below(0) == 0b1
        assert prefix_below(2) == 0b111


class TestHyperedge:
    def test_simple_detection(self):
        assert Hyperedge(0b1, 0b10).simple
        assert not Hyperedge(0b11, 0b100).simple

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            Hyperedge(0, 0b1)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Hyperedge(0b11, 0b110)


class TestHypergraph:
    def chain(self, n):
        return Hypergraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [Hyperedge(0b1, 0b100)])

    def test_neighborhood_simple_chain(self):
        graph = self.chain(4)
        assert graph.neighborhood(0b0001, 0) == 0b0010
        assert graph.neighborhood(0b0010, 0) == 0b0101
        assert graph.neighborhood(0b0010, 0b0001) == 0b0100

    def test_neighborhood_complex_edge_uses_min_representative(self):
        # Hyperedge {0} -- {1,2}: only min({1,2}) = 1 represents the far side.
        graph = Hypergraph(3, [Hyperedge(0b001, 0b110)])
        assert graph.neighborhood(0b001, 0) == 0b010

    def test_neighborhood_complex_edge_blocked_by_excluded(self):
        graph = Hypergraph(3, [Hyperedge(0b001, 0b110)])
        assert graph.neighborhood(0b001, 0b010) == 0

    def test_connected(self):
        graph = self.chain(3)
        assert graph.connected(0b001, 0b010)
        assert not graph.connected(0b001, 0b100)

    def test_connecting_edges_returns_all(self):
        graph = self.chain(3)
        edges = connecting_edges(graph, 0b101, 0b010)
        assert len(edges) == 2

    def test_induces_connected_subgraph(self):
        graph = self.chain(4)
        assert induces_connected_subgraph(graph, 0b0011)
        assert induces_connected_subgraph(graph, 0b0111)
        assert not induces_connected_subgraph(graph, 0b0101)

    def test_complex_edge_connectivity_requires_full_side(self):
        # {0} -- {1,2}: {0,1} alone is NOT connected (edge needs both 1 and 2),
        # and with only the hyperedge, even {0,1,2} is unbuildable because the
        # inner pair {1,2} has no edge of its own.
        graph = Hypergraph(3, [Hyperedge(0b001, 0b110)])
        assert not induces_connected_subgraph(graph, 0b011)
        assert not induces_connected_subgraph(graph, 0b111)
        with_inner = Hypergraph(3, [Hyperedge(0b001, 0b110), Hyperedge(0b010, 0b100)])
        assert induces_connected_subgraph(with_inner, 0b110)
        assert induces_connected_subgraph(with_inner, 0b111)


class TestIndexedAccessors:
    """The indexed/memoised ``connected``/``neighborhood`` are pinned to
    the oracle's linear scans on random hypergraphs."""

    def _random_graph(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 7)
        edges = []
        for _ in range(rng.randint(1, n + 3)):
            left = rng.randint(1, (1 << n) - 1)
            right = rng.randint(1, (1 << n) - 1) & ~left
            if right:
                edges.append(Hyperedge(left, right, label=len(edges)))
        if not edges:
            edges.append(Hyperedge(1, 2, label=0))
        return Hypergraph(n, edges)

    def test_connected_matches_scan(self):
        import random

        for seed in range(40):
            graph = self._random_graph(seed)
            rng = random.Random(seed * 31)
            for _ in range(50):
                s1 = rng.randint(1, graph.all_vertices)
                s2 = rng.randint(1, graph.all_vertices) & ~s1
                if not s2:
                    continue
                assert graph.connected(s1, s2) == connected_scan(graph, s1, s2)

    def test_neighborhood_matches_scan(self):
        import random

        for seed in range(40):
            graph = self._random_graph(seed + 1000)
            rng = random.Random(seed * 37)
            scan = _RecursiveEnumerator(graph).neighborhood_scan
            for _ in range(50):
                s = rng.randint(1, graph.all_vertices)
                excluded = rng.randint(0, graph.all_vertices) & ~s
                assert graph.neighborhood(s, excluded) == scan(s, excluded)

    def test_connecting_edges_preserves_edge_order(self):
        graph = Hypergraph(
            3,
            [
                Hyperedge(0b001, 0b010, label="a"),
                Hyperedge(0b100, 0b010, label="b"),
                Hyperedge(0b001, 0b100, label="c"),
            ],
        )
        labels = [edge.label for edge in connecting_edges(graph, 0b101, 0b010)]
        assert labels == ["a", "b"]

    def test_memo_counters_and_reset(self):
        graph = Hypergraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        graph.neighborhood(0b0001, 0)
        graph.neighborhood(0b0001, 0)  # second call served from memo
        assert graph.counters["neighborhood_calls"] == 2
        assert graph.counters["neighborhood_memo_hits"] == 1
        graph.reset_caches()
        assert all(value == 0 for value in graph.counters.values())
        graph.neighborhood(0b0001, 0)
        assert graph.counters["neighborhood_memo_hits"] == 0

    def test_connected_is_symmetric_under_memo(self):
        graph = Hypergraph(3, [Hyperedge(0b001, 0b110)])
        assert graph.connected(0b001, 0b110) == graph.connected(0b110, 0b001)
