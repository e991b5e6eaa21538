"""DPhyp enumeration tests: closed-form counts, brute-force cross-checks,
and the emission order the DP driver relies on (closed before read)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph.enumerate import count_ccps, enumerate_ccps
from repro.hypergraph.graph import Hyperedge, Hypergraph
from repro.optimizer import prepare
from repro.optimizer.reference import (
    brute_force_ccps,
    enumerate_ccps_reference,
    induces_connected_subgraph,
)
from repro.workload import generate_query


def chain(n):
    return Hypergraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Hypergraph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Hypergraph.from_pairs(n, [(0, i) for i in range(1, n)])


def clique(n):
    return Hypergraph.from_pairs(n, list(itertools.combinations(range(n), 2)))


def random_hypergraph(rng, n):
    """Up to n + 2 edges between random disjoint vertex sets (at least one)."""
    edges = []
    for _ in range(rng.randint(1, n + 2)):
        left = rng.randint(1, (1 << n) - 1)
        right = rng.randint(1, (1 << n) - 1) & ~left
        if not right:
            continue
        edges.append(Hyperedge(left, right, label=len(edges)))
    if not edges:
        edges.append(Hyperedge(1, 2, label=0))
    return Hypergraph(n, edges)


def random_simple_graph(rng, n):
    """A random spanning tree plus random extra simple edges."""
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    extras = [
        (u, w)
        for u, w in itertools.combinations(range(n), 2)
        if (u, w) not in pairs and rng.random() < 0.3
    ]
    return Hypergraph.from_pairs(n, pairs + extras)


def query_graph(seed, n):
    """The conflict hypergraph of a random query of the paper's generator."""
    return prepare(generate_query(n, random.Random(seed))).graph


def assert_closed_before_read(graph):
    """The order the DP driver builds on: a pair's components were produced
    before it reads them (singletons are there from the start), and once a
    pair has read a set, no later pair produces it — so a DP-table entry is
    final the first time a join reads it.  Returns the pair count."""
    produced = {1 << v for v in range(graph.n)}
    read = set()
    count = 0
    for s1, s2 in enumerate_ccps(graph):
        assert s1 in produced and s2 in produced, (s1, s2)
        assert s1 | s2 not in read, (s1, s2)
        read.add(s1)
        read.add(s2)
        produced.add(s1 | s2)
        count += 1
    return count


class TestClosedFormCounts:
    """#ccp formulas from Moerkotte & Neumann (2006), Table 1."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain(self, n):
        assert count_ccps(chain(n)) == (n**3 - n) // 6

    @pytest.mark.parametrize("n", range(3, 9))
    def test_star(self, n):
        assert count_ccps(star(n)) == (n - 1) * 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_clique(self, n):
        assert count_ccps(clique(n)) == (3**n - 2 ** (n + 1) + 1) // 2

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycle_matches_brute_force(self, n):
        assert count_ccps(cycle(n)) == len(brute_force_ccps(cycle(n)))


class TestEnumerationProperties:
    def test_single_vertex_yields_nothing(self):
        assert count_ccps(Hypergraph(1)) == 0

    def test_two_vertices(self):
        assert list(enumerate_ccps(chain(2))) == [(0b01, 0b10)]

    def test_pairs_unique(self):
        pairs = list(enumerate_ccps(clique(5)))
        normalised = {frozenset((s1, s2)) for s1, s2 in pairs}
        assert len(normalised) == len(pairs)

    def test_pairs_are_valid_ccps(self):
        graph = cycle(5)
        for s1, s2 in enumerate_ccps(graph):
            assert s1 & s2 == 0
            assert induces_connected_subgraph(graph, s1)
            assert induces_connected_subgraph(graph, s2)
            assert graph.connected(s1, s2)

    @pytest.mark.parametrize("make", [chain, cycle, star, clique])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dp_order(self, make, n):
        """Closed before read, on the four topologies up to n = 8."""
        if make is cycle and n == 2:
            pytest.skip("cycle needs n >= 3")
        assert assert_closed_before_read(make(n)) == count_ccps(make(n))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_closed_before_read_random_hypergraphs(self, seed):
        rng = random.Random(seed)
        assert_closed_before_read(random_hypergraph(rng, rng.randint(2, 8)))

    @pytest.mark.parametrize("seed", range(40))
    def test_closed_before_read_generated_queries(self, seed):
        assert assert_closed_before_read(query_graph(seed, 3 + seed % 8))

    @pytest.mark.slow
    def test_closed_before_read_exhaustive(self):
        """The ``--runslow`` twin: 3,000 graphs up to n = 10 — random
        hypergraphs, the same over a chain backbone (connected, so every
        pair count is large), and generated queries."""
        pairs = 0
        for seed in range(1000):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            graph = random_hypergraph(rng, n)
            pairs += assert_closed_before_read(graph)
            backbone = [Hyperedge(1 << (i - 1), 1 << i) for i in range(1, n)]
            pairs += assert_closed_before_read(Hypergraph(n, graph.edges + backbone))
            pairs += assert_closed_before_read(query_graph(seed + 10_000, 3 + seed % 8))
        assert pairs > 100_000

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_connected_simple_graphs_match_brute_force(self, n, seed):
        graph = random_simple_graph(random.Random(seed), n)
        emitted = {frozenset((s1, s2)) for s1, s2 in enumerate_ccps(graph)}
        expected = {frozenset(p) for p in brute_force_ccps(graph)}
        assert emitted == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_hypergraphs_match_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        edges = [Hyperedge(1 << (i - 1), 1 << i, label=i) for i in range(1, n)]
        # Add a couple of complex hyperedges over random disjoint sets.
        for _ in range(2):
            left = frozenset(rng.sample(range(n), rng.randint(1, 2)))
            remaining = [v for v in range(n) if v not in left]
            if not remaining:
                continue
            right = frozenset(rng.sample(remaining, rng.randint(1, min(2, len(remaining)))))
            edges.append(
                Hyperedge(sum(1 << v for v in left), sum(1 << v for v in right))
            )
        graph = Hypergraph(n, edges)
        emitted = {frozenset((s1, s2)) for s1, s2 in enumerate_ccps(graph)}
        expected = {frozenset(p) for p in brute_force_ccps(graph)}
        assert emitted == expected


class TestIterativeMatchesReference:
    """The iterative hot-path enumerator is pinned, pair for pair *in
    order*, to the seed's recursive transcription."""

    @pytest.mark.parametrize("make", [chain, cycle, star, clique])
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_topologies_emit_identical_sequences(self, make, n):
        if make is cycle and n == 2:
            pytest.skip("cycle needs n >= 3")
        assert list(enumerate_ccps(make(n))) == list(enumerate_ccps_reference(make(n)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_hypergraphs_emit_identical_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_hypergraph(rng, rng.randint(2, 7))
        assert list(enumerate_ccps(graph)) == list(enumerate_ccps_reference(graph))


class TestConnectedOnlyWhereTheNeighbourhoodCannotTell:
    """Without complex edges every vertex of N(S1) has a simple edge into
    S1, so the enumerator asks ``connected`` nothing; with them it asks.
    The identical-sequence tests above stay the order gate."""

    @pytest.mark.parametrize("make", [chain, cycle, star, clique])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_topologies_ask_nothing(self, make, n):
        graph = make(n)
        assert count_ccps(graph) > 0
        assert graph.counters["connected_calls"] == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_simple_graphs_ask_nothing(self, seed):
        rng = random.Random(seed)
        graph = random_simple_graph(rng, rng.randint(2, 8))
        assert list(enumerate_ccps(graph)) == list(enumerate_ccps_reference(graph))
        assert graph.counters["connected_calls"] == 0

    def test_random_hypergraphs_with_complex_edges_ask(self):
        rng = random.Random(7)
        graphs = 0
        while graphs < 30:
            graph = random_hypergraph(rng, rng.randint(3, 7))
            if all(edge.simple for edge in graph.edges) or not count_ccps(graph):
                continue
            assert graph.counters["connected_calls"] > 0, graph.edges
            graphs += 1


class TestLargeChains:
    """The hot path is iterative: no recursion-limit failures on deep
    chains (the seed's recursive enumerator could not get here)."""

    def test_chain_20_smoke(self):
        n = 20
        assert count_ccps(chain(n)) == (n**3 - n) // 6

    def test_chain_60_exceeds_default_recursion_headroom(self):
        # Sanity-check the premise at a size that stays fast (~100k ccps):
        # 60 nested generator frames per emitted pair would already strain
        # the seed implementation; the iterative enumerator is indifferent.
        n = 60
        assert count_ccps(chain(n)) == (n**3 - n) // 6

    def test_reference_enumerator_rejects_oversized_graphs(self):
        with pytest.raises(RecursionError, match="iterative"):
            list(enumerate_ccps_reference(chain(500)))
