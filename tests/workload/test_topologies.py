"""The fixed-topology workloads must actually have their advertised shape:
the conflict detector's hypergraph should enumerate exactly the closed-form
csg-cmp-pair counts of Moerkotte & Neumann (2006), Table 1."""

import pytest

from repro.hypergraph.enumerate import count_ccps
from repro.optimizer.driver import prepare
from repro.workload import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
    topology_query,
)


class TestTopologyShapes:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_chain_ccp_count(self, n):
        graph = prepare(chain_query(n)).graph
        assert count_ccps(graph) == (n**3 - n) // 6

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_star_ccp_count(self, n):
        graph = prepare(star_query(n)).graph
        assert count_ccps(graph) == (n - 1) * 2 ** (n - 2)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_clique_ccp_count(self, n):
        graph = prepare(clique_query(n)).graph
        assert count_ccps(graph) == (3**n - 2 ** (n + 1) + 1) // 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_cycle_edge_count(self, n):
        query = cycle_query(n)
        assert len(query.edges) == n
        assert len(query.floating_edge_ids) == 1
        graph = prepare(query).graph
        assert len(graph.edges) == n

    def test_clique_floating_edges(self):
        query = clique_query(5)
        assert len(query.edges) == 10  # C(5, 2)
        assert len(query.floating_edge_ids) == 10 - 4  # all but the spine


class TestTopologyQueries:
    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    def test_optimizable_end_to_end(self, topology):
        from repro.optimizer import optimize

        result = optimize(topology_query(topology, 5))
        assert result.cost > 0
        assert result.table_sizes

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology_query("lattice", 5)

    @pytest.mark.parametrize(
        "builder,minimum",
        [(chain_query, 2), (cycle_query, 3), (star_query, 2), (clique_query, 3)],
    )
    def test_size_floors(self, builder, minimum):
        with pytest.raises(ValueError):
            builder(minimum - 1)

    def test_deterministic_construction(self):
        a, b = star_query(6), star_query(6)
        assert [r.cardinality for r in a.relations] == [
            r.cardinality for r in b.relations
        ]
        assert [e.selectivity for e in a.edges] == [e.selectivity for e in b.edges]
