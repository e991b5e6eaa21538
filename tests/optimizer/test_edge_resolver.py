"""The indexed edge resolver answers exactly what the seed's scan answers.

:class:`~repro.optimizer.edgeindex.EdgeResolver` asks ``applicable`` only
of edges that carry conflict rules: for the others TES containment — the
crossing test its index scan makes — is the whole of ``Applicable``.
Generated queries and TPC-H never put an edge with rules into a ccp that
several edges cross, so the edge sets here are random: random TESs,
operators and rules over a five-relation query's edges, every disjoint
pair of relation sets resolved by both and compared — with either side
the smaller, since the resolver scans the smaller side's orientations.
"""

import itertools
import random

import pytest

from repro.conflict.detector import AnnotatedEdge, ConflictRule
from repro.optimizer.reference import _resolve_edge
from repro.optimizer.edgeindex import EdgeResolver
from repro.rewrites.pushdown import OpKind
from repro.workload import topology_query

QUERY = topology_query("clique", 5)
N = len(QUERY.relations)
OPS = (OpKind.INNER, OpKind.INNER, OpKind.LEFT_OUTER, OpKind.LEFT_SEMI)


def _random_edges(rng):
    edges = []
    for edge_id in rng.sample(range(len(QUERY.edges)), rng.randint(1, 6)):
        l_tes = rng.randint(1, (1 << N) - 1)
        r_tes = rng.randint(1, (1 << N) - 1) & ~l_tes
        if not r_tes:
            continue
        rules = tuple(
            ConflictRule(rng.randint(1, (1 << N) - 1), rng.randint(1, (1 << N) - 1))
            for _ in range(rng.choice((0, 0, 1, 2)))
        )
        edges.append(AnnotatedEdge(edge_id, rng.choice(OPS), l_tes, r_tes, rules))
    return edges


def _answer(spec):
    if spec is None:
        return None
    return spec.op, spec.predicate, spec.selectivity, spec.groupjoin_vector, spec.swap


@pytest.mark.parametrize("seed", range(20))
def test_resolver_matches_the_seed_scan(seed):
    rng = random.Random(seed)
    several_with_rules = 0
    # (S2 is the smaller side, a crossing edge has rules): the resolver
    # scans the smaller side, and answers a free edge found from S2 with
    # the other orientation's spec; each combination must be reached.
    reached = set()
    for _ in range(10):
        edges = _random_edges(rng)
        resolver = EdgeResolver(edges, QUERY)
        for labels in itertools.product(range(3), repeat=N):
            s1 = sum(1 << v for v, side in enumerate(labels) if side == 1)
            s2 = sum(1 << v for v, side in enumerate(labels) if side == 2)
            if not s1 or not s2:
                continue
            assert _answer(resolver.resolve(s1, s2)) == _answer(
                _resolve_edge(edges, QUERY, s1, s2)
            ), (edges, s1, s2)
            crossing = [
                e for e in edges
                if (not e.l_tes & ~s1 and not e.r_tes & ~s2)
                or (not e.l_tes & ~s2 and not e.r_tes & ~s1)
            ]
            several_with_rules += len(crossing) > 1 and any(e.rules for e in crossing)
            for e in crossing:
                reached.add((s2.bit_count() < s1.bit_count(), bool(e.rules)))
    assert several_with_rules  # the branch this file exists for was reached
    assert reached == {(False, False), (False, True), (True, False), (True, True)}
