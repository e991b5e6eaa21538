"""EA-Prune's heavy tail stays thin, at the same optimum.

Comparing FD states only on what a completion of a relation set can read
(``FdTable.project``) is what keeps EA-Prune's buckets small on the
shapes where the whole triple kept hundreds of incomparable plans: star-8
went from 18,362 plans built and a largest bucket of 64 to the figures
below, star-10 from 424,783 and 373, and ``generate_query(12,
Random(71 * 7919 + 12))`` from 524,592 and 8,292.  Each guard pins the
work and checks the cost against the one the whole-triple clause found.
Default configuration: bounded by H1's cost, as the product runs.
"""

import random

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.workload import generate_query, topology_query


def _run(query):
    result = optimize(query, config=OptimizerConfig(strategy="ea-prune", cache_capacity=None))
    inner = [size for mask, size in result.table_sizes.items() if mask != query.all_relations_mask]
    return result.cost, result.plans_built, max(inner)


def test_star_8():
    assert _run(topology_query("star", 8)) == (83529.32099956679, 4327, 4)


@pytest.mark.slow
def test_star_10():
    assert _run(topology_query("star", 10)) == (85787.9333250345, 35065, 6)


@pytest.mark.slow
def test_generated_12_seed_71():
    query = generate_query(12, random.Random(71 * 7919 + 12))
    assert _run(query) == (99400.4912323645, 78545, 194)
