"""Perf regression guard: indexed H1/H2 must not lose to the oracle's scans.

The ROADMAP noted the heuristics sometimes lost to the seed's code path
on small graphs — the per-call index machinery (orientation-list scans,
memo keys) cost more than the tiny runs it was amortised over.  The
hypergraph now serves simple-only graphs (every bench topology) straight
from the bitmask adjacency, making that crossover explicit; this test
pins the outcome: indexed H1/H2 at most 1.5× the oracle's
(``optimize_reference``) time on the bench topologies.

Timing discipline: interleaved min-of-N per engine (min is the robust
statistic for "how fast can this go"), sizes chosen so a run takes tens
of milliseconds (big enough to dwarf timer noise, small enough for
tier-1), and one slower re-measure before declaring failure.
"""

import time
import warnings

import pytest

from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.optimizer.reference import optimize_reference
from repro.workload import topology_query

#: topology → size: the smallest bench sizes where a heuristic run is
#: comfortably above timer resolution on slow CI machines.
CASES = {"chain": 8, "cycle": 7, "star": 6, "clique": 5}
MAX_RATIO = 1.5


ENGINES = {"indexed": optimize, "reference": optimize_reference}


def _best_of(query, prepared, config, engine, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ENGINES[engine](query, prepared=prepared, config=config)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_ratio(topology, n, strategy, reps):
    query = topology_query(topology, n)
    prepared = prepare(query)  # shared pre-pass: time the engines, not detect()
    config = OptimizerConfig(strategy=strategy, cache_capacity=None)
    # Warm both paths (imports, leaf statistics, memo tables), then
    # interleave so frequency scaling and background load hit both.
    _best_of(query, prepared, config, "indexed", 1)
    _best_of(query, prepared, config, "reference", 1)
    indexed = reference = float("inf")
    for _ in range(reps):
        indexed = min(indexed, _best_of(query, prepared, config, "indexed", 1))
        reference = min(reference, _best_of(query, prepared, config, "reference", 1))
    return indexed / reference


class TestHeuristicsNeverLoseToReference:
    @pytest.mark.parametrize("topology,n", sorted(CASES.items()))
    @pytest.mark.parametrize("strategy", ["h1", "h2"])
    def test_indexed_within_ratio_of_reference(self, topology, n, strategy):
        ratio = _measure_ratio(topology, n, strategy, reps=3)
        if ratio > MAX_RATIO:
            # One slower re-measure before failing: a single descheduled
            # run must not fail the suite, a systematic regression must.
            ratio = _measure_ratio(topology, n, strategy, reps=7)
        assert ratio <= MAX_RATIO, (topology, n, strategy, ratio)
