"""One thread owns a plan cache: the batch driver and a session touch
theirs only from the calling thread, also while a pool plans the misses.

A cache takes no lock (:mod:`repro.service.cache`, "One owner"), so this
is what holds the contract: a cache that notes the thread behind every
attribute it is asked for — each method call, each field read — and a
pooled batch that must leave one thread in it, the caller's.
"""

import random
import threading

from repro.api import PlannerSession
from repro.optimizer import OptimizerConfig
from repro.service import PlanCache, optimize_many
from repro.workload import generate_workload

POOL = OptimizerConfig(workers=2)


class Noting(PlanCache):
    """A plan cache recording ``threading.get_ident()`` on every access."""

    def __init__(self, capacity: int = 64):
        self.threads = set()
        super().__init__(capacity)

    def __getattribute__(self, name):
        object.__getattribute__(self, "threads").add(threading.get_ident())
        return object.__getattribute__(self, name)


def workload():
    """Eight queries over four shapes: four distinct misses for the pool,
    four in-batch repeats."""
    return generate_workload(8, 4, random.Random(7), unique=4)


def test_a_pooled_batch_touches_its_cache_only_from_the_calling_thread():
    cache = Noting()
    queries = workload()
    first = list(optimize_many(queries, cache, POOL))
    second = list(optimize_many(queries, cache, POOL))
    assert sum(not item.cache_hit for item in first) == 4 and len(cache) == 4
    assert all(item.cache_hit for item in second)
    assert cache.threads == {threading.get_ident()}


def test_a_sessions_pooled_batch_touches_its_cache_only_from_the_calling_thread():
    cache = Noting()
    session = PlannerSession(config=POOL, cache=cache)
    queries = workload()
    first = session.run_batch(queries)
    second = session.run_batch(queries)
    assert (first.hits, first.total, len(cache)) == (4, 8, 4)
    assert second.hit_rate == 1.0
    assert cache.threads == {threading.get_ident()}
