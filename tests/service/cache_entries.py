"""Real queries and stand-in results for the plan-cache unit tests.

The cache's one insert, :meth:`~repro.service.cache.PlanCache.store`,
records the base tables a query scans and how it names them; its one
probe, :meth:`~repro.service.cache.PlanCache.serve_entry`, rebinds a hit
to the probing query's names.  Both take real queries, parsed here
against TPC-H.  Results stay stand-ins: the cache reads nothing of one
but ``cost``, ``degraded`` and ``as_cache_hit()``.
"""

from functools import lru_cache

from repro.service.fingerprint import PlanCacheKey
from repro.sql import Catalog, parse_query

CATALOG = Catalog.from_tpch()

#: the joins a test stores a plan for, by their (sorted) base tables
_JOINS = {
    ("lineitem", "orders"): (
        "SELECT count(*) AS cnt FROM orders o "
        "JOIN lineitem l ON o.o_orderkey = l.l_orderkey"
    ),
}


def key(tag: str, snapshot: str = "snap") -> PlanCacheKey:
    return PlanCacheKey(fingerprint=tag, snapshot=snapshot, strategy="ea-prune")


@lru_cache(maxsize=None)
def query_over(*tables: str):
    """A real query whose plan scans exactly *tables* (nation when none
    are named).  Queries over the same tables share one naming, so a
    probe with one needs no rebinding — the stand-in results could not
    be rebound."""
    names = tuple(sorted(table.lower() for table in tables)) or ("nation",)
    if len(names) == 1:
        return parse_query(f"SELECT count(*) AS cnt FROM {names[0]} t", CATALOG)
    return parse_query(_JOINS[names], CATALOG)


def served(cache, entry_key: PlanCacheKey, *tables: str):
    """What the probe hands out for *entry_key* to the query over
    *tables*: the result, or None on a miss."""
    found = cache.serve_entry(entry_key, query_over(*tables))
    return None if found is None else found[0]


class Plan:
    """Stand-in for an OptimizationResult; picklable, so it can ride a
    snapshot.  Without a *cost* an evicted entry leaves none behind."""

    degraded = False

    def __init__(self, tag, cost=None):
        self.tag = tag
        self.cost = cost

    def as_cache_hit(self):
        return self


class Degraded(Plan):
    degraded = True
