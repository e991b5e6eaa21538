"""The batch optimization service layer.

Everything below :mod:`repro.optimizer` treats plan generation as a pure
function of one query; this package adds the pieces a serving system
needs on top of that function:

* :mod:`repro.service.fingerprint` — structural query fingerprints and
  statistics snapshots, stable under relation renaming and predicate
  reordering, combined into plan-cache keys (``plan_key``),
* :mod:`repro.service.cache` — a bounded LRU :class:`PlanCache` with
  hit/miss/eviction statistics, kept right by its keys,
* :mod:`repro.service.batch` — the one miss path, the library's cache
  policy (:func:`optimize_cached` for one prepared query) and
  :func:`optimize_many`, the parallel workload driver that dedups,
  caches and fans misses out over worker processes while streaming
  results back in order.

See ``docs/architecture.md`` for how this layer composes with the
paper-reproduction pipeline.
"""

from repro.service.batch import (
    BatchItem,
    BatchReport,
    default_workers,
    optimize_cached,
    optimize_many,
    run_batch,
)
from repro.service.cache import CacheStats, PlanCache, SnapshotError
from repro.service.fingerprint import (
    PlanCacheKey,
    cache_key,
    cardinality_snapshot,
    catalog_fingerprint,
    query_fingerprint,
    shard_for_fingerprint,
)
from repro.service.rebind import query_binding, rebind_result

__all__ = [
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "PlanCache",
    "PlanCacheKey",
    "SnapshotError",
    "cache_key",
    "cardinality_snapshot",
    "catalog_fingerprint",
    "default_workers",
    "optimize_cached",
    "optimize_many",
    "query_binding",
    "query_fingerprint",
    "rebind_result",
    "run_batch",
    "shard_for_fingerprint",
]
