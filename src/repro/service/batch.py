"""The one miss path, the library's cache policy, and the batch driver.

Everything below the transports turns a plan-cache miss into an optimizer
run here: a :class:`Miss` is the ticket, :func:`plan_miss` the only place
a ticket becomes a :func:`repro.optimizer.optimize` run — in whichever
process holds it (a shard plans its own; the batch pool maps the same
function over pickled tickets) — and
:func:`plan_wave` says once that *the first miss of a key leads, later
ones share its outcome*.

A library caller's cache — a :class:`~repro.api.PlannerSession`'s, or one
handed to :func:`run_batch` — is consulted here and nowhere else:
:func:`serve_fresh` decides when a cached plan may be served and what a
miss is bounded by, :func:`store_planned` files what the miss planned.
:func:`optimize_cached` is that policy for one prepared query (the
session's statements).  The optimizer itself knows no cache.

:func:`optimize_many` is that path applied to a workload — bursts of
queries full of repeated shapes: items are keyed by
:func:`~repro.service.fingerprint.plan_key` and served from an optional
:class:`PlanCache`, each distinct missing key is optimized once
(in-process, or over a ``multiprocessing`` pool: the DP is CPU-bound pure
Python, threads would serialise on the GIL), and items stream back in
submission order with per-query timing and a ``cache_hit`` flag.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro import chaos
from repro.optimizer import driver
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.driver import OptimizationResult, OptimizerHooks, PreparedQuery
from repro.query.spec import Query
from repro.service.cache import FRESH, CacheStats, PlanCache
from repro.service.fingerprint import PlanCacheKey, plan_key
from repro.service.rebind import query_binding, rebind_result

#: cap on the default worker count — DP enumeration is memory-hungry and
#: beyond this the pool's pickling overhead dominates for small queries.
_MAX_DEFAULT_WORKERS = 8


@dataclass
class BatchItem:
    """One workload entry's outcome, in submission order.

    Exactly one of *result* and *error* is set: a failed optimizer run
    yields ``result=None`` with *error* carrying the worker's exception as
    ``"ExcType: message"``.  Failures never come from the cache and are
    never stored into it, so a failed item always has ``cache_hit=False``.
    """

    index: int
    key: PlanCacheKey
    result: Optional[OptimizationResult]
    elapsed_seconds: float
    cache_hit: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cost(self) -> float:
        if self.result is None:
            raise ValueError(f"query {self.index} failed to optimize: {self.error}")
        return self.result.cost


@dataclass
class BatchReport:
    """Aggregate outcome of :func:`run_batch`."""

    items: List[BatchItem]
    wall_seconds: float
    workers: int
    cache_stats: Optional[CacheStats] = None

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def hits(self) -> int:
        return sum(1 for item in self.items if item.cache_hit)

    @property
    def failures(self) -> List[BatchItem]:
        """The items whose optimizer run raised (``result is None``)."""
        return [item for item in self.items if not item.ok]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def hit_rate(self) -> float:
        """Fraction of items served without a fresh optimizer run."""
        return self.hits / self.total if self.items else 0.0

    @property
    def queries_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    @property
    def optimize_seconds(self) -> float:
        """CPU seconds actually spent in the DP driver (misses only)."""
        return sum(
            item.result.elapsed_seconds
            for item in self.items
            if not item.cache_hit and item.result is not None
        )


def default_workers() -> int:
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(available, _MAX_DEFAULT_WORKERS))


@dataclass
class WorkerOutcome:
    """What one optimizer run produced: a result or a captured error.

    Workers return this envelope instead of raising so a single poisoned
    query cannot abort a whole batch (exceptions propagating out of
    ``Pool.imap`` lose every completed result) and so unpicklable
    exception types cannot kill the pool protocol.
    """

    result: Optional[OptimizationResult]
    error: Optional[str]
    elapsed_seconds: float
    #: True when the error is a blown planning deadline
    #: (``degradation="error"``) — servers map it to 504 instead of 500.
    deadline: bool = False
    #: True for a follower's copy of its leader's outcome
    #: (:func:`plan_wave`): nothing ran for it, nothing is stored or
    #: counted as a failure for it.
    shared: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(slots=True)
class Miss:
    """The ticket for one cache miss: what :func:`plan_miss` needs to run
    it and its caller to store the result (picklable, for pool workers)."""

    query: Query
    config: OptimizerConfig
    key: PlanCacheKey
    #: the query's exact (unbanded) snapshot, stored beside the plan.
    exact: str
    #: the source text, when the query came through a SQL front door.
    sql: Optional[str] = None
    #: ``time.monotonic()`` instant the budget expires, so time queued
    #: before the run is charged; ``None`` leaves
    #: ``config.deadline_seconds`` in charge.
    deadline_at: Optional[float] = None
    #: what a plan of exactly this problem is known to cost, when the
    #: cache that missed remembers one (``PlanCache.known_cost``); the
    #: run is bounded by it instead of planning a heuristic first.
    known_cost: Optional[float] = None


def plan_miss(miss: Miss) -> WorkerOutcome:
    """Run the optimizer for one ticket, errors captured (module-level
    for pickling)."""
    if chaos.enabled():
        # aliases survive binding as relation names, so SQL markers show here
        chaos.before_request(" ".join(rel.name for rel in miss.query.relations))
    started = time.perf_counter()
    deadline = None
    if miss.deadline_at is not None:
        # A spent budget still arms a Deadline: it fires on the first DP
        # check, so the request degrades (or 504s) at once.
        deadline = Deadline(max(0.0, miss.deadline_at - time.monotonic()))
    try:
        result = driver.optimize(
            miss.query, config=miss.config, deadline=deadline, known_cost=miss.known_cost
        )
    except Exception as exc:  # noqa: BLE001 - per-item fault isolation
        timed_out = isinstance(exc, PlanningDeadlineExceeded)
        elapsed = time.perf_counter() - started
        return WorkerOutcome(None, f"{type(exc).__name__}: {exc}", elapsed, timed_out)
    return WorkerOutcome(result, None, result.elapsed_seconds)


def serve_fresh(cache: PlanCache, miss: Miss) -> Optional[OptimizationResult]:
    """The cached plan for *miss*'s key if it may be served, else None.

    Only a fresh entry is served (rebound to the ticket's names, marked a
    cache hit).  A stale one is a miss: nothing drains a library cache, so
    an entry served stale would be served forever — only
    :class:`~repro.service.core.ServingCore`, whose revalidator drains
    its cache, serves one.  A miss leaves with the cost the cache
    remembers for exactly this problem in ``miss.known_cost``
    (:meth:`PlanCache.known_cost`), which bounds its run.
    """
    found = cache.serve_entry(miss.key, miss.query, exact_snapshot=miss.exact)
    if found is not None and found[1] == FRESH:
        return found[0]
    miss.known_cost = cache.known_cost(miss.key, miss.exact)
    return None


def store_planned(cache: PlanCache, miss: Miss, result: OptimizationResult) -> None:
    """File what *miss* planned, with its exact snapshot (a degraded
    fallback is refused by :meth:`PlanCache.store`)."""
    cache.store(miss.key, miss.query, result, exact_snapshot=miss.exact)


def optimize_cached(
    prepared: PreparedQuery,
    cache: Optional[PlanCache],
    config: OptimizerConfig,
    hooks: Optional[OptimizerHooks] = None,
) -> OptimizationResult:
    """Optimize *prepared*'s query through *cache* (None: plan every time).

    A served plan comes back as it is, ``cache_hit=True``, and no hook
    fires for it; a miss is planned under *hooks* and stored.
    """
    query = prepared.query
    if cache is None:
        return driver.optimize(query, prepared=prepared, config=config, hooks=hooks)
    miss = Miss(query, config, *plan_key(query, config))
    served = serve_fresh(cache, miss)
    if served is not None:
        return served
    result = driver.optimize(
        query, prepared=prepared, config=config, hooks=hooks, known_cost=miss.known_cost
    )
    store_planned(cache, miss, result)
    return result


def plan_wave(
    misses: Sequence[Miss],
    run: Callable[[List[Miss]], Iterable[WorkerOutcome]],
) -> Iterator[WorkerOutcome]:
    """One outcome per ticket of *misses*, in order; one run per key.

    The first miss of a key leads: *run* gets the leaders and yields
    their outcomes in order — lazily if it likes, each is pulled when
    first needed, so results stream.  Later misses of the key follow:
    a ``shared`` copy of the leader's outcome — its failure as it is, its
    result rebound to the follower's names and flagged a cache hit —
    made from the outcome in hand, never from a cache (the entry may be
    evicted already, or — degraded, failed — was never stored).
    """
    leaders: Dict[PlanCacheKey, Miss] = {}
    for miss in misses:
        leaders.setdefault(miss.key, miss)
    arriving = iter(run(list(leaders.values())))
    outcomes: Dict[PlanCacheKey, WorkerOutcome] = {}
    for miss in misses:
        leader = leaders[miss.key]
        if leader is miss:
            outcomes[miss.key] = outcome = next(arriving)
            yield outcome
            continue
        outcome = replace(outcomes[miss.key], elapsed_seconds=0.0, shared=True)
        if outcome.ok:
            binding = query_binding(leader.query)
            outcome.result = rebind_result(outcome.result, binding, miss.query).as_cache_hit()
        yield outcome


@contextlib.contextmanager
def _planner(processes: int):
    """How a batch's leaders get planned — a ``run`` for :func:`plan_wave`:
    lazily in this process, or over a pool of *processes*."""
    if processes <= 1:
        yield partial(map, plan_miss)  # lazy, so results still stream in order
        return
    import multiprocessing  # only a process that builds a pool pays for it

    with multiprocessing.get_context().Pool(processes) as pool:
        # imap preserves submission order and workers return envelopes,
        # so a poisoned query is a per-item error, not a raise from next().
        yield partial(pool.imap, plan_miss, chunksize=1)


def optimize_many(
    queries: Sequence[Query],
    cache: Optional[PlanCache] = None,
    config: Optional[OptimizerConfig] = None,
) -> Iterator[BatchItem]:
    """Optimize *queries* under *config*, yielding a :class:`BatchItem`
    per entry in order.

    Every item whose plan was not freshly computed — served from *cache*
    (:func:`serve_fresh`) or sharing the run of an identical earlier item
    in the same batch — carries ``cache_hit=True``.  With
    ``config.workers <= 1`` (or a single miss) everything runs
    in-process; otherwise distinct misses are spread over a process pool.
    The cache is consulted and populated only in the dispatching process,
    so workers stay oblivious to it.

    A query whose optimizer run raises does not abort the batch: its item
    (and every in-batch duplicate's) streams back with ``result=None`` and
    the exception text in :attr:`BatchItem.error`.  Failures and
    deadline-degraded results are never stored in the cache.
    """
    config = config or OptimizerConfig()
    # Schedule: every item is a cache hit (answered now) or a ticket.
    slots: List["BatchItem | Miss"] = []
    missed: set = set()
    for index, query in enumerate(queries):
        miss = Miss(query, config, *plan_key(query, config))
        if cache is not None and miss.key not in missed:
            started = time.perf_counter()
            served = serve_fresh(cache, miss)
            if served is not None:
                # a hit reports the probe time, not the original run's
                elapsed = time.perf_counter() - started
                slots.append(BatchItem(index, miss.key, served, elapsed, cache_hit=True))
                continue
        missed.add(miss.key)
        slots.append(miss)

    processes = min(config.workers or default_workers(), len(missed))
    with _planner(processes) as run:
        wave = plan_wave([slot for slot in slots if type(slot) is Miss], run)
        for index, slot in enumerate(slots):
            if type(slot) is not Miss:
                yield slot
                continue
            outcome = next(wave)
            if cache is not None and outcome.ok and not outcome.shared:
                store_planned(cache, slot, outcome.result)
            yield BatchItem(
                index,
                slot.key,
                outcome.result,
                outcome.elapsed_seconds,
                cache_hit=outcome.shared and outcome.ok,
                error=outcome.error,
            )


def run_batch(
    queries: Sequence[Query],
    cache: Optional[PlanCache] = None,
    config: Optional[OptimizerConfig] = None,
) -> BatchReport:
    """Drive :func:`optimize_many` to completion and summarise it."""
    config = config or OptimizerConfig()
    started = time.perf_counter()
    items = list(optimize_many(queries, cache, config))
    return BatchReport(
        items=items,
        wall_seconds=time.perf_counter() - started,
        workers=config.workers or default_workers(),
        cache_stats=cache.stats_snapshot() if cache is not None else None,
    )
