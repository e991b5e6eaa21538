"""The traced pass: a workload's requests replayed in-process, layer by layer.

Each function here does what the serving tiers do for one request, but
by calling the layers' public functions directly with a span around each
call (see ``trace.py``).  The layer names are the package names:
``sql``, ``conflict``, ``hypergraph``, ``optimizer``, ``service``,
``exec``, ``data``, ``api``.  Nothing is read from inside ``repro`` except
what it returns, so the per-layer numbers are measured from outside.

The replay does not try to reproduce the servers' counters (those come
from ``GET /stats``); it reproduces their *work*: a miss plans and
stores, a hit probes and rebinds, a statistics update marks entries
stale and re-costs or re-plans them.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from collections import Counter
from statistics import median
from time import perf_counter
from typing import Dict, List

from repro.algebra.values import NULL
from repro.api import plan_to_dict
from repro.exec import run_plan
from repro.exec.physical import lower
from repro.hypergraph.enumerate import enumerate_ccps
from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.optimizer.planinfo import clear_memo_caches
from repro.optimizer.recost import evaluate_stale, recosted_result
from repro.optimizer.strategies import reset_prune_caches
from repro.service.cache import PlanCache
from repro.service.fingerprint import cache_key, cardinality_snapshot
from repro.service.rebind import query_binding, rebind_result
from repro.sql import Catalog, TableStats, bind, parse_select, tokenize

from trace import Tracer
from workloads import DEFAULT_EXECUTE_LIMIT, HttpWorkload, PlanCase, Request

#: ``OptimizationResult.stats`` keys summed into per-layer counters.
STAT_COUNTERS = {
    "hypergraph.neighborhood_calls": "graph.neighborhood_calls",
    "hypergraph.memo_hits": "graph.neighborhood_memo_hits",
    "optimizer.dominance_checks": "strategy.dominance_checks",
    "optimizer.plans_discarded": "strategy.plans_discarded",
    "optimizer.plans_evicted": "strategy.plans_evicted",
    "optimizer.resolve_calls": "resolver.resolve_calls",
    "optimizer.edge_sides_scanned": "resolver.edge_sides_scanned",
}

#: Spans the async tier runs once per SQL *text* (its shard memoises
#: parse, bind and digests by text), not once per request.
MEMOISED_BY_ASYNC_TIER = ("sql.parse", "sql.bind", "service.fingerprint")


def cold_start() -> None:
    """Drop every cross-run memo, so each ``optimize`` starts cold."""
    reset_prune_caches()
    clear_memo_caches()
    gc.collect()


#: The serving tiers plan with their default strategy, EA-Prune: a miss
#: there is eager-group work.
SERVING_GROUP = "eager"


class Counters(Counter):
    def add_result(self, result, group: str) -> None:
        self["hypergraph.ccps"] += result.ccp_count
        self["optimizer.plans_built." + group] += result.plans_built
        self["optimizer.plans_kept." + group] += sum(result.table_sizes.values())
        for name, key in STAT_COUNTERS.items():
            self[name] += result.stats.get(key, 0)


# -- plan_cold -----------------------------------------------------------------


def replay_plan_cases(cases: List[PlanCase], tracer: Tracer, counters: Counters) -> float:
    """One cold pass over *cases*; returns Σ request wall (nominal-speed seconds)."""
    wall = 0.0
    for rid, case in enumerate(cases):
        query = case.build()
        config = OptimizerConfig(strategy=case.strategy, cache_capacity=None)
        cold_start()
        tracer.calibrate(force=True)
        started = perf_counter()
        with tracer.request(rid):
            with tracer.span("conflict.prepare"):
                prepared = prepare(query)
            with tracer.span("optimizer.optimize." + case.group):
                result = optimize(query, prepared=prepared, config=config)
        wall += (perf_counter() - started) * tracer.speed
        counters.add_result(result, case.group)
        if tracer.enabled:
            # optimize() drains the enumerator internally; time it alone
            # on a graph whose memos are as cold as optimize() found them
            graph = prepare(case.build()).graph
            graph.reset_caches()
            with tracer.probe("hypergraph.enumerate"):
                for _pair in enumerate_ccps(graph):
                    pass
    return wall


def peak_alloc_mb(case: PlanCase) -> float:
    """``tracemalloc`` peak around one cold ``optimize`` (plans are the memory)."""
    query = case.build()
    config = OptimizerConfig(strategy=case.strategy, cache_capacity=None)
    cold_start()
    tracemalloc.start()
    try:
        optimize(query, config=config)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


# -- serving workloads -----------------------------------------------------------


class ServingReplay:
    """One shard's worth of state, driven request by request."""

    def __init__(self, workload: HttpWorkload, tracer: Tracer, dataset=None):
        self.tracer = tracer
        self.catalog = Catalog.from_tpch()
        self.config = OptimizerConfig(
            cache_capacity=None, snapshot_band_width=workload.band_width
        )
        self.cache = PlanCache(capacity=workload.cache_capacity)
        self.dataset = dataset
        self.counters = Counters()
        #: cache key → (stored result, its query): what a hit is rebound from
        self.stored: Dict[object, tuple] = {}
        self.wall = 0.0

    def handle(self, rid: int, request: Request) -> None:
        self.tracer.calibrate()
        probes = None
        started = perf_counter()
        with self.tracer.request(rid):
            if request.path == "/stats_update":
                self._stats_update(request.body)
            else:
                probes = self._plan_request(request)
        self.wall += (perf_counter() - started) * self.tracer.speed
        if probes is not None and self.tracer.enabled:
            self._probe(*probes)

    def _key(self, query):
        config = self.config
        key = cache_key(
            query, config.strategy, config.factor,
            cost_model=config.cost_model_name, band_width=config.snapshot_band_width,
        )
        banded = config.snapshot_band_width is not None
        return key, cardinality_snapshot(query) if banded else key.snapshot

    def _plan_request(self, request: Request) -> tuple:
        tracer, sql = self.tracer, request.body["sql"]
        with tracer.span("sql.parse"):
            statement = parse_select(sql)
        with tracer.span("sql.bind"):
            query = bind(statement, self.catalog)
        with tracer.span("service.fingerprint"):
            key, exact = self._key(query)
        with tracer.span("service.cache_probe"):
            found = self.cache.serve_entry(key, query, exact_snapshot=exact)
        if found is None:
            with tracer.span("conflict.prepare"):
                prepared = prepare(query)
            with tracer.span("optimizer.optimize." + SERVING_GROUP):
                result = optimize(query, prepared=prepared, config=self.config)
            with tracer.span("service.cache_store"):
                self.cache.store(key, query, result, sql=sql, exact_snapshot=exact)
            self.counters.add_result(result, SERVING_GROUP)
            self.stored[key] = (result, query)
        else:
            result = found[0]
        payload = {
            "strategy": result.strategy, "cost": result.cost,
            "cache_hit": result.cache_hit, "degraded": result.degraded,
        }
        if request.path == "/execute":
            self._execute(request, query, result, payload)
        else:
            with tracer.span("api.serialize"):
                payload["plan"] = plan_to_dict(result.plan.node)
                json.dumps(payload)
        return request, query, result, key if found is not None else None

    def _probe(self, request: Request, query, result, hit_key) -> None:
        """Time alone what a request only does inside another call."""
        tracer = self.tracer
        with tracer.probe("sql.lex"):  # inside parse_select()
            tokenize(request.body["sql"])
        if hit_key in self.stored:  # inside serve_entry(), on every hit
            source, source_query = self.stored[hit_key]
            with tracer.probe("service.rebind"):
                rebind_result(source, query_binding(source_query), query)
        if request.path == "/execute":  # inside run_plan()
            with tracer.probe("exec.lower"):
                lower(result.plan.node)

    def _execute(self, request: Request, query, result, payload: dict) -> None:
        tracer = self.tracer
        limit = request.body.get("limit", DEFAULT_EXECUTE_LIMIT)
        with tracer.span("data.bind"):
            database = self.dataset.database_for(query)
        with tracer.span("exec.run"):
            relation = run_plan(result.plan.node, database, executor="columnar", limit=limit)
        with tracer.span("api.rows_serialize"):
            columns = list(relation.attributes)
            payload["rows"] = [
                [None if row[column] is NULL else row[column] for column in columns]
                for row in relation
            ]
            json.dumps(payload)
        self.counters["exec.rows_in"] += sum(table.length for table in database.values())
        self.counters["exec.rows_out"] += len(relation)

    def _stats_update(self, body: dict) -> None:
        """Drift one table, then bring every stale entry back to fresh."""
        tracer = self.tracer
        old = self.catalog.lookup(body["table"])
        factor = float(body["cardinality_factor"])
        cardinality = old.cardinality * factor
        delta = self.catalog.update_stats(body["table"], TableStats(
            name=old.name, columns=old.columns, cardinality=cardinality,
            distinct={c: min(v * factor, cardinality) for c, v in old.distinct.items()},
            keys=old.keys,
        ))
        self.cache.mark_stale(delta.relation)
        for claim in self.cache.claim_stale():
            with tracer.span("sql.parse"):
                statement = parse_select(claim.sql)
            with tracer.span("sql.bind"):
                query = bind(statement, self.catalog)
            with tracer.span("conflict.prepare"):
                prepared = prepare(query)
            with tracer.span("service.fingerprint"):
                new_key, exact = self._key(query)
            with tracer.span("optimizer.recost"):
                decision = evaluate_stale(
                    query, claim.result, config=self.config, prepared=prepared
                )
            if decision.serve:
                result = recosted_result(claim.result, decision.plan, decision.elapsed_seconds)
            else:
                with tracer.span("optimizer.optimize." + SERVING_GROUP):
                    result = optimize(query, prepared=prepared, config=self.config)
                self.counters.add_result(result, SERVING_GROUP)
            with tracer.span("service.cache_store"):
                self.cache.refresh(claim.key, result, exact_snapshot=exact, new_key=new_key)
            self.stored.pop(claim.key, None)
            self.stored[new_key] = (result, query)


def tier_path_ms(tracer: Tracer, tier: str) -> float:
    """Median in-process time of a cache-hit request along *tier*'s per-request path."""
    skipped = MEMOISED_BY_ASYNC_TIER if tier == "async" else ()
    miss_spans = {"optimizer.optimize." + SERVING_GROUP, "optimizer.recost",
                  "conflict.prepare", "service.cache_store"}
    per_request: Dict[int, float] = {}
    misses = set()
    for name, start, end, parent, rid in tracer.spans:
        if parent != "request":
            continue
        if name in miss_spans:
            misses.add(rid)
        if name not in skipped:
            per_request[rid] = (
                per_request.get(rid, 0.0) + (end - start) * tracer.speed_at(start) * 1e3
            )
    # the tiers' p50 is a hit (or, on serve_churn, mostly hits): compare like with like
    hits = [v for rid, v in per_request.items() if rid not in misses]
    return median(hits) if hits else 0.0
