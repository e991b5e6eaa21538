"""`ServingCore` — the one request pipeline behind the serving tier.

Everything between "a JSON body arrived" and "here is the reply dict"
lives here exactly once: SQL-text validation and the parse memo,
override → config resolution, cache-key construction, the hit / miss /
stale / degraded decision, planning under the request's remaining
budget, execution against the dataset, statistics drift, revalidation
and the ``plans`` / ``executions`` counters of ``GET /stats``.  Bodies
go in as dicts and come out as dicts, or raise :class:`RequestError`;
nothing here knows about sockets, threads, processes or event loops.

**Single owner.**  A core has no locks: whoever holds it must call it
from one thread at a time.  Its owner is a shard worker process, which
is single-threaded and simply calls (:meth:`ServingCore.plan` blocks the
shard while it optimizes — the sharding contract, one owner per
fingerprint).  A core is built from the server's one
:class:`~repro.service.config.ServingConfig` and reads its core fields;
the shard, persistence and inline-revalidation fields on the same value
are the worker's.

The warm path stays: memo lookup → key → ``PlanCache.serve_entry`` →
a small dict — and a repeated text does none of its work twice.  The
memo holds the text's query, digests and naming; the cache entry holds
the copy it handed the last hit of that naming (rebound, marked a cache
hit) for as long as it holds the result the copy was made from; the
plan holds its rendered tree (:meth:`PlanInfo.rendered
<repro.optimizer.planinfo.PlanInfo.rendered>`).  What is left per hit
is two dict lookups, the counters, the reply dict and its
``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import time
from collections import Counter, OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.algebra.values import NULL
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import OptimizationResult
from repro.plans.render import render_plan
from repro.query.spec import Query
from repro.service.batch import Miss, WorkerOutcome, plan_miss
from repro.service.cache import FRESH, PlanCache
from repro.service.config import ServingConfig
from repro.service.fingerprint import PlanCacheKey, plan_key, strategy_label
from repro.service.rebind import Binding, query_binding
from repro.service.revalidate import StaleRevalidator
from repro.sql.binder import parse_query
from repro.sql.catalog import Catalog

#: bounded memo of parsed SQL text per core.
PARSE_MEMO_CAPACITY = 4096

#: distinct (strategy, factor, cost_model) override triples remembered;
#: the memo is keyed by client input, so it is flushed when it fills.
CONFIG_MEMO_CAPACITY = 256

#: rows returned by /execute when the request does not name a limit
#: (an explicit ``"limit": null`` lifts the cap entirely).
DEFAULT_EXECUTE_LIMIT = 1000

#: latency samples retained per window for percentile estimates.
WINDOW = 2048

_OVERRIDES = ("strategy", "factor", "cost_model")
_BLOCKS = ("plans", "executions", "cache", "parse_memo")
_PERCENTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))


class RequestError(Exception):
    """A request-scoped failure with an HTTP status and a stable code.

    Raised anywhere below a transport; the transport serialises it as
    ``{"error": {"code": ..., "message": ...}}`` with :attr:`status`.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_body(self) -> dict:
        return error_body(self.code, self.message)


def error_body(code: str, message: str) -> dict:
    """The one shape every error reply has, on every transport."""
    return {"error": {"code": code, "message": message}}


#: what planning one request yields: the result, the config it was
#: planned under, and the bound query (``/execute`` binds data to it).
Planned = Tuple[OptimizationResult, OptimizerConfig, Query]


# -- what the transports share besides the core itself -----------------------------


def parse_sql(sql, catalog: Catalog) -> Query:
    """Validate and bind one SQL text (the memo-miss path of every memo)."""
    if not isinstance(sql, str) or not sql.strip():
        raise RequestError(400, "bad_request", "'sql' must be a non-empty string")
    try:
        return parse_query(sql, catalog)
    except ValueError as exc:
        raise RequestError(400, "parse_error", str(exc)) from exc
    except RecursionError as exc:
        raise RequestError(400, "parse_error", "statement nests too deeply") from exc


def parse_body(raw: bytes) -> dict:
    """The JSON object in *raw*; anything else is a 400 ``bad_json``."""
    try:
        body = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError(400, "bad_json", f"invalid JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise RequestError(400, "bad_json", "body must be a JSON object")
    return body


def batch_queries(body: dict) -> list:
    """The statements of one ``/batch`` body (a non-empty list)."""
    queries = body.get("queries")
    if not isinstance(queries, list) or not queries:
        raise RequestError(400, "bad_request", "'queries' must be a non-empty list")
    return queries


def batch_item(index: int, planned: Union[Planned, RequestError], include_plans: bool) -> dict:
    """One ``/batch`` item: the plan's numbers, or the error it earned.

    A statement that fails to parse or optimize yields an item with an
    ``error`` field; every other statement still returns its plan.
    """
    if isinstance(planned, RequestError):
        stage = "parse" if planned.code in ("parse_error", "bad_request") else "optimize"
        item = {"index": index, "error": planned.message, "stage": stage}
        if planned.code == "timeout":
            item["timeout"] = True
        return item
    result = planned[0]
    item = {
        "index": index,
        "strategy": result.strategy,
        "cost": result.cost,
        "cache_hit": result.cache_hit,
        "degraded": result.degraded,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if include_plans:
        item["plan"] = result.plan.rendered()
    return item


def batch_report(items: List[dict], started: float) -> dict:
    """The ``/batch`` reply around *items* (already in request order)."""
    failed = sum(1 for item in items if "error" in item)
    return {
        "total": len(items),
        "succeeded": len(items) - failed,
        "failed": failed,
        "cache_hits": sum(1 for item in items if item.get("cache_hit")),
        "wall_seconds": time.perf_counter() - started,
        "items": items,
    }


def optimize_reply(body: dict, planned: Planned, started: float) -> dict:
    """``POST /optimize`` — one SQL statement → its plan as JSON.

    The reply dict is the caller's; the tree under ``"plan"`` is the
    plan's own rendered one, shared by every reply that carries it and
    there to be serialised, not edited."""
    result, config, _query = planned
    payload = {
        "strategy": result.strategy,
        "cost_model": config.cost_model_name,
        "cost": result.cost,
        "cardinality": result.plan.cardinality,
        "elapsed_seconds": result.elapsed_seconds,
        "server_seconds": time.perf_counter() - started,
        "cache_hit": result.cache_hit,
        "degraded": result.degraded,
        "ccp_count": result.ccp_count,
        "plans_built": result.plans_built,
    }
    if body.get("include_plan", True):
        payload["plan"] = result.plan.rendered()
    return payload


def explain_reply(planned: Planned) -> dict:
    """``POST /explain`` — the plan rendered as text."""
    result = planned[0]
    return {
        "strategy": result.strategy,
        "cost": result.cost,
        "cache_hit": result.cache_hit,
        "degraded": result.degraded,
        "explain": render_plan(result.plan.node),
    }


def reply_rows(values: List[list]) -> List[list]:
    """An ``/execute`` reply's row arrays from a run's value lists (one
    per column, :func:`repro.exec.run_columns`): NULL spelled ``None``
    column by column, then the columns zipped into rows."""
    columns = [[None if value is NULL else value for value in column] for column in values]
    return list(map(list, zip(*columns)))


def tune_gc_for_serving() -> None:
    """Latency-oriented GC posture for a **dedicated** serving process.

    Freezes the boot heap (catalog, caches — immortal anyway) out of the
    collector and makes full collections rare, so a gen-2 pass over
    thousands of plan nodes cannot stall the event loop mid-burst; the
    warm path allocates only small short-lived objects that gen-0
    handles.  Called by the shard worker processes, the ``serve``
    CLI and the benchmark — NOT by the in-process test facade, which
    must leave its host process's GC alone.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 50, 100)


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The *q*-quantile (0..1) of *samples* by nearest-rank; None if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def window_summary(window_ms: List[float]) -> Dict[str, Optional[float]]:
    """``p50_ms`` / ``p95_ms`` / ``p99_ms`` of one latency window."""
    ordered = sorted(window_ms)  # once; percentile()'s own sort is then linear
    return {name: percentile(ordered, q) for name, q in _PERCENTILES}


def sum_counters(snapshots: Iterable[dict]) -> dict:
    """Add up same-shaped counter dicts: numbers sum, nested dicts
    recurse, ``None`` and non-numeric leaves keep the first value seen."""
    total: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                total[key] = sum_counters((total.get(key) or {}, value))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = (total.get(key) or 0) + value
            elif total.get(key) is None:
                total[key] = value
    return total


def merge_stats(snapshots: List[dict]) -> dict:
    """Several cores' :meth:`ServingCore.stats` as one of the same shape.

    Counters and counter maps (``served``, ``by_strategy``, cache
    ``hits``, ``seconds_total`` …) are additive and summed, capacities
    and sizes included (the tier's total).  What is not additive is
    derived again from the sums — ``plans.hit_rate``, ``cache.hit_rate``,
    ``executions.mean_ms`` — except the execution percentiles, which
    cannot be: ``p50_ms`` / ``p95_ms`` / ``p99_ms`` report the *worst*
    core's value, an upper bound on the pooled percentile (at least that
    share of every core's samples lies below it).
    """
    merged = sum_counters(
        {name: snapshot[name] for name in _BLOCKS} for snapshot in snapshots
    )
    plans = merged.setdefault("plans", {})
    plans["hit_rate"] = _ratio(plans.get("cache_hits", 0), plans.get("served", 0))
    cache = merged.get("cache")
    if cache:
        cache["hit_rate"] = _ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
        )
    executions = merged.setdefault("executions", {})
    count = executions.get("count", 0)
    executions["mean_ms"] = (
        executions.get("seconds_total", 0.0) / count * 1000.0 if count else None
    )
    for name, _q in _PERCENTILES:
        executions[name] = max(
            (
                snapshot["executions"][name]
                for snapshot in snapshots
                if snapshot["executions"][name] is not None
            ),
            default=None,
        )
    return merged


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class ServingCore:
    """Catalog, base config, plan cache, dataset, revalidator, memos and
    counters of one serving process, which is its one owner."""

    def __init__(self, config: ServingConfig):
        self.base_config = config.optimizer_config()
        #: per-request planning budget; time a request spent queued
        #: before :meth:`probe` is charged against it.
        self.request_timeout = config.request_timeout_seconds
        self.default_executor = config.default_executor
        self.dataset = None
        if config.dataset is not None:
            # Boot-time provisioning: a bad spec fails construction, not
            # the first /execute request.
            from repro.data.provision import dataset_from_spec
            from repro.exec import load_backend

            self.dataset = dataset_from_spec(config.dataset)
            # Likewise the default executor (for columnar: numpy, which
            # `import repro.optimizer` no longer brings along): loaded
            # here it is part of the boot heap a serving process freezes,
            # not an import inside the first /execute request.
            load_backend(self.default_executor)
        self.catalog = Catalog.from_tpch(scale_factor=config.scale_factor)
        self.cache = PlanCache(capacity=config.cache_capacity)
        self.revalidator = StaleRevalidator(self.cache, self.catalog, self.base_config)
        # text → (query, fingerprint, key snapshot, exact snapshot, naming)
        # — parse/bind/digest once per distinct SQL spelling (key snapshot
        # is banded when snapshot_band_width is configured; the naming is
        # what a cached plan is rebound to, ``query_binding(query)``).
        self._parse_memo: "OrderedDict[str, Tuple[Query, str, str, str, Binding]]" = (
            OrderedDict()
        )
        self._memo_hits = 0
        self._memo_misses = 0
        # (strategy, factor, cost_model) request overrides → resolved
        # (config, key-strategy name, key factor, cost-model name).
        self._config_memo: Dict[
            Tuple, Tuple[OptimizerConfig, str, Optional[float], str]
        ] = {}
        self._served = 0
        self._hits = 0
        self._failures = 0
        self._degraded = 0
        self._timeouts = 0
        self._stale_served = 0
        self._recosted = 0
        self._replanned = 0
        #: runs bounded by a cost the cache remembered (no H1 pre-pass).
        self._bounded_remembered = 0
        self._by_strategy: Counter = Counter()
        self._executions: Counter = Counter()
        self._execution_rows = 0
        self._execution_seconds = 0.0
        self._execution_ms: Deque[float] = deque(maxlen=WINDOW)

    # -- request plumbing ----------------------------------------------------
    def _parse(self, sql) -> Tuple[Query, str, str, str, Binding]:
        memo = self._parse_memo
        hit = memo.get(sql) if isinstance(sql, str) else None
        if hit is not None:
            self._memo_hits += 1
            memo.move_to_end(sql)
            return hit
        query = parse_sql(sql, self.catalog)
        self._memo_misses += 1
        # The band width is the base config's alone (no request override),
        # so the digests of the base key hold under every override.
        key, exact = plan_key(query, self.base_config)
        entry = (query, key.fingerprint, key.snapshot, exact, query_binding(query))
        memo[sql] = entry
        if len(memo) > PARSE_MEMO_CAPACITY:
            memo.popitem(last=False)
        return entry

    def _resolve_config(
        self, body: dict
    ) -> Tuple[OptimizerConfig, str, Optional[float], str]:
        """The config one request plans under.  ``null`` for an override
        means the same as leaving it out."""
        signature = (body.get("strategy"), body.get("factor"), body.get("cost_model"))
        try:
            resolved = self._config_memo.get(signature)
        except TypeError:  # a JSON array/object where a name or number belongs
            resolved = None
        if resolved is None:
            overrides = {
                field: value
                for field, value in zip(_OVERRIDES, signature)
                if value is not None
            }
            try:
                config = (
                    self.base_config.with_overrides(**overrides)
                    if overrides
                    else self.base_config
                )
                name, factor = strategy_label(config.resolve_strategy(), config.factor)
            except (TypeError, ValueError) as exc:
                raise RequestError(400, "bad_config", str(exc)) from exc
            resolved = (config, name, factor, config.cost_model_name)
            if len(self._config_memo) >= CONFIG_MEMO_CAPACITY:
                self._config_memo.clear()
            self._config_memo[signature] = resolved
        return resolved

    def _record(self, result: OptimizationResult, hit: bool) -> None:
        self._served += 1
        self._hits += hit
        self._by_strategy[result.strategy] += 1

    # -- planning ------------------------------------------------------------
    def probe(self, body: dict, arrived: Optional[float] = None) -> Union[Planned, Miss]:
        """Serve ``body["sql"]`` from the cache, or say what to plan.

        A hit returns ``(result, config, query)``; a stale entry is a
        hit too (stale-while-revalidate: answered now, revalidation
        brings it back fresh).  A miss returns a :class:`Miss` whose
        budget runs from *arrived* (``time.monotonic``; default now), so
        time spent queued before this call counts against it.
        """
        sql = body.get("sql")
        query, fingerprint, snapshot, exact, binding = self._parse(sql)
        config, strategy, factor, cost_model = self._resolve_config(body)
        key = PlanCacheKey(
            fingerprint=fingerprint,
            snapshot=snapshot,
            strategy=strategy,
            factor=factor,
            cost_model=cost_model,
        )
        found = self.cache.serve_entry(key, query, exact, binding)
        if found is not None:
            result, state = found
            if state != FRESH:
                self._stale_served += 1
            self._record(result, True)
            return result, config, query
        if arrived is None:
            arrived = time.monotonic()
        known = self.cache.known_cost(key, exact)
        return Miss(query, config, key, exact, sql, arrived + self.request_timeout, known)

    def complete(self, miss: Miss, outcome: WorkerOutcome) -> Planned:
        """Take what planning *miss* produced: count it, and store a
        fresh result unless it is a deadline-degraded fallback (never
        cached; ``PlanCache.store`` refuses them too).  A failed run
        raises its request's error: 504 for a blown budget under
        ``degradation="error"``, else 500, the optimizer's own fault.
        """
        result = outcome.result
        if result is None:
            if outcome.deadline:
                self._timeouts += 1
                raise RequestError(504, "timeout", outcome.error)
            self._failures += 1
            raise RequestError(500, "optimizer_error", outcome.error)
        if result.degraded:
            self._degraded += 1
        else:
            self.cache.store(miss.key, miss.query, result, sql=miss.sql, exact_snapshot=miss.exact)
        self._bounded_remembered += result.stats.get("ceiling.source") == "remembered"
        self._record(result, False)
        return result, miss.config, miss.query

    def plan(self, body: dict, arrived: Optional[float] = None) -> Planned:
        """:meth:`probe`, and on a miss optimize right here under the
        remaining budget."""
        found = self.probe(body, arrived)
        if type(found) is not Miss:
            return found
        return self.complete(found, plan_miss(found))

    # -- request bodies (in-process planning) --------------------------------
    def optimize(self, body: dict, arrived: Optional[float] = None) -> dict:
        started = time.perf_counter()
        return optimize_reply(body, self.plan(body, arrived), started)

    def explain(self, body: dict, arrived: Optional[float] = None) -> dict:
        return explain_reply(self.plan(body, arrived))

    def batch_items(self, body: dict, indexed_sqls, arrived: Optional[float] = None) -> List[dict]:
        """Plan ``(index, sql)`` pairs under *body*'s overrides.

        The overrides are the whole request's: a bad one is a 400
        ``bad_config`` for the batch, not per item.  A statement that
        does not parse is counted in ``plans.failures`` (a lone
        request's 400 is not).  All items share *arrived*, so the whole
        batch shares one budget — later items whose predecessors ate it
        degrade rather than extend the request.
        """
        self._resolve_config(body)
        include_plans = bool(body.get("include_plans", False))
        overrides = {field: body.get(field) for field in _OVERRIDES}
        items = []
        for index, sql in indexed_sqls:
            try:
                planned = self.plan(dict(overrides, sql=sql), arrived)
            except RequestError as error:
                self._failures += error.status == 400
                planned = error
            items.append(batch_item(index, planned, include_plans))
        return items

    def execute(self, body: dict, arrived: Optional[float] = None) -> dict:
        """``POST /execute`` — plan (cached or fresh), then :meth:`run`.
        Takes the /optimize fields plus ``executor`` and ``limit``
        (``null``: unlimited; absent: :data:`DEFAULT_EXECUTE_LIMIT`, so
        an unbounded join cannot melt the JSON serialiser by accident);
        409 without a dataset."""
        started = time.perf_counter()
        if self.dataset is None:
            raise RequestError(
                409,
                "no_dataset",
                "no dataset loaded — start the server with a dataset "
                "(e.g. --dataset tpch-sf0.01) to execute plans",
            )
        from repro.exec import EXECUTORS

        executor = body.get("executor", self.default_executor)
        if executor not in EXECUTORS:
            raise RequestError(
                400,
                "bad_executor",
                f"unknown executor {executor!r} (one of: {', '.join(EXECUTORS)})",
            )
        limit = body.get("limit", DEFAULT_EXECUTE_LIMIT)
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            raise RequestError(400, "bad_request", "'limit' must be an integer >= 0 or null")
        return self.run(self.plan(body, arrived), executor, limit, started)

    def run(self, planned: Planned, executor: str, limit: Optional[int], started: float) -> dict:
        """Execute a planned statement against the dataset → the
        ``/execute`` reply: ``columns`` + row arrays built from the run's
        value lists (:func:`reply_rows`), and ``execution_seconds``, the
        time to run the plan and read its columns.  The run is counted in
        the ``executions`` block of :meth:`stats`; a failure — running or
        building the rows — is a 500 counted in ``plans.failures``."""
        from repro.exec import run_columns

        result, _config, query = planned
        try:
            database = self.dataset.database_for(query)
        except KeyError as exc:  # no table, or a table without a column
            raise RequestError(404, "unknown_table", exc.args[0]) from exc
        run_started = time.perf_counter()
        try:
            columns, values = run_columns(
                result.plan.node, database, executor=executor, limit=limit
            )
            execution_seconds = time.perf_counter() - run_started
            rows = reply_rows(values)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            self._failures += 1
            raise RequestError(
                500, "execution_error", f"{type(exc).__name__}: {exc}"
            ) from exc
        self._executions[executor] += 1
        self._execution_rows += len(rows)
        self._execution_seconds += execution_seconds
        self._execution_ms.append(execution_seconds * 1000.0)
        return {
            "strategy": result.strategy,
            "cost": result.cost,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "executor": executor,
            "limit": limit,
            "columns": list(columns),
            "rows": rows,
            "row_count": len(rows),
            "execution_seconds": execution_seconds,
            "server_seconds": time.perf_counter() - started,
        }

    # -- statistics drift ----------------------------------------------------
    def stats_update(self, body: dict, inline: int) -> dict:
        """``POST /stats_update`` — apply one statistics drift.

        Scales (``cardinality_factor``) or sets (``cardinality``) a
        table's row count, marks dependent cache entries stale (they
        keep being served), drops the parse-memo entries that read the
        table (their queries and digests embed its old statistics; every
        other text stays parsed) and revalidates up to *inline*
        entries before answering; the owner drains the rest of the
        backlog through :meth:`revalidate` off the request path.
        """
        table = body.get("table")
        if not isinstance(table, str) or not table.strip():
            raise RequestError(400, "bad_request", "'table' must be a non-empty string")
        old = self.catalog.lookup(table)
        if old is None:
            raise RequestError(404, "unknown_table", f"unknown table {table!r}")
        factor = body.get("cardinality_factor")
        absolute = body.get("cardinality")
        if (factor is None) == (absolute is None):
            raise RequestError(
                400,
                "bad_request",
                "provide exactly one of 'cardinality_factor' or 'cardinality'",
            )
        try:
            if factor is not None:
                factor = float(factor)
                new_cardinality = old.cardinality * factor
            else:
                new_cardinality = float(absolute)
                factor = new_cardinality / old.cardinality if old.cardinality else 1.0
            if not (math.isfinite(factor) and factor > 0 and math.isfinite(new_cardinality)):
                raise ValueError("the new cardinality must be finite and > 0")
        except (TypeError, ValueError, OverflowError) as exc:
            raise RequestError(400, "bad_request", str(exc)) from exc
        # Distinct counts drift with the table (sub-linearly in reality;
        # linear-with-clamp is the standard homogeneity assumption).
        new_stats = dataclasses.replace(
            old,
            cardinality=new_cardinality,
            distinct={
                column: min(value * factor, new_cardinality)
                for column, value in old.distinct.items()
            },
        )
        delta = self.catalog.update_stats(table, new_stats)
        # Only a text that reads the table was bound with its old numbers.
        drifted = delta.relation.lower()
        memo = self._parse_memo
        for sql in [
            sql
            for sql, entry in memo.items()
            if any(rel.source_table.lower() == drifted for rel in entry[0].relations)
        ]:
            del memo[sql]
        payload = dict(delta.payload())
        payload["marked_stale"] = self.cache.mark_stale(delta.relation)
        payload["revalidated_inline"] = self._drain(inline)
        payload["stale_entries"] = self.cache.stale_count()
        return payload

    def stale_backlog(self) -> bool:
        """Whether :meth:`revalidate` has entries left to process."""
        return self.cache.stale_count() > 0

    def revalidate(self, limit: int = 1) -> bool:
        """Re-cost or re-plan up to *limit* stale entries.  Returns
        whether any entry actually left the stale backlog — False means
        everything claimed failed (e.g. replans that deadline-degrade)
        and stayed stale, so the caller must stop looping rather
        than spin on the same entry."""
        counts = self._drain(limit)
        return counts["recosted"] + counts["replanned"] + counts["dropped"] > 0

    def _drain(self, limit: int) -> dict:
        counts = self.revalidator.drain(limit=limit)
        self._recosted += counts["recosted"]
        self._replanned += counts["replanned"]
        return counts

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """The core's share of ``GET /stats``; consistent because the
        core has one owner.  :func:`merge_stats` adds several up."""
        served, hits = self._served, self._hits
        executed = sum(self._executions.values())
        executions = {
            "count": executed,
            "by_executor": dict(self._executions),
            "rows_returned": self._execution_rows,
            "seconds_total": self._execution_seconds,
            "mean_ms": self._execution_seconds / executed * 1000.0 if executed else None,
        }
        executions.update(window_summary(list(self._execution_ms)))
        return {
            "plans": {
                "served": served,
                "cache_hits": hits,
                "cache_misses": served - hits,
                "hit_rate": _ratio(hits, served),
                "failures": self._failures,
                "degraded": self._degraded,
                "timeouts": self._timeouts,
                "stale_served": self._stale_served,
                "recosted": self._recosted,
                "replanned": self._replanned,
                "bounded_remembered": self._bounded_remembered,
                "by_strategy": dict(self._by_strategy),
            },
            "executions": executions,
            "cache": self.cache.describe(),
            "parse_memo": {
                "size": len(self._parse_memo),
                "hits": self._memo_hits,
                "misses": self._memo_misses,
            },
        }
