"""The planner session: the package's one front door.

A :class:`PlannerSession` owns everything a serving process needs —
a :class:`~repro.sql.Catalog` for name/statistics resolution, an
:class:`~repro.optimizer.config.OptimizerConfig` with the optimizer
knobs, a :class:`~repro.service.cache.PlanCache` (its keys carry the
statistics every plan was costed under, so a catalog change needs no
notice), and optionally a database to execute plans against — and
exposes the whole pipeline as one fluent flow::

    session = PlannerSession.tpch(scale_factor=1.0)
    handle = session.sql("SELECT ... GROUP BY ...").optimize()
    print(handle.cost, handle.explain())
    payload = handle.to_dict()          # JSON-ready, for serving

Stage by stage: :meth:`PlannerSession.sql` parses, binds, runs conflict
detection and builds the hypergraph once (a :class:`PreparedStatement`);
:meth:`PreparedStatement.optimize` serves a fresh plan from the session
cache or runs the DP driver under the session config
(:func:`~repro.service.batch.optimize_cached`) and returns a
:class:`PlanHandle`;
:meth:`PreparedStatement.optimize_all_strategies` reuses the pre-pass
across every registered strategy and reports the cheapest.  Workloads go
through :meth:`PlannerSession.run_batch`, which delegates to the service
layer with the session's cache and config.

Tracing hooks (:meth:`PlannerSession.on`) observe every stage:
``"prepare"`` / ``"ccp"`` / ``"plan"`` / ``"result"`` map onto
:class:`~repro.optimizer.driver.OptimizerHooks`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import (
    OptimizationResult,
    OptimizerHooks,
    PreparedQuery,
    prepare,
)
from repro.optimizer.registry import STRATEGIES
from repro.optimizer.strategies import Strategy
from repro.plans.nodes import PlanNode
from repro.plans.render import plan_to_dict, render_plan
from repro.query.spec import Query
from repro.service.batch import BatchReport, optimize_cached, run_batch
from repro.service.cache import PlanCache
from repro.sql.binder import parse_query
from repro.sql.catalog import Catalog

#: events accepted by :meth:`PlannerSession.on`.
EVENTS = ("prepare", "ccp", "plan", "result")


class PlannerSession:
    """One configured planning context: catalog + config + cache (+ database).

    *catalog* resolves SQL names and statistics (None for sessions fed
    programmatically-built :class:`Query` objects).  *config* defaults to
    :class:`OptimizerConfig`'s defaults (EA-Prune, Cout, a 512-entry
    cache).  *cache* overrides the config-derived plan cache with a
    caller-owned one.  A cached plan is served only while the statistics
    it was costed under still hold: the cache key and the entry's exact
    snapshot carry them, so drifted statistics are planned again.
    *database* (mapping relation name → Relation) is the default
    execution target for :meth:`PlanHandle.execute`.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[OptimizerConfig] = None,
        database: Optional[Mapping] = None,
        cache: Optional[PlanCache] = None,
    ):
        self.catalog = catalog
        self.config = config if config is not None else OptimizerConfig()
        self.database = database
        if cache is not None:
            self.cache: Optional[PlanCache] = cache
        elif self.config.caching_enabled:
            self.cache = PlanCache(capacity=self.config.cache_capacity)
        else:
            self.cache = None
        self._listeners: Dict[str, List[Callable]] = {event: [] for event in EVENTS}

    @classmethod
    def tpch(cls, scale_factor: float = 1.0, **kwargs) -> "PlannerSession":
        """A session over the built-in TPC-H catalog."""
        return cls(catalog=Catalog.from_tpch(scale_factor=scale_factor), **kwargs)

    # -- the fluent pipeline -------------------------------------------------
    def parse(self, sql: str) -> Query:
        """Parse and bind *sql* against the session catalog (no pre-pass)."""
        if self.catalog is None:
            raise ValueError(
                "session has no catalog — construct PlannerSession(catalog=...) "
                "or PlannerSession.tpch() to plan SQL text"
            )
        return parse_query(sql, self.catalog)

    def sql(self, sql: str) -> "PreparedStatement":
        """Parse, bind, conflict-detect and hypergraph *sql* → statement."""
        return self.statement(self.parse(sql), sql=sql)

    def statement(self, query: Query, sql: Optional[str] = None) -> "PreparedStatement":
        """Wrap an already-built :class:`Query` in a prepared statement."""
        prepared = prepare(query)
        self._emit("prepare", prepared)
        return PreparedStatement(self, query, prepared, sql=sql)

    def optimize(self, query: Union[str, Query], **overrides) -> "PlanHandle":
        """One-shot convenience: ``session.sql(...).optimize(...)``.

        *query* is SQL text (needs a catalog) or a :class:`Query`;
        *overrides* are per-call :class:`OptimizerConfig` fields
        (``strategy=``, ``factor=``, ``cost_model=``, ...).
        """
        statement = self.sql(query) if isinstance(query, str) else self.statement(query)
        return statement.optimize(**overrides)

    def execute(self, query: Union[str, Query], executor: Optional[str] = None,
                limit: Optional[int] = None, **overrides):
        """Optimize and immediately execute against the session database.

        *executor* picks the backend (``"interpreter"`` /
        ``"columnar"``); *limit* truncates the result.  Remaining
        *overrides* are per-call optimizer config fields.
        """
        return self.optimize(query, **overrides).execute(executor=executor, limit=limit)

    # -- workloads -----------------------------------------------------------
    def run_batch(self, queries: Sequence[Query], **overrides) -> BatchReport:
        """Run a whole workload and summarise it (see :func:`run_batch`)."""
        config = self._derive(overrides)
        report = run_batch(queries, cache=self.cache, config=config)
        for item in report.items:
            if item.result is not None:  # failed items have no result to trace
                self._emit("result", item.result)
        return report

    # -- events --------------------------------------------------------------
    def on(self, event: str, callback: Callable) -> Callable[[], None]:
        """Subscribe *callback* to *event*; returns an unsubscribe handle.

        Events: ``"prepare"`` (PreparedQuery), ``"ccp"`` (s1, s2),
        ``"plan"`` (PlanInfo — once per plan the DP *materialises*: an
        inner plan when a join first reads its bucket, a finished plan as
        it is offered; candidates discarded on price, or evicted before
        the read, are never built, see
        :class:`~repro.optimizer.driver.OptimizerHooks`), ``"result"``
        (OptimizationResult).  The ``ccp``/``plan`` events fire only for
        in-process optimization — batch workers in other processes do not
        call back.
        """
        if event not in self._listeners:
            raise ValueError(f"unknown event {event!r} (one of {', '.join(EVENTS)})")
        self._listeners[event].append(callback)

        def unsubscribe() -> None:
            try:
                self._listeners[event].remove(callback)
            except ValueError:  # already unsubscribed
                pass

        return unsubscribe

    def _emit(self, event: str, *args) -> None:
        for callback in tuple(self._listeners[event]):
            callback(*args)

    def _hooks(self) -> Optional[OptimizerHooks]:
        """Driver hooks fanning out to listeners; None when nobody listens."""
        listeners = self._listeners
        if not any(listeners[event] for event in EVENTS):
            return None
        return OptimizerHooks(
            on_prepare=(lambda prepared: self._emit("prepare", prepared))
            if listeners["prepare"] else None,
            on_ccp=(lambda s1, s2: self._emit("ccp", s1, s2))
            if listeners["ccp"] else None,
            on_plan=(lambda plan: self._emit("plan", plan))
            if listeners["plan"] else None,
            on_result=(lambda result: self._emit("result", result))
            if listeners["result"] else None,
        )

    def _derive(self, overrides: dict) -> OptimizerConfig:
        return self.config.with_overrides(**overrides) if overrides else self.config

    def __repr__(self) -> str:
        catalog = "-" if self.catalog is None else f"{len(self.catalog.tables())} tables"
        cache = "off" if self.cache is None else f"{len(self.cache)}/{self.cache.capacity}"
        return (
            f"PlannerSession(catalog={catalog}, strategy={self.config.strategy_name}, "
            f"cost_model={self.config.cost_model_name}, cache={cache})"
        )


class PreparedStatement:
    """A parsed, bound, conflict-detected query, ready to optimize.

    Binds one :class:`Query` to its strategy-independent pre-pass
    (:class:`PreparedQuery`), so repeated optimization — across
    strategies, or after config tweaks — never re-runs conflict detection
    or hypergraph construction.
    """

    def __init__(
        self,
        session: PlannerSession,
        query: Query,
        prepared: PreparedQuery,
        sql: Optional[str] = None,
    ):
        self.session = session
        self.query = query
        self.prepared = prepared
        self.sql = sql

    def optimize(self, **overrides) -> "PlanHandle":
        """Plan under the session config (+ *overrides*), through the
        session cache; ``"result"`` fires for a served plan too."""
        session = self.session
        config = session._derive(overrides)
        result = optimize_cached(self.prepared, session.cache, config, session._hooks())
        if result.cache_hit:
            session._emit("result", result)
        return PlanHandle(self, result, config)

    def optimize_all_strategies(
        self, strategies: Optional[Iterable[Union[str, Strategy]]] = None, **overrides
    ) -> "StrategyComparison":
        """Optimize once per strategy (default: every registered one).

        The pre-pass is shared; each strategy keys its own cache entry.
        Returns a :class:`StrategyComparison` whose :attr:`~StrategyComparison.best`
        is the minimum-cost handle (first-registered wins ties).
        """
        chosen = tuple(strategies) if strategies is not None else STRATEGIES.names()
        handles = []
        for strategy in chosen:
            handles.append(self.optimize(strategy=strategy, **overrides))
        return StrategyComparison(tuple(handles))

    def explain(self, **overrides) -> str:
        """Optimize and render the plan (EXPLAIN-style)."""
        return self.optimize(**overrides).explain()

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql or self.query!r})"


class StrategyComparison:
    """Outcome of :meth:`PreparedStatement.optimize_all_strategies`."""

    def __init__(self, handles: Tuple["PlanHandle", ...]):
        if not handles:
            raise ValueError("comparison needs at least one strategy")
        self.handles = handles

    @property
    def best(self) -> "PlanHandle":
        """The minimum-cost handle (earliest strategy wins ties)."""
        return min(self.handles, key=lambda handle: handle.cost)

    @property
    def winner(self) -> str:
        """Name of the strategy that produced the cheapest plan."""
        return self.best.strategy

    def __iter__(self) -> Iterator["PlanHandle"]:
        return iter(self.handles)

    def __len__(self) -> int:
        return len(self.handles)

    def __getitem__(self, strategy: str) -> "PlanHandle":
        for handle in self.handles:
            if handle.strategy == strategy:
                return handle
        raise KeyError(strategy)

    def to_dict(self) -> dict:
        """JSON-ready summary: per-strategy costs plus the winner."""
        return {
            "winner": self.winner,
            "strategies": [
                {
                    "strategy": handle.strategy,
                    "cost": handle.cost,
                    "elapsed_seconds": handle.result.elapsed_seconds,
                    "cache_hit": handle.result.cache_hit,
                }
                for handle in self.handles
            ],
        }


class PlanHandle:
    """One optimized plan with everything a caller does next.

    Wraps the driver's :class:`OptimizationResult` and keeps the
    statement (and through it the session) in reach: ``.explain()``
    renders, ``.execute()`` runs the plan against the session database
    (either backend), ``.to_dict()`` serialises for JSON serving.
    """

    def __init__(
        self,
        statement: PreparedStatement,
        result: OptimizationResult,
        config: OptimizerConfig,
    ):
        self.statement = statement
        self.result = result
        self.config = config

    # -- the numbers ---------------------------------------------------------
    @property
    def cost(self) -> float:
        return self.result.cost

    @property
    def strategy(self) -> str:
        return self.result.strategy

    @property
    def cardinality(self) -> float:
        return self.result.plan.cardinality

    @property
    def cache_hit(self) -> bool:
        return self.result.cache_hit

    @property
    def degraded(self) -> bool:
        """True when this is a deadline-degraded heuristic fallback plan."""
        return self.result.degraded

    @property
    def plan(self) -> PlanNode:
        """The executable plan tree."""
        return self.result.plan.node

    # -- actions -------------------------------------------------------------
    def explain(self) -> str:
        """The plan rendered as an indented EXPLAIN-style tree."""
        return render_plan(self.plan)

    def execute(
        self,
        database: Optional[Mapping] = None,
        executor: Optional[str] = None,
        limit: Optional[int] = None,
    ):
        """Run the plan against *database* (default: the session's).

        *database* is a mapping of relation name → scan source, or a
        :class:`~repro.data.tables.Dataset` (resolved per-relation via
        the query's source-table bindings).  *executor* picks the
        backend — ``"interpreter"`` (the recursive reference) or
        ``"columnar"`` (vectorized physical operators); default is
        :data:`repro.exec.DEFAULT_EXECUTOR`.  *limit*, when given,
        truncates the result to its first rows.
        """
        from repro.exec import DEFAULT_EXECUTOR, run_plan

        target = database if database is not None else self.statement.session.database
        if target is None:
            raise ValueError(
                "no database to execute against — pass execute(database=...) or "
                "construct the session with PlannerSession(database=...)"
            )
        if hasattr(target, "database_for"):  # a Dataset: bind per-relation views
            target = target.database_for(self.statement.query)
        return run_plan(
            self.plan,
            target,
            executor=executor if executor is not None else DEFAULT_EXECUTOR,
            limit=limit,
        )

    def to_dict(self) -> dict:
        """A JSON-serializable description of this plan (for serving)."""
        result = self.result
        return {
            "strategy": result.strategy,
            "cost_model": self.config.cost_model_name,
            "cost": result.cost,
            "cardinality": self.cardinality,
            "elapsed_seconds": result.elapsed_seconds,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
            "ccp_count": result.ccp_count,
            "plans_built": result.plans_built,
            "plan": plan_to_dict(self.plan),
        }

    def __repr__(self) -> str:
        return (
            f"PlanHandle(strategy={self.strategy}, cost={self.cost:,.0f}, "
            f"cache_hit={self.cache_hit})"
        )
