"""`repro.api` — the single documented entry point.

Everything the CLI, the benchmarks, the examples and the service layer
need comes through one facade::

    from repro.api import PlannerSession, OptimizerConfig

    session = PlannerSession.tpch(scale_factor=1.0)
    handle = session.sql("SELECT ... GROUP BY ...").optimize()
    handle.explain(); handle.cost; handle.execute(db); handle.to_dict()

Configuration is one frozen value (:class:`OptimizerConfig`), extension
is registration (:data:`STRATEGIES`, :data:`COST_MODELS`), tracing is
:meth:`PlannerSession.on`.  The free functions below it —
``parse_query``, ``prepare``, ``optimize`` (which consults no cache),
``execute`` and the service layer's ``optimize_cached`` /
``optimize_many`` / ``run_batch(queries, cache, config)`` — are what the
session delegates to, so both surfaces always produce identical plans.
"""

from repro.api.session import (
    PlanHandle,
    PlannerSession,
    PreparedStatement,
    StrategyComparison,
    plan_to_dict,
)
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.costmodel import CostModel, CoutModel
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.driver import OptimizationResult, OptimizerHooks
from repro.optimizer.registry import (
    COST_MODELS,
    STRATEGIES,
    CostModelRegistry,
    StrategyRegistry,
)
from repro.optimizer.strategies import Strategy
from repro.service.cache import PlanCache
from repro.sql.catalog import Catalog

__all__ = [
    "PlannerSession",
    "PreparedStatement",
    "PlanHandle",
    "StrategyComparison",
    "plan_to_dict",
    "OptimizerConfig",
    "OptimizerHooks",
    "OptimizationResult",
    "Deadline",
    "PlanningDeadlineExceeded",
    "Strategy",
    "CostModel",
    "CoutModel",
    "StrategyRegistry",
    "CostModelRegistry",
    "STRATEGIES",
    "COST_MODELS",
    "PlanCache",
    "Catalog",
]
