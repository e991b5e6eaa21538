"""The DP-based plan generators (paper Sec. 4).

Entry point: :func:`optimize`, parameterised by the *strategy* — exactly the
component the paper varies while keeping enumeration, applicability test and
plan building shared (Fig. 5):

=============  =====================================================
``"dphyp"``    baseline DPhyp: lazy aggregation only (grouping on top)
``"ea-all"``   BuildPlansAll — complete search space (Sec. 4.3)
``"ea-prune"`` BuildPlansPrune — optimality-preserving pruning (Sec. 4.6)
``"h1"``       BuildPlansH1 — single-plan heuristic (Sec. 4.4)
``"h2"``       BuildPlansH2 — eagerness-adjusted costs (Sec. 4.5)
=============  =====================================================
"""

from repro.optimizer.config import OptimizerConfig
from repro.optimizer.costmodel import CostModel, CoutModel
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.driver import (
    OptimizationResult,
    OptimizerHooks,
    PreparedQuery,
    optimize,
    prepare,
)
from repro.optimizer.planinfo import PlanBuilder, PlanInfo
from repro.optimizer.registry import (
    COST_MODELS,
    STRATEGIES,
    CostModelRegistry,
    StrategyRegistry,
)
from repro.optimizer.strategies import (
    DphypStrategy,
    EaAllStrategy,
    EaPruneStrategy,
    H1Strategy,
    H2Strategy,
    Strategy,
)

__all__ = [
    "optimize",
    "prepare",
    "OptimizationResult",
    "OptimizerConfig",
    "OptimizerHooks",
    "PreparedQuery",
    "Deadline",
    "PlanningDeadlineExceeded",
    "PlanBuilder",
    "PlanInfo",
    "Strategy",
    "DphypStrategy",
    "EaAllStrategy",
    "EaPruneStrategy",
    "H1Strategy",
    "H2Strategy",
    "CostModel",
    "CoutModel",
    "StrategyRegistry",
    "CostModelRegistry",
    "STRATEGIES",
    "COST_MODELS",
]
