"""Pluggable cost models for the DP driver.

The paper evaluates every strategy under ``Cout`` — the sum of
intermediate result sizes (Sec. 4.4; scans and final projections are
free).  The seed hard-coded that arithmetic into the plan builder; this
module turns it into a seam: a :class:`CostModel` contributes the cost of
each *operator*, and :class:`~repro.optimizer.planinfo.PlanBuilder`
composes total plan cost bottom-up (children's cost + the operator's
contribution).

Models register by name in
:data:`repro.optimizer.registry.COST_MODELS`, so a third-party model can
be selected through :class:`~repro.optimizer.config.OptimizerConfig`
without touching the driver::

    from repro.optimizer import COST_MODELS, CostModel

    @COST_MODELS.register("c-rows")
    class RowCountModel(CostModel):
        name = "c-rows"
        def scan(self, cardinality):
            return cardinality        # scans are not free here
        def join(self, op, output_cardinality, left, right):
            return output_cardinality
        def group(self, output_cardinality, child):
            return child.cardinality  # a grouping reads its input

Two things rest on properties of the model rather than of the driver:

* EA-Prune's dominance pruning (Def. 4) preserves optimality only for cost
  functions that are monotone in the pruning criteria (the paper's
  Sec. 4.6 makes that precise for Cout).  A custom model that is not
  (e.g. one rewarding larger intermediates) keeps EA-All exact but can
  make EA-Prune a heuristic.
* The driver's *ceiling* (docs/architecture.md, "bound, price, file —
  build on read") drops a partial plan that already costs more than a complete
  one.  That is exact only when no operator can make a plan cheaper than
  its inputs — every contribution non-negative, plan cost the sum of
  them.  A model says so by declaring :attr:`CostModel.monotone`;
  ``tests/optimizer/test_cost_ceiling.py`` holds every registered model
  that declares it to the three inequalities.  A model that does not
  (the default, and ``RowCountModel`` above as written) gets the
  unbounded run: same answers, no pre-pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.optimizer.registry import COST_MODELS
from repro.rewrites.pushdown import OpKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.planinfo import PlanInfo


class CostModel:
    """Per-operator cost contributions; plan cost composes bottom-up.

    Each method returns the *operator's own* contribution — the plan
    builder adds the children's accumulated cost.  All inputs are
    estimates from :mod:`repro.cardinality.estimate`.

    The DP prices candidates before it builds them, so the *child* of the
    top grouping may be a :class:`~repro.optimizer.planinfo.PricedJoin`
    and a join's input a :class:`~repro.optimizer.planinfo.PricedGroup`
    rather than a :class:`~repro.optimizer.planinfo.PlanInfo`: rely on the
    derived properties both expose (``rel_set``, ``cost``, ``cardinality``,
    ``eagerness``, ``duplicate_free``, ``keys``, ``equiv``, ``raw_attrs``,
    ``scale_cols``, ``distinct``), not on ``node``, ``terms`` or
    ``defaults``.
    """

    #: registry name; also part of the plan-cache key, so two models with
    #: the same name must price plans identically.
    name = "abstract"

    #: Declares the model additive and non-negative: ``price(l, r).cost >=
    #: l.cost + r.cost``, ``grouped(p).cost >= p.cost`` and ``top_cost(p)
    #: >= p.cost`` for every plan.  Only then may the driver refuse a
    #: partial plan dearer than a known complete one; undeclared, no bound
    #: is applied.
    monotone = False

    def scan(self, cardinality: float) -> float:
        """Cost of an access path producing *cardinality* rows."""
        raise NotImplementedError

    def join(
        self, op: OpKind, output_cardinality: float, left: "PlanInfo", right: "PlanInfo"
    ) -> float:
        """Cost of a join operator *op* producing *output_cardinality* rows."""
        raise NotImplementedError

    def group(self, output_cardinality: float, child: "PlanInfo") -> float:
        """Cost of a grouping producing *output_cardinality* groups."""
        raise NotImplementedError


class CoutModel(CostModel):
    """The paper's ``Cout``: every intermediate result is paid once.

    Scans are free, each join and each grouping costs its output
    cardinality — exactly the Sec. 4.4 definition the evaluation uses.
    """

    name = "cout"
    monotone = True  # every contribution is a cardinality: never negative

    def scan(self, cardinality: float) -> float:
        return 0.0

    def join(
        self, op: OpKind, output_cardinality: float, left: "PlanInfo", right: "PlanInfo"
    ) -> float:
        return output_cardinality

    def group(self, output_cardinality: float, child: "PlanInfo") -> float:
        return output_cardinality


COST_MODELS.register("cout")(CoutModel)
