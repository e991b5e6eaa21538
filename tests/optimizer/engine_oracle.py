"""What ``optimize`` owes the oracle, ``optimize_reference``, in one place.

Shared by the differential suites of this directory (a plain module:
pytest puts a test file's directory on ``sys.path``, so siblings import
it by name).

For every strategy the two loops give the same *answer*: best cost,
normalised plan, csg-cmp-pair emission order and count.  Every pair the
indexed loop emits is accounted for once: skipped for a side without
plans, cut, or resolved — ``strategy.pairs_without_plans`` +
``strategy.pairs_cut`` + ``resolver.resolve_calls`` = ``ccp_count``.
Beyond that:

* a run that reports no ceiling (DPhyp, H1, H2, EA-All, the EA-Prune
  ablations, any cost model that does not declare ``monotone``) keeps
  the same DP-table sizes, and the same candidate count unless the
  incumbent cut fired (``stats["strategy.pairs_cut"]`` /
  ``["strategy.plans_cut"]``: under a monotone model, a candidate whose
  inputs already cost the incumbent's threshold is never priced — then
  it counts no more candidates than the oracle);
* a run that reports one (``stats["ceiling.cost"]``: EA-Prune under
  Cout, four relations or more — or any number, when the caller hands
  ``optimize`` a *known_cost*) never prices, files or joins a partial
  plan above it, so its counters are *smaller* by design.  What it owes
  instead is the restriction lemma (docs/architecture.md, "bound, price,
  file — build on read"): per relation set, its bucket is the reference bucket
  restricted to ``cost <= ceiling`` — compared as sorted lists of
  ``(cost, cardinality, FD triple)``.  The lemma does not care where the
  ceiling came from, so neither does this module: one reference
  observation serves every ceiling at or below the one it kept plans up
  to (:meth:`Observation.buckets_up_to`).  A bucket that only cut
  ccps would have read is never built, so the cut leaves it out of that
  comparison; its size still has to be the restricted bucket's.

Buckets are rebuilt from ``OptimizerHooks.on_plan`` — every plan the
oracle offers to its DP table, and every plan of each bucket the
indexed loop builds when a join first reads it (a non-empty bucket no
join read would surface as missing here) — with the seed's pairwise scan
(``SeedPruneStrategy``), and the indexed side is tied back to the real
table through ``result.table_sizes``.  "indexed" and "reference" below
name the two sides: :func:`~repro.optimizer.optimize` and
:func:`~repro.optimizer.reference.optimize_reference`.
"""

from math import inf

from repro.optimizer import OptimizerConfig, OptimizerHooks, optimize
from repro.optimizer.costmodel import CoutModel
from repro.optimizer.reference import SeedPruneStrategy, optimize_reference
from repro.plans.render import plan_shape


class UndeclaredCout(CoutModel):
    """Cout's prices without its ``monotone`` declaration: the driver may
    not bound a run under it, so EA-Prune runs as it did before there was
    a ceiling — what the suites about pruning itself (FD states, the
    criteria ablation, price-before-build bookkeeping) want to look at."""

    name = "cout-undeclared-test"
    monotone = False


def ceiling_of(result):
    """The ceiling the run reports; ``inf`` when it was not bounded."""
    return result.stats.get("ceiling.cost", inf)


def was_cut(result):
    """Did the incumbent cut skip a csg-cmp-pair or an OpTrees variant?"""
    stats = result.stats
    return "strategy.pairs_cut" in stats or "strategy.plans_cut" in stats


def plan_point(plan):
    """A plan as Def. 4 sees it: cost, cardinality and the FD triple."""
    return (
        plan.cost,
        plan.cardinality,
        plan.duplicate_free,
        tuple(sorted(sorted(key) for key in plan.keys)),
        tuple(sorted(sorted(cls) for cls in plan.equiv)),
    )


class Observation:
    """One optimizer run: the result, the ccp emission order and — below
    *keep_up_to* — the Pareto bucket of every proper relation subset,
    rebuilt from the plans the run offered to its DP table."""

    def __init__(
        self, query, strategy, engine, factor=1.03, keep_up_to=inf, known_cost=None, **config
    ):
        self.ccp_order = []
        self._buckets = {}
        all_mask = query.all_relations_mask
        scan = SeedPruneStrategy(query=query)

        def on_plan(plan):
            if plan.rel_set != all_mask and plan.cost <= keep_up_to:
                scan.insert(self._buckets.setdefault(plan.rel_set, []), plan)

        config = OptimizerConfig(strategy=strategy, factor=factor, cache_capacity=None, **config)
        hooks = OptimizerHooks(
            on_ccp=lambda s1, s2: self.ccp_order.append((s1, s2)), on_plan=on_plan
        )
        if engine == "reference":  # the oracle takes no known cost
            self.result = optimize_reference(query, config=config, hooks=hooks)
        else:
            self.result = optimize(query, config=config, hooks=hooks, known_cost=known_cost)

    @property
    def answer(self):
        """What the two sides agree on whatever the strategy."""
        result = self.result
        return {
            "cost": result.cost,
            "plan": plan_shape(result.plan.node),
            "ccp_order": tuple(self.ccp_order),
            "ccp_count": result.ccp_count,
        }

    @property
    def buckets(self):
        return self.buckets_up_to(inf)

    def buckets_up_to(self, ceiling):
        """The kept buckets restricted to ``cost <= ceiling`` (a Pareto
        bucket restricted is the restricted candidates' Pareto bucket:
        whatever dominates a plan costs no more than it)."""
        restricted = {
            mask: sorted(plan_point(plan) for plan in bucket if plan.cost <= ceiling)
            for mask, bucket in self._buckets.items()
        }
        return {mask: points for mask, points in restricted.items() if points}


def assert_engines_agree(query, strategy, factor=1.03, context=(), known_cost=None, **config):
    """Indexed == reference on *query*; returns the indexed result.  Only
    the indexed side is handed *known_cost*: the oracle has none."""
    indexed = Observation(query, strategy, "indexed", factor, known_cost=known_cost, **config)
    ceiling = ceiling_of(indexed.result)
    # An unbounded EA-Prune reference run offers every candidate: rebuild
    # its buckets only when there is a restriction to check.
    reference = Observation(
        query, strategy, "reference", factor, keep_up_to=ceiling if ceiling != inf else -inf,
        **config,
    )
    return assert_observations_agree(query, indexed, reference, context)


def assert_observations_agree(query, indexed, reference, context=()):
    """What :func:`assert_engines_agree` asserts, on runs already made —
    *reference* must have kept its plans up to *indexed*'s ceiling."""
    ceiling = ceiling_of(indexed.result)
    bounded = ceiling != inf
    assert ceiling_of(reference.result) == inf, context  # the oracle is never bounded
    assert indexed.answer == reference.answer, context
    got, expected = indexed.result, reference.result
    cut = was_cut(got)
    assert "strategy.pairs_cut" not in expected.stats, context
    stats = got.stats
    assert stats.get("strategy.pairs_without_plans", 0) + stats.get(
        "strategy.pairs_cut", 0
    ) + stats.get("resolver.resolve_calls", 0) == got.ccp_count, context
    if not bounded:
        if cut:
            assert got.plans_built <= expected.plans_built, context
        else:
            assert got.plans_built == expected.plans_built, context
        assert got.table_sizes == expected.table_sizes, context
        assert "strategy.plans_above_ceiling" not in got.stats, context
        return got
    restricted = reference.buckets_up_to(ceiling)
    built = indexed.buckets
    if not cut:
        assert built.keys() == restricted.keys(), context
    assert built == {mask: restricted.get(mask) for mask in built}, context
    # ... and every bucket the DP table held, built or not, has the size
    # of the restricted one.
    inner = {
        mask: size
        for mask, size in got.table_sizes.items()
        if size and mask != query.all_relations_mask
    }
    assert inner == {mask: len(points) for mask, points in restricted.items()}, context
    assert got.table_sizes[query.all_relations_mask] == 1, context
    assert got.plans_built <= expected.plans_built, context
    for mask, size in got.table_sizes.items():
        assert size <= expected.table_sizes[mask], context
    return got
