"""Re-cost an existing plan under a new statistics snapshot — no enumeration.

The maintenance half of the plan lifecycle: when catalog statistics
drift, a cached plan's *shape* is usually still competitive — only its
Cout total is out of date.  Re-running the DP to find that out costs
seconds (Fig. 16); replaying the plan's operator tree bottom-up through
a fresh :class:`~repro.optimizer.planinfo.PlanBuilder` costs
microseconds and reproduces exactly the arithmetic the DP would have
used for that shape:

* leaves through :meth:`PlanBuilder.leaf` (base cardinality × local
  selectivity),
* joins through the prepared query's
  :class:`~repro.optimizer.edgeindex.EdgeResolver` (same operator,
  predicate and selectivity resolution as the DP loop) and
  :meth:`PlanBuilder.join`,
* eager groupings through :meth:`PlanBuilder.group`,
* the top through :meth:`PlanBuilder.finish_top` (Eqv.-42 elimination
  replays to the same branch — ``NeedsGrouping`` is structural, not
  statistical).

Replaying under an *unchanged* snapshot therefore reproduces the cached
cost bit-for-bit (the differential tests assert this for the DP's and
the test oracle's plans); replaying under a drifted snapshot yields the cached shape's
true cost under the new statistics.

The serve/replan decision compares that re-cost against a cheap
reference: an H1 greedy replan (the same
:data:`~repro.optimizer.driver.DEGRADED_STRATEGY` the deadline fallback
uses — one plan per DP class, milliseconds).  H1's plan is feasible, so
its cost upper-bounds nothing and lower-bounds nothing *exactly*, but
under the monotone Cout structure it tracks the optimum closely enough
to be the regression trigger ROADMAP item 4 asks for: a stale plan is
still served while ``recost(plan) ≤ RECOST_BOUND × cost(H1 replan)``,
i.e. while it stays competitive with what a cheap re-optimization would
ship; past the bound the entry is queued for full re-enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.optimizer.config import OptimizerConfig
from repro.optimizer.driver import (
    DEGRADED_STRATEGY,
    OptimizationResult,
    PreparedQuery,
    optimize,
    prepare,
)
from repro.optimizer.planinfo import PlanBuilder, PlanInfo
from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.query.spec import Query


class RecostError(Exception):
    """The cached plan cannot be replayed against this query.

    Raised when the plan tree's shape does not correspond to operators
    the query's edge resolver can re-derive (e.g. the catalog schema
    changed, the entry was stored for a structurally different query, or
    the plan uses a root shape this replayer does not recognise).  The
    caller falls back to full re-optimization — a replay failure is a
    cache-efficiency event, never a correctness one.
    """


def _is_finishing_group(node: GroupByNode, query: Query) -> bool:
    """Whether *node* is the top grouping ``finish_top`` emits (as opposed
    to an eager pushed-down Γ, whose vector names carry ``#g`` suffixes)."""
    return tuple(node.group_attrs) == tuple(query.group_by) and tuple(
        node.vector.names()
    ) == tuple(item.name for item in query.normalized.vector)


def _replay(
    current: PlanNode, builder: PlanBuilder, resolver, vertex_of: Dict[str, int]
) -> PlanInfo:
    """Rebuild *current* bottom-up with *builder*.  A module function, not
    a closure that calls itself: that would be a reference cycle holding
    the builder and the query, left for the collector on every recost."""
    if isinstance(current, (ScanNode, SelectNode)):
        scan = current.child if isinstance(current, SelectNode) else current
        if not isinstance(scan, ScanNode):
            raise RecostError(f"unexpected select child {scan.label()}")
        vertex = vertex_of.get(scan.relation)
        if vertex is None:
            raise RecostError(f"unknown relation {scan.relation!r}")
        info = builder.leaf(vertex)
        if type(info.node) is not type(current):
            raise RecostError(
                f"local-predicate mismatch on {scan.relation!r}"
            )
        return info
    if isinstance(current, GroupByNode):
        child = _replay(current.child, builder, resolver, vertex_of)
        grouped = builder.group(child, frozenset(current.group_attrs))
        if grouped is None:
            raise RecostError("eager grouping no longer valid")
        return grouped
    if isinstance(current, JoinNode):
        left = _replay(current.left, builder, resolver, vertex_of)
        right = _replay(current.right, builder, resolver, vertex_of)
        spec = resolver.resolve(left.rel_set, right.rel_set)
        if spec is None or spec.swap or spec.op is not current.op:
            raise RecostError("join operator no longer resolvable")
        joined = builder.join(
            left, right, spec.op, spec.predicate, spec.selectivity,
            spec.groupjoin_vector,
        )
        if joined is None:
            raise RecostError("join aggregation state no longer maintainable")
        return joined
    raise RecostError(f"unexpected plan node {current.label()}")


def recost(
    query: Query,
    node: PlanNode,
    *,
    prepared: Optional[PreparedQuery] = None,
    cost_model=None,
) -> PlanInfo:
    """Replay the plan tree *node* against *query*'s current statistics.

    Returns the rebuilt :class:`PlanInfo` — same shape, freshly derived
    cost/cardinality/keys.  With unchanged statistics the returned cost
    equals the cached plan's bit-for-bit (same arithmetic, same order).
    Raises :class:`RecostError` when the shape cannot be replayed; the
    caller should fall back to a full :func:`~repro.optimizer.optimize`.
    """
    if prepared is None:
        prepared = prepare(query)
    elif prepared.query is not query:
        raise ValueError("prepared pre-pass belongs to a different query")
    builder = PlanBuilder(query, cost_model=cost_model)
    resolver = prepared.resolver()
    vertex_of = {rel.name: vertex for vertex, rel in enumerate(query.relations)}

    # Strip finish_top's wrapper, replay the core, re-finish.  Both root
    # shapes finish_top can emit are recognised; anything else (a plan
    # from a foreign builder) is a replay failure.
    core = node
    if isinstance(core, ProjectNode):
        core = core.child
        while isinstance(core, MapNode):
            core = core.child
    elif isinstance(core, GroupByNode) and _is_finishing_group(core, query):
        core = core.child
    else:
        raise RecostError(f"unexpected plan root {node.label()}")
    finished = builder.finish_top(_replay(core, builder, resolver, vertex_of))
    if type(finished.node) is not type(node):
        raise RecostError("top-grouping decision diverged during replay")
    return finished


#: the stale-while-revalidate bound: a re-costed stale plan is served
#: while its cost stays within this factor of the H1 reference replan.
RECOST_BOUND = 2.0


@dataclass(frozen=True)
class RecostDecision:
    """Outcome of :func:`evaluate_stale` for one stale cache entry.

    ``serve=True``: keep serving the (re-costed) cached plan — *plan*
    holds the replayed :class:`PlanInfo` and the entry can be refreshed
    in place.  ``serve=False``: the entry regressed past the bound (or
    could not be replayed, ``reason="replay_failed"``) and needs full
    re-optimization.
    """

    serve: bool
    reason: str  # "within_bound" | "over_bound" | "replay_failed"
    recost_cost: Optional[float]
    bound_cost: float
    bound_factor: float
    plan: Optional[PlanInfo]
    elapsed_seconds: float


def evaluate_stale(
    query: Query,
    cached: OptimizationResult,
    *,
    config: OptimizerConfig,
    prepared: Optional[PreparedQuery] = None,
) -> RecostDecision:
    """Re-cost *cached* under *query*'s statistics and apply the bound.

    The stale-while-revalidate decision procedure: replay the cached
    plan (microseconds), run the cheap H1 reference replan
    (milliseconds), and serve the replayed plan while
    ``recost ≤ RECOST_BOUND × H1``.  *query* must carry the
    *fresh* statistics (its SQL re-parsed under the current catalog)
    and the cached plan's naming.
    """
    start = time.perf_counter()
    if prepared is None:
        prepared = prepare(query)
    bound_config = config.with_overrides(
        strategy=DEGRADED_STRATEGY,
        deadline_seconds=None,
        cache_capacity=None,
    )
    try:
        plan = recost(
            query,
            cached.plan.node,
            prepared=prepared,
            cost_model=config.resolve_cost_model(),
        )
    except RecostError:
        reference = optimize(query, prepared=prepared, config=bound_config)
        return RecostDecision(
            serve=False,
            reason="replay_failed",
            recost_cost=None,
            bound_cost=reference.cost,
            bound_factor=RECOST_BOUND,
            plan=None,
            elapsed_seconds=time.perf_counter() - start,
        )
    reference = optimize(query, prepared=prepared, config=bound_config)
    within = plan.cost <= RECOST_BOUND * reference.cost
    return RecostDecision(
        serve=within,
        reason="within_bound" if within else "over_bound",
        recost_cost=plan.cost,
        bound_cost=reference.cost,
        bound_factor=RECOST_BOUND,
        plan=plan,
        elapsed_seconds=time.perf_counter() - start,
    )


def recosted_result(
    cached: OptimizationResult, plan: PlanInfo, elapsed_seconds: float
) -> OptimizationResult:
    """*cached* with its plan swapped for the re-costed replay.

    The refreshed entry a revalidator installs after a within-bound
    decision: same enumeration provenance (``ccp_count`` etc. still
    describe the run that found the shape), new cost, and a
    ``recosted`` stats marker so monitoring can tell replayed plans
    from re-enumerated ones.
    """
    stats = dict(cached.stats)
    stats["recosted"] = stats.get("recosted", 0) + 1
    return replace(
        cached,
        plan=plan,
        cache_hit=False,
        degraded=False,
        elapsed_seconds=elapsed_seconds,
        stats=stats,
    )
