"""The DP driver: DPhyp enumeration + OpTrees + strategy insertion.

This is the paper's Fig. 5 skeleton with the eager-aggregation extensions:

1. initialise the DP table with access paths,
2. enumerate csg-cmp-pairs of the conflict hypergraph,
3. test operator applicability (conflict rules),
4. build plans — ``OpTrees`` generates up to four grouping placements per
   join (Fig. 8), and the chosen strategy decides what survives,
5. finalise plans for the full relation set (top grouping or Eqv.-42
   elimination) and keep the cheapest — ``InsertTopLevelPlan``, the
   driver's own rule, the same for every strategy.

The loop is the hot path (see docs/architecture.md): iterative
enumerator over the indexed hypergraph, per-edge join specs resolved
through :class:`~repro.optimizer.edgeindex.EdgeResolver`, cost-ordered
EA-Prune buckets, and *bound, price, file — build on read*: an OpTrees
variant that already costs more than the run's ceiling is dropped, and
so is one whose inputs already cost its bucket's *threshold* — the cost
from which it cannot displace the incumbent, declared by the strategies
that keep one plan per class, and the incumbent's cost for the full
relation set under every strategy (under a monotone cost model; a whole
csg-cmp-pair whose input buckets' cheapest plans reach it is skipped
before it is resolved).  A csg-cmp-pair with a side whose bucket holds no
plan is skipped before all of that.  What is left is priced
(:meth:`~repro.optimizer.planinfo.PlanBuilder.price`, on each input's
eager grouping priced once per plan,
:meth:`~repro.optimizer.planinfo.PlanBuilder.grouped`)
and filed in its bucket *as priced*
(:meth:`~repro.optimizer.strategies.Strategy.insert`, which says whether
it kept it).  A bucket is constructed the first time a ccp reads its
relation set as an input — DPhyp emits every ccp that produces a set
before any that reads it, so the bucket is final by then — and a
candidate displaced or evicted before that is never built, nor is a
grouping no built plan reads.  A finished
plan for the full relation set is built only if its priced cost beats
the incumbent's.  The seed's unindexed, unbounded loop, which every
piece of this one is tested against, is the oracle module beside this
one; nothing in the product imports it.

The ceiling: an *exact eager* run — the strategy declares
:attr:`~repro.optimizer.strategies.Strategy.accepts_ceiling` (EA-Prune
with the full criteria) and the cost model declares
:attr:`~repro.optimizer.costmodel.CostModel.monotone` (Cout) — is
bounded by the cost of a complete plan of the same problem.  Where that
cost comes from, first that applies: (1) the caller knows one
(*known_cost*: a plan cache remembers what an evicted plan cost, a
revalidator has just re-costed one) — any relation count, nothing else
is planned; (2) the query has :data:`CEILING_MIN_RELATIONS`
relations or more — the prepared query is planned once under H1
(:data:`DEGRADED_STRATEGY`; no hooks, no deadline) and that
plan's cost is taken; (3) ``inf``.  Every bucket of a bounded run is the
unbounded run's bucket restricted to ``cost <= ceiling``, so cost, plan
and ``ccp_count`` are unchanged; under ``inf`` the same loop drops
nothing.  When a deadline fires in the main pass, the degraded answer is
the H1 result — the one in hand after (2), planned on the spot otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import inf, isnan
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import chaos
from repro.conflict.detector import AnnotatedEdge, detect
from repro.hypergraph.graph import Hypergraph
from repro.hypergraph.enumerate import enumerate_ccps
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import Deadline, PlanningDeadlineExceeded
from repro.optimizer.edgeindex import EdgeResolver, JoinSpec
from repro.optimizer.planinfo import PlanBuilder, PlanInfo
from repro.optimizer.strategies import PruneBucket, Strategy, declared_threshold
from repro.query.spec import Query
from repro.rewrites.pushdown import pushdown_valid_for


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run."""

    plan: PlanInfo
    strategy: str
    elapsed_seconds: float
    ccp_count: int
    #: candidate plans the DP considered (access paths, valid OpTrees
    #: variants under the ceiling and the incumbent's threshold, finalised
    #: top-level plans).  How many of them were materialised is
    #: ``stats["plans_constructed"]``.
    plans_built: int
    table_sizes: Dict[int, int]
    cache_hit: bool = False
    #: True when this plan is a deadline-degraded heuristic fallback (see
    #: :mod:`repro.optimizer.deadline`) rather than the configured
    #: strategy's answer.  Degraded results are never stored in plan
    #: caches — they are a serve-something answer, not the plan of record.
    degraded: bool = False
    #: Hot-path instrumentation (edge-index scans, memo hits, dominance
    #: checks) for the run that produced the plan.  Keys are additive
    #: counters; absent on cache hits only in the sense that they still
    #: describe the original run.  A bounded run adds what its ceiling
    #: was and did: ``ceiling.cost``, ``ceiling.source`` (``"remembered"``
    #: for a caller's known cost, ``"prepass"`` for H1's — the one value
    #: that is not a number), ``strategy.plans_above_ceiling`` and, after
    #: a pre-pass, its ``ceiling.ccps`` / ``ceiling.plans`` /
    #: ``ceiling.seconds`` (every other key, like ``ccp_count``, counts
    #: the main pass only; ``elapsed_seconds`` covers both).
    #: ``ceiling.rerun`` marks a result planned a second time because the
    #: known cost it was first held to bounded no plan.
    #: ``strategy.pairs_without_plans`` counts csg-cmp-pairs skipped for a
    #: side whose bucket holds no plan; the incumbent cut adds
    #: ``strategy.pairs_cut`` (csg-cmp-pairs with plans on both sides
    #: skipped before they were resolved: ``resolver.resolve_calls`` + the
    #: two = ``ccp_count``) and ``strategy.plans_cut`` (variants skipped
    #: unpriced, not counted in ``plans_built``).  Populated by
    #: :func:`optimize`; empty for results constructed elsewhere.
    stats: Dict[str, float | str] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        return self.plan.cost

    def as_cache_hit(self) -> "OptimizationResult":
        """A copy marked as served from a plan cache.

        ``elapsed_seconds`` is zeroed — serving the copy cost a dictionary
        lookup, not the original run's time.  ``ccp_count``, ``plans_built``
        and ``table_sizes`` still describe the run that produced the plan.
        """
        return replace(self, cache_hit=True, elapsed_seconds=0.0)


@dataclass(frozen=True)
class PreparedQuery:
    """The strategy-independent pre-pass: conflict rules + hypergraph.

    Conflict detection (TES/rule computation) and hypergraph construction
    depend only on the query, not on the strategy or statistics snapshot,
    so a caller comparing strategies — or a batch driver re-optimizing the
    same shape after a statistics change — runs them once and hands the
    result to every :func:`optimize` call.
    """

    query: Query
    annotated: Tuple[AnnotatedEdge, ...]
    graph: Hypergraph

    def resolver(self) -> EdgeResolver:
        """A per-edge join-spec resolver for this pre-pass (built lazily
        and cached — resolvers are pure indexes over ``annotated``)."""
        cached = self.__dict__.get("_resolver")
        if cached is None:
            cached = EdgeResolver(self.annotated, self.query)
            object.__setattr__(self, "_resolver", cached)
        return cached


def prepare(query: Query) -> PreparedQuery:
    """Run conflict detection and build the hypergraph for *query*."""
    annotated, graph = detect(query)
    return PreparedQuery(query=query, annotated=tuple(annotated), graph=graph)


@dataclass(frozen=True)
class OptimizerHooks:
    """Optional tracing/metrics callbacks fired by :func:`optimize`.

    * ``on_prepare(prepared)`` — after the driver runs its own pre-pass
      (not fired when a caller supplies *prepared*; the session fires it
      when preparing a statement),
    * ``on_ccp(s1, s2)`` — once per enumerated csg-cmp-pair,
    * ``on_plan(plan)`` — once per plan the DP *materialises*, always a
      :class:`PlanInfo`: access paths; an inner bucket's plans when a ccp
      first reads the bucket (what it holds then — candidates the strategy
      discarded on price, or that a cheaper one displaced or evicted
      before, are never built and never reported); finalised plans for the
      full relation set as they are offered to it.
      ``stats["plans_constructed"]`` counts the calls, ``plans_built`` all
      candidates,
    * ``on_result(result)`` — once per returned result.  ``result.stats``
      carries the hot-path counters, so metrics pipelines hang off this
      hook without touching the DP loops.

    Absent callbacks cost a single attribute read; the DP hot loops stay
    untouched when no hooks are installed.
    """

    on_prepare: Optional[Callable[[PreparedQuery], None]] = None
    on_ccp: Optional[Callable[[int, int], None]] = None
    on_plan: Optional[Callable[[PlanInfo], None]] = None
    on_result: Optional[Callable[["OptimizationResult"], None]] = None


def optimize(
    query: Query,
    *,
    prepared: Optional[PreparedQuery] = None,
    cache=None,
    config: Optional[OptimizerConfig] = None,
    hooks: Optional[OptimizerHooks] = None,
    engine: str = "indexed",
    deadline: Optional[Deadline] = None,
    known_cost: Optional[float] = None,
) -> OptimizationResult:
    """Optimize *query* and return the final plan.

    All optimizer knobs live in *config*, an
    :class:`~repro.optimizer.config.OptimizerConfig`; None means
    ``OptimizerConfig(cache_capacity=None)``, EA-Prune under Cout.
    *prepared* reuses a :func:`prepare` pre-pass (conflict detection +
    hypergraph) across strategies or repeated runs.  No cache is consulted
    here: a caller with one goes through
    :func:`repro.service.batch.optimize_cached` (or ``optimize_many``),
    which asks it first and stores what this returns.  *cache* accepts
    only ``None``.
    *hooks* receive tracing callbacks (see :class:`OptimizerHooks`).

    *deadline* arms a cooperative planning budget checked inside the DP
    loop; ``None`` defers to
    ``config.deadline_seconds``, measured from the start of this run.  On
    a blown budget, ``config.degradation`` picks between a heuristic
    fallback plan marked ``degraded=True`` and raising
    :class:`~repro.optimizer.deadline.PlanningDeadlineExceeded`.

    An exact eager run (see the module docstring) is preceded by one H1
    pass over the same pre-pass whose cost bounds it.  That pass is
    invisible from outside: it fires no hook and takes no deadline tick;
    the result reports it under ``stats["ceiling.*"]`` and includes its
    time in ``elapsed_seconds``.

    *known_cost* spares such a run the H1 pass: the cost of a complete
    eager plan of exactly this problem — same structure, statistics and
    cost model, under any spelling — is its ceiling instead (widened by
    :data:`KNOWN_COST_SLACK`); a plan cache remembers one for a plan it
    evicted (:meth:`~repro.service.cache.PlanCache.known_cost`).  It is
    a fact about the problem, not a knob: a run that is not bounded
    ignores it, and if it was wrong — too low, so that no
    complete plan fits under it — the query is planned again without it
    (``stats["ceiling.rerun"]``; hooks see both passes).  The answer
    never depends on it.  ``inf`` bounds nothing; NaN is refused.

    *engine* has one value besides the default: ``"reference"`` hands
    *query* and *config*, and nothing else, to the test oracle.
    """
    # Only benchmarks/e2e/child.py still spells cache=None; the benchmark-only change deletes it.
    if cache is not None:
        raise ValueError("optimize() consults no cache: pass cache=None or leave it out")
    if known_cost is not None and isnan(known_cost):
        raise ValueError("known_cost must be a cost or inf, got nan")
    if engine != "indexed":
        # The bridge for benchmarks/e2e/golden.py's optimize(..., engine="reference");
        # the benchmark-only change that repoints golden.py at optimize_reference deletes it.
        if engine != "reference":
            raise ValueError(f"unknown engine {engine!r} (use 'indexed' or 'reference')")
        extra = [
            name
            for name, value in (
                ("prepared", prepared), ("hooks", hooks),
                ("deadline", deadline), ("known_cost", known_cost),
            )
            if value is not None
        ]
        if extra:
            raise ValueError(f"engine='reference' takes a config only, not {', '.join(extra)}")
        from repro.optimizer.reference import optimize_reference

        return optimize_reference(query, config=config)
    if config is None:
        config = OptimizerConfig(cache_capacity=None)
    chosen = config.resolve_strategy()
    cost_model = config.resolve_cost_model()

    if prepared is not None and prepared.query is not query:
        raise ValueError("prepared pre-pass belongs to a different query")

    on_result = hooks.on_result if hooks is not None else None

    def deliver(result: OptimizationResult) -> OptimizationResult:
        """Every result leaves through here, reported once."""
        if on_result is not None:
            on_result(result)
        return result

    start = time.perf_counter()

    if deadline is None and config.deadline_seconds is not None:
        deadline = Deadline(config.deadline_seconds)
    # Injected planning slowness (tests/CI only) is scoped to deadline
    # check points, so the heuristic fallback run — no deadline — is fast.
    chaos_pause = None
    if deadline is not None and chaos.enabled():
        chaos_pause = chaos.planning_delay(rel.name for rel in query.relations)

    if prepared is None:
        prepared = prepare(query)
        if hooks is not None and hooks.on_prepare is not None:
            hooks.on_prepare(prepared)
    graph = prepared.graph

    # Bound: a complete plan's cost is a ceiling no useful partial plan can
    # exceed — if the strategy promises the eager optimum and the cost
    # model promises plans never get cheaper.  Otherwise the ceiling is
    # infinite and the one code path below prunes nothing.
    heuristic: Optional[OptimizationResult] = None
    ceiling = inf
    source = None  # of the ceiling: "remembered", "prepass", or None for inf
    if chosen.accepts_ceiling and cost_model.monotone:
        if known_cost is not None:
            source = "remembered"
            ceiling = known_cost * (1.0 + KNOWN_COST_SLACK)
        elif len(query.relations) >= CEILING_MIN_RELATIONS:
            source = "prepass"
            heuristic = _heuristic_plan(query, prepared, config)
            ceiling = heuristic.cost

    builder = PlanBuilder(query, cost_model=cost_model)
    all_mask = query.all_relations_mask

    on_ccp = hooks.on_ccp if hooks is not None else None
    on_plan = hooks.on_plan if hooks is not None else None

    resolver = prepared.resolver()
    resolve = resolver.resolve

    # Counter snapshots: graph/resolver/strategy objects may be shared
    # across runs (PreparedQuery reuse, strategy instances in configs), so
    # the per-run stats are end-minus-start diffs.
    graph_before = dict(graph.counters)
    resolver_before = dict(resolver.counters)
    strategy_counters = getattr(chosen, "counters", None)
    strategy_before = dict(strategy_counters) if strategy_counters is not None else {}

    # Cut: under a monotone model a join costs at least its inputs, so a
    # candidate whose inputs already cost the target bucket's threshold
    # cannot displace the incumbent.  Single-plan strategies declare one
    # for their inner buckets; the full set's is the incumbent's cost
    # under every strategy (InsertTopLevelPlan keeps the strictly cheaper).
    monotone = cost_model.monotone
    inner_threshold = declared_threshold(chosen) if monotone else None
    top_threshold = attrgetter("cost") if monotone else None
    #: each final bucket's cheapest cost, for the ccp-level cut
    floors: Dict[int, float] = {}
    pairs_cut = without_plans = 0

    table: Dict[int, List[PlanInfo]] = {}
    #: inner relation sets whose buckets hold priced candidates no ccp has
    #: read yet (they are filed unbuilt)
    unread: Set[int] = set()
    construct = builder.construct
    for vertex in range(len(query.relations)):
        leaf = builder.leaf(vertex)
        table[1 << vertex] = [leaf]
        if on_plan is not None:
            on_plan(leaf)

    tally = _Tally()
    tally.built = tally.constructed = len(table)
    ccp_count = 0

    if len(query.relations) == 1:
        finished = builder.finish_top(table[1][0])
        table[all_mask] = [finished]
        if on_plan is not None:
            on_plan(finished)

    try:
        for s1, s2 in enumerate_ccps(graph):
            ccp_count += 1
            if deadline is not None and deadline.tick() and chaos_pause is not None:
                time.sleep(chaos_pause)
                deadline.check()
            if on_ccp is not None:
                on_ccp(s1, s2)
            # A side without plans (conflict rules left its set unbuildable,
            # or the ceiling left its bucket empty) makes nothing: two
            # lookups, before the cut and the resolver.
            bucket1 = table.get(s1)
            bucket2 = table.get(s2)
            if not bucket1 or not bucket2:
                without_plans += 1
                continue
            combined = s1 | s2
            is_top = combined == all_mask
            threshold = top_threshold if is_top else inner_threshold
            bucket = table.get(combined)
            limit = None
            if threshold is not None and bucket:
                limit = threshold(bucket[0])
                # Both inputs are final (DPhyp's order), so are their floors.
                floor1 = floors.get(s1)
                if floor1 is None:
                    floor1 = floors[s1] = _cheapest(bucket1)
                floor2 = floors.get(s2)
                if floor2 is None:
                    floor2 = floors[s2] = _cheapest(bucket2)
                if floor1 + floor2 >= limit:
                    pairs_cut += 1
                    continue
            spec = resolve(s1, s2)
            if spec is None:
                continue
            if spec.swap:
                left_set, right_set, left_bucket, right_bucket = s2, s1, bucket2, bucket1
            else:
                left_set, right_set, left_bucket, right_bucket = s1, s2, bucket1, bucket2
            # Build on read: every ccp producing a set comes before any
            # reading it, so a bucket is final the first time it is read.
            if left_set in unread:
                unread.remove(left_set)
                tally.constructed += _materialise(left_bucket, construct, on_plan)
            if right_set in unread:
                unread.remove(right_set)
                tally.constructed += _materialise(right_bucket, construct, on_plan)
            if bucket is None:
                # The full relation set keeps one plan (the driver's
                # InsertTopLevelPlan); inner entries use the strategy's bucket.
                if is_top:
                    bucket = table[combined] = []
                else:
                    bucket = table[combined] = chosen.new_bucket()
                    unread.add(combined)
            _build_plans(
                builder, chosen, bucket, is_top, left_bucket, right_bucket, spec,
                on_plan, tally, ceiling, threshold, limit,
            )
    except PlanningDeadlineExceeded:
        if config.degradation != "heuristic":
            raise
        if heuristic is None:
            heuristic = _heuristic_plan(query, prepared, config)
        return deliver(_degraded_fallback(heuristic, start, ccp_count, tally.built))

    final = table.get(all_mask, [])
    if not final:
        if source != "remembered":
            raise RuntimeError("no plan found — query hypergraph not fully connectable")
        # No complete plan at or below the known cost: it was not the cost
        # of a plan of this problem (statistics that differ past the digits
        # a snapshot keeps, say).  Plan as if nothing had been known; the
        # budget, if any, keeps running.
        rerun = optimize(
            query, prepared=prepared, config=config, deadline=deadline,
            hooks=replace(hooks, on_result=None) if hooks is not None else None,
        )
        return deliver(
            replace(
                rerun,
                elapsed_seconds=time.perf_counter() - start,
                stats={**rerun.stats, "ceiling.rerun": 1},
            )
        )
    best = min(final, key=lambda p: p.cost)
    elapsed = time.perf_counter() - start

    stats: Dict[str, float] = {
        "plans_constructed": tally.constructed,
        "top_replacements": tally.top_replacements,
    }
    if tally.priced_away:
        stats["strategy.plans_priced_away"] = tally.priced_away
    if pairs_cut:
        stats["strategy.pairs_cut"] = pairs_cut
    if without_plans:
        stats["strategy.pairs_without_plans"] = without_plans
    if tally.cut:
        stats["strategy.plans_cut"] = tally.cut
    if source is not None:
        stats["ceiling.cost"] = ceiling
        stats["ceiling.source"] = source
        stats["strategy.plans_above_ceiling"] = tally.above_ceiling
    if heuristic is not None:
        stats["ceiling.ccps"] = heuristic.ccp_count
        stats["ceiling.plans"] = heuristic.plans_built
        stats["ceiling.seconds"] = heuristic.elapsed_seconds
    for name, value in graph.counters.items():
        delta = value - graph_before.get(name, 0)
        if delta:
            stats[f"graph.{name}"] = delta
    for name, value in resolver.counters.items():
        delta = value - resolver_before.get(name, 0)
        if delta:
            stats[f"resolver.{name}"] = delta
    if strategy_counters is not None:
        for name, value in strategy_counters.items():
            delta = value - strategy_before.get(name, 0)
            if delta:
                stats[f"strategy.{name}"] = delta

    return deliver(
        OptimizationResult(
            plan=best,
            strategy=chosen.name,
            elapsed_seconds=elapsed,
            ccp_count=ccp_count,
            plans_built=tally.built,
            table_sizes={mask: len(plans) for mask, plans in table.items()},
            stats=stats,
        )
    )


#: The heuristic that supplies both the ceiling of a bounded run and the
#: deadline-degraded fallback plan: H1 (Fig. 10), the paper's cheapest
#: greedy — one plan per DP class, eager variants included, so its plan
#: lies in the eager search space.
DEGRADED_STRATEGY = "h1"

#: Queries with fewer relations are planned without the pre-pass.  With
#: two there is one csg-cmp-pair, the full set, where keep-the-cheaper
#: already refuses what a ceiling would.  EA-Prune's total time with the
#: pre-pass over without it, 40 random queries a size (best of 5, the two
#: alternating, three rounds, one pinned core; CHANGES.md): 1.41-1.48x at
#: three relations, 1.11-1.14x at four, 0.79-0.86x at five, 0.82-0.85x at
#: six, since a built plan's FD triple is derived only when read, which
#: makes the pre-pass cheaper (the same session before: 1.42-1.43x,
#: 1.14-1.19x, 0.86-0.89x, 0.82-0.87x).  The projected FD clause had made the
#: unbounded run much cheaper (the incumbent cut alone had left four at
#: 1.01-1.02x, five at 0.66-0.72x); cheaper passes since moved the
#: crossover little.  Four stays the threshold: moving it changes which
#: cache misses take a pre-pass.
CEILING_MIN_RELATIONS = 4

#: Relative head-room added to a caller's *known_cost* before it becomes a
#: ceiling.  The cost is a float sum over a plan's operators; the same
#: problem arriving under another spelling (FROM list reordered, operands
#: swapped) numbers its relations differently, so the DP may add the same
#: terms — and multiply the same cardinalities — in another order.  Over n
#: relations a cost is a sum of fewer than 2n operator outputs, each a
#: product of a few n factors: re-association moves it by the order of n²
#: ulps, under 1e-12 relative for any n this DP finishes.  1e-9 leaves
#: three orders of magnitude, and since the restriction lemma holds for
#: *any* ceiling at or above the optimum, a wider ceiling costs a few
#: more priced candidates, never the answer.
KNOWN_COST_SLACK = 1e-9


def _heuristic_plan(
    query: Query, prepared: PreparedQuery, config: OptimizerConfig
) -> OptimizationResult:
    """The prepared query planned under :data:`DEGRADED_STRATEGY`: no
    hooks and no deadline — so no deadline ticks and no chaos
    delay either (H1 touches each ccp once with a single plan per class,
    a small fraction of an exact run)."""
    return optimize(
        query,
        prepared=prepared,
        config=config.with_overrides(strategy=DEGRADED_STRATEGY, deadline_seconds=None),
    )


def _degraded_fallback(
    heuristic: OptimizationResult, start: float, primary_ccps: int, primary_plans: int
) -> OptimizationResult:
    """The serve-something answer after a blown planning deadline:
    *heuristic* — the pre-pass's result when the run was bounded, planned
    on the spot otherwise — marked ``degraded=True``, with total elapsed
    time including the abandoned primary run and stats counters recording
    how far the primary got before the budget fired."""
    stats = dict(heuristic.stats)
    stats["degraded"] = 1
    stats["degraded.primary_ccps"] = primary_ccps
    stats["degraded.primary_plans"] = primary_plans
    return replace(
        heuristic,
        degraded=True,
        elapsed_seconds=time.perf_counter() - start,
        stats=stats,
    )


class _Tally:
    """Per-run candidate counters (``OptimizationResult.plans_built`` and
    the ``stats`` entries beside it)."""

    __slots__ = (
        "built", "constructed", "priced_away", "above_ceiling", "cut", "top_replacements",
    )

    def __init__(self) -> None:
        # candidates priced and considered: valid, at or below the ceiling,
        # under the incumbent's threshold
        self.built = 0
        self.priced_away = 0  # ... of which discarded on price; the rest are filed
        self.constructed = 0  # filed candidates materialised as a PlanInfo
        self.above_ceiling = 0  # OpTrees variants the ceiling dropped instead
        self.cut = 0  # ... and variants the incumbent's threshold dropped, unpriced
        self.top_replacements = 0  # finished plans that displaced the incumbent


def _cheapest(bucket) -> float:
    """The least cost among a final, non-empty bucket's plans."""
    if type(bucket) is PruneBucket:
        return min(costs[0] for costs, _cards, _plans in bucket.frontiers.values() if costs)
    return min(plan.cost for plan in bucket)


def _build_plans(
    builder: PlanBuilder,
    strategy: Strategy,
    bucket: List[PlanInfo],
    is_top: bool,
    left_bucket,
    right_bucket,
    spec: JoinSpec,
    on_plan,
    tally: _Tally,
    ceiling: float,
    threshold,
    limit: Optional[float],
) -> None:
    """BuildPlans for one csg-cmp-pair: bound, cut, price, file.

    Every OpTrees placement of every plan pair (Fig. 6/8, in the seed's
    order) is first held against the run's *ceiling* — the cost
    of a complete plan, or ``inf`` when the run is not bounded: a variant
    whose inputs together already cost more is never priced, and one
    whose priced cost (for the full relation set, its ``top_cost``) is
    strictly above it goes no further.  Then against *limit*, the
    bucket's *threshold* of its incumbent (``None``: no incumbent, or no
    threshold): a variant whose inputs already cost that much cannot
    displace the incumbent and is never priced; *limit* follows each new
    incumbent.  What is left is *priced* and, for
    an inner relation set, *filed* as the :class:`PricedJoin` it is:
    ``strategy.insert`` keeps, evicts or displaces priced candidates and
    says whether it kept this one.  A kept candidate is built only when a
    ccp reads its bucket (:func:`_materialise`), and a grouped input only
    when a candidate reading it is; that is sound because ``price`` and
    ``grouped`` decide validity completely, so whatever the strategy
    keeps will construct.  For the full relation set the driver keeps the
    strictly cheaper plan (``InsertTopLevelPlan``): a finished plan whose
    priced ``finish_top`` cost beats the incumbent's is built at once and
    replaces it, any other is never built.

    NOTE on NeedsGrouping (Fig. 6, lines 10/15): the paper skips grouped
    variants whose grouping attributes contain a key.  That test is
    *plan-dependent* while the grouping-output estimate is not, which
    makes the skip inconsistent across dominance-equivalent plans and can
    break EA-Prune's optimality under a statistics-based estimator.  We
    therefore generate them all — pruning or cost will discard the
    degenerate ones — keeping the DP-class continuation sets consistent.
    """
    op, predicate, selectivity = spec.op, spec.predicate, spec.selectivity
    groupjoin_vector = spec.groupjoin_vector
    price, construct, grouped = builder.price, builder.construct, builder.grouped
    eager = strategy.explore_eager
    group_left = eager and pushdown_valid_for(op, 1)
    group_right = eager and pushdown_valid_for(op, 2)
    # Γ_{G⁺} of a plan is the plan's own (PlanBuilder.grouped): priced once
    # per plan, not once per partner, and built only if a built plan reads it.
    rights = [(plan, grouped(plan) if group_right else None) for plan in right_bucket]
    insert = strategy.insert
    top_cost = builder.top_cost
    built = finished = priced_away = above_ceiling = cut = replaced = 0
    for left_plan in left_bucket:
        grouped_left = grouped(left_plan) if group_left else None
        for right_plan, grouped_right in rights:
            for left, right in (
                (left_plan, right_plan),
                (grouped_left, right_plan),
                (left_plan, grouped_right),
                (grouped_left, grouped_right),
            ):
                if left is None or right is None:
                    continue
                inputs = left.cost + right.cost
                if inputs > ceiling:
                    above_ceiling += 1  # the join can only add to it
                    continue
                if limit is not None and inputs >= limit:
                    cut += 1  # ... so it cannot displace the incumbent
                    continue
                priced = price(left, right, op, predicate, selectivity, groupjoin_vector)
                if priced is None:
                    continue  # invalid: the aggregation state cannot be maintained
                cost = top_cost(priced) if is_top else priced.cost
                if cost > ceiling:
                    above_ceiling += 1
                    continue
                built += 1
                if not is_top:
                    if not insert(bucket, priced):
                        priced_away += 1
                    elif threshold is not None:
                        limit = threshold(priced)
                    continue
                if bucket:
                    if not cost < bucket[0].cost:
                        priced_away += 1
                        continue
                    replaced += 1
                # Report the finalised plan — the candidate the DP table
                # actually considers for the full relation set.
                plan = builder.finish_top(construct(priced))
                finished += 1
                if on_plan is not None:
                    on_plan(plan)
                bucket[:] = [plan]
                if threshold is not None:
                    limit = threshold(plan)
    tally.built += built
    tally.constructed += finished
    tally.priced_away += priced_away
    tally.above_ceiling += above_ceiling
    tally.cut += cut
    tally.top_replacements += replaced


def _materialise(bucket, construct, on_plan) -> int:
    """Build on read: turn every priced candidate an inner bucket holds
    into its :class:`PlanInfo`, in place, reporting each to *on_plan*;
    returns how many were built.  Called once per relation set, the first
    time a ccp reads it — the bucket is final then (module docstring)."""
    lists = bucket.plan_lists() if type(bucket) is PruneBucket else (bucket,)
    count = 0
    for plans in lists:
        for at, priced in enumerate(plans):
            plans[at] = plan = construct(priced)
            if on_plan is not None:
                on_plan(plan)
        count += len(plans)
    return count
