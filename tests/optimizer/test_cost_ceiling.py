"""Bound, price, file: EA-Prune under a complete plan's cost as a
ceiling.

An *exact eager* run is bounded by the cost of a complete plan of the
same problem: one the caller already knows (``known_cost`` — a plan
cache remembers what an evicted plan cost), or else H1's, planned once
over the prepared query before the main pass.  No partial plan above it
is priced, filed or joined.  These tests pin

* who is bounded — the strategy and the cost model both have to say so,
  and queries of fewer than four relations never are,
* what the bound rests on — every cost model that declares ``monotone``
  is held to the three inequalities the argument uses, on plans drawn
  from real buckets,
* the restriction lemma on random-matrix seeds the other differential
  suites do not visit (``engine_oracle.py`` states it; the exhaustive
  40-seed twin is ``test_engine_differential.py``'s ``--runslow``
  matrix),
* what the run reports, and that the pre-pass is invisible to hooks,
  the plan cache, the deadline and chaos delays,
* that a known cost changes nothing but the work: the same lemma under
  the optimum, H1's cost and a replayed plan's cost as ceilings, a rerun
  when it was too low, and no effect at all on a run nobody bounds.
"""

import random
import time

import pytest

from engine_oracle import (
    Observation,
    UndeclaredCout,
    assert_engines_agree,
    assert_observations_agree,
    ceiling_of,
)
from repro import chaos
from repro.optimizer import (
    COST_MODELS,
    STRATEGIES,
    CostModel,
    OptimizerConfig,
    OptimizerHooks,
    PlanBuilder,
    Strategy,
    optimize,
    prepare,
)
from repro.optimizer import driver
from repro.optimizer.costmodel import CoutModel
from repro.optimizer.deadline import Deadline
from repro.optimizer.recost import recost
from repro.optimizer.reference import optimize_reference
from repro.optimizer.strategies import EaAllStrategy, EaPruneStrategy
from repro.plans.render import plan_shape
from repro.api import PlannerSession
from repro.service import PlanCache
from repro.service.batch import optimize_cached
from repro.sql import Catalog, parse_query
from repro.tpch.queries import build_ex, build_q3, build_q5, build_q10
from repro.workload import generate_query, topology_query

CEILING_KEYS = {
    "ceiling.cost", "ceiling.source", "ceiling.ccps", "ceiling.plans", "ceiling.seconds",
    "strategy.plans_above_ceiling",
}
#: what only a run that planned H1 first reports
PREPASS_KEYS = {"ceiling.ccps", "ceiling.plans", "ceiling.seconds"}


def _run(query, strategy="ea-prune", known_cost=None, **config):
    return optimize(
        query,
        config=OptimizerConfig(strategy=strategy, cache_capacity=None, **config),
        known_cost=known_cost,
    )


class TestWhoIsBounded:
    def test_ea_prune_under_cout_runs_under_h1s_cost(self):
        query = topology_query("cycle", 6)
        result = _run(query)
        heuristic = _run(query, "h1")
        assert CEILING_KEYS <= set(result.stats)
        assert result.stats["ceiling.cost"] == heuristic.cost
        assert result.stats["ceiling.source"] == "prepass"
        assert result.stats["ceiling.ccps"] == heuristic.ccp_count == result.ccp_count
        assert result.stats["ceiling.plans"] == heuristic.plans_built
        assert result.stats["strategy.plans_above_ceiling"] > 0
        assert result.cost <= heuristic.cost
        assert result.strategy == "ea-prune" and not result.degraded

    def test_the_declarations(self):
        declared = {
            name: STRATEGIES.create(name, factor=1.03).accepts_ceiling
            for name in ("dphyp", "ea-all", "ea-prune", "h1", "h2")
        }
        assert declared == {
            "dphyp": False, "ea-all": False, "ea-prune": True, "h1": False, "h2": False,
        }
        assert Strategy.accepts_ceiling is False and EaAllStrategy.accepts_ceiling is False
        assert not EaPruneStrategy("cost-card").accepts_ceiling
        assert not EaPruneStrategy("cost-only").accepts_ceiling
        assert CostModel.monotone is False and CoutModel.monotone is True

    @pytest.mark.parametrize(
        "strategy",
        ["dphyp", "ea-all", "h1", "h2", EaPruneStrategy("cost-card"),
         EaPruneStrategy("cost-only")],
        ids=lambda s: s if isinstance(s, str) else s.name,
    )
    def test_other_strategies_are_not(self, strategy):
        result = _run(topology_query("star", 5), strategy)
        assert not CEILING_KEYS & set(result.stats)

    def test_undeclared_cost_model_is_not(self):
        query = topology_query("chain", 6)
        unbounded = _run(query, cost_model=UndeclaredCout())
        assert not CEILING_KEYS & set(unbounded.stats)
        bounded = _run(query)
        assert (bounded.cost, bounded.ccp_count) == (unbounded.cost, unbounded.ccp_count)
        assert bounded.plans_built < unbounded.plans_built

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_queries_skip_the_pre_pass(self, n):
        # Observable size, not a workload name: with two relations there is
        # no inner bucket to thin, with three the pre-pass measured dearer
        # than what it saves (driver.CEILING_MIN_RELATIONS has the numbers).
        result = _run(topology_query("chain", n))
        assert ("ceiling.cost" in result.stats) == (n >= driver.CEILING_MIN_RELATIONS)


# -- the cost model's side of the argument ------------------------------------------


def _offered_plans(query, model):
    """Every inner plan an exhaustive EA-Prune run under *model* offers
    its DP table (the oracle builds them all)."""
    plans = []
    optimize_reference(
        query,
        config=OptimizerConfig(cost_model=model, cache_capacity=None),
        hooks=OptimizerHooks(on_plan=plans.append),
    )
    return [p for p in plans if p.rel_set != query.all_relations_mask]


def check_monotone(model, query, rng, per_pair=4):
    """The three inequalities a ceiling rests on, for *model* on *query*:
    ``price(l, r).cost >= l.cost + r.cost``, ``grouped(p).cost >= p.cost``
    and ``top_cost(p) >= p.cost``.  Returns how many were checked."""
    builder = PlanBuilder(query, cost_model=model)
    resolver = prepare(query).resolver()
    all_mask = query.all_relations_mask
    by_set = {}
    for plan in _offered_plans(query, model):
        by_set.setdefault(plan.rel_set, []).append(plan)
    checked = 0
    for left_set, lefts in by_set.items():
        for right_set, rights in by_set.items():
            if left_set & right_set:
                continue
            spec = resolver.resolve(left_set, right_set)
            if spec is None or spec.swap:
                continue
            for left in rng.sample(lefts, min(per_pair, len(lefts))):
                for right in rng.sample(rights, min(per_pair, len(rights))):
                    for lhs in (left, builder.grouped(left)):
                        for rhs in (right, builder.grouped(right)):
                            if lhs is None or rhs is None:
                                continue
                            for plan, grouped in ((left, lhs), (right, rhs)):
                                assert grouped.cost >= plan.cost
                            priced = builder.price(
                                lhs, rhs, spec.op, spec.predicate, spec.selectivity,
                                spec.groupjoin_vector,
                            )
                            if priced is None:
                                continue
                            assert priced.cost >= lhs.cost + rhs.cost
                            if priced.rel_set == all_mask:
                                assert builder.top_cost(priced) >= priced.cost
                            checked += 1
    return checked


def _property_queries():
    for topology in ("chain", "star", "cycle", "clique"):
        yield topology, topology_query(topology, 5)
    for name, build in (("ex", build_ex), ("q3", build_q3), ("q5", build_q5), ("q10", build_q10)):
        yield name, build()
    for seed in range(8):
        rng = random.Random(seed * 7919 + 3)
        yield f"random-{seed}", generate_query(rng.randint(3, 6), rng)


PROPERTY_QUERIES = list(_property_queries())


class NegativeJoinModel(CoutModel):
    """Declares ``monotone`` and is not: a join that refunds a row."""

    name = "negative-join-test"

    def join(self, op, output_cardinality, left, right):
        return -1.0


class TestDeclaredModelsAreMonotone:
    @pytest.mark.parametrize(
        "name,query", PROPERTY_QUERIES, ids=[name for name, _ in PROPERTY_QUERIES]
    )
    def test_every_registered_model_that_declares_it(self, name, query):
        declaring = [
            model
            for model in map(COST_MODELS.create, COST_MODELS.names())
            if model.monotone
        ]
        assert any(type(model) is CoutModel for model in declaring)
        for model in declaring:
            assert check_monotone(model, query, random.Random(name)) > 0, model.name

    def test_the_check_catches_a_model_that_lies(self):
        with pytest.raises(AssertionError):
            check_monotone(NegativeJoinModel(), topology_query("chain", 4), random.Random(0))


# -- the restriction lemma -------------------------------------------------------------

#: Random-matrix seeds (``test_engine_differential._random_query(seed,
#: max_relations=12)``) of 6–11 relations whose unbounded run prices
#: 1.4k–8k candidates — about a second each in the oracle.
MATRIX_SLICE = (7, 13, 17, 23, 24, 26, 30, 36, 38)


def _matrix_query(seed):
    rng = random.Random(seed)
    return generate_query(rng.randint(3, 12), rng)


class TestRestrictionLemma:
    """Indexed bucket == reference bucket restricted to ``cost <=
    ceiling``, per relation set — with cost, plan and ccps identical."""

    @pytest.mark.parametrize("seed", MATRIX_SLICE)
    def test_random_matrix_slice(self, seed):
        query = _matrix_query(seed)
        result = assert_engines_agree(query, "ea-prune", context=(seed,))
        assert ceiling_of(result) == _run(query, "h1").cost

    @pytest.mark.parametrize("topology,n", [("chain", 7), ("star", 7), ("cycle", 7)])
    def test_larger_topologies(self, topology, n):
        result = assert_engines_agree(topology_query(topology, n), "ea-prune")
        assert result.stats["strategy.plans_above_ceiling"] > 0


# -- what the run reports, and what the pre-pass must not touch -------------------------


class CountingCache(PlanCache):
    def __init__(self):
        super().__init__(capacity=8)
        self.probes = self.stores = 0

    def serve_entry(self, *args, **kwargs):
        self.probes += 1
        return super().serve_entry(*args, **kwargs)

    def store(self, *args, **kwargs):
        self.stores += 1
        return super().store(*args, **kwargs)


class TestThePrePassIsInvisible:
    def _hooks(self, fired):
        return OptimizerHooks(
            on_prepare=lambda prepared: fired.append("prepare"),
            on_ccp=lambda s1, s2: fired.append("ccp"),
            on_plan=lambda plan: fired.append("plan"),
            on_result=lambda result: fired.append("result"),
        )

    @pytest.mark.parametrize("supply_prepared", [False, True])
    def test_hooks_fire_for_the_main_pass_only(self, supply_prepared):
        query = build_q5()
        fired = []
        result = optimize(
            query,
            prepared=prepare(query) if supply_prepared else None,
            config=OptimizerConfig(cache_capacity=None),
            hooks=self._hooks(fired),
        )
        assert "ceiling.cost" in result.stats
        assert fired.count("prepare") == (0 if supply_prepared else 1)
        assert fired.count("ccp") == result.ccp_count
        assert fired.count("plan") == result.stats["plans_constructed"]
        assert fired.count("result") == 1

    def test_a_supplied_cache_is_probed_and_stored_once(self):
        cache = CountingCache()
        config = OptimizerConfig(cache_capacity=None)
        fired = []
        session = PlannerSession(config=config, cache=cache)
        session.on("result", lambda result: fired.append("result"))
        statement = session.statement(build_q10())
        cold = statement.optimize().result
        assert (cache.probes, cache.stores, len(cache)) == (1, 1, 1)
        assert cold.strategy == "ea-prune" and "ceiling.cost" in cold.stats
        warm = statement.optimize().result
        assert warm.cache_hit and warm.cost == cold.cost
        assert (cache.probes, cache.stores) == (2, 1)
        assert fired.count("result") == 2

    def test_elapsed_covers_both_passes_and_ccps_are_the_main_passs(self):
        query = topology_query("star", 7)
        started = time.perf_counter()
        result = _run(query)
        wall = time.perf_counter() - started
        assert 0 < result.stats["ceiling.seconds"] < result.elapsed_seconds <= wall
        assert result.ccp_count == _run(query, cost_model=UndeclaredCout()).ccp_count
        stats = result.stats
        assert stats["resolver.resolve_calls"] + stats.get("strategy.pairs_cut", 0) + stats.get(
            "strategy.pairs_without_plans", 0
        ) == result.ccp_count

    def test_no_deadline_ticks_and_no_chaos_delay(self, monkeypatch):
        query = topology_query("cycle", 6)
        reads, sleeps = [], []

        def clock():
            reads.append(1)
            return 0.0

        monkeypatch.setattr(chaos, "enabled", lambda: True)
        monkeypatch.setattr(chaos, "planning_delay", lambda names: 0.0)
        monkeypatch.setattr(driver.time, "sleep", sleeps.append)
        deadline = Deadline(1e9, check_every=1, clock=clock)
        armed = len(reads)
        result = optimize(query, config=OptimizerConfig(cache_capacity=None), deadline=deadline)
        assert "ceiling.cost" in result.stats and not result.degraded
        # One tick, one clock read and one injected pause per main-pass ccp
        # (plus the re-check after each pause) — none for the pre-pass's.
        assert len(sleeps) == result.ccp_count == result.stats["ceiling.ccps"]
        assert len(reads) - armed == 2 * result.ccp_count


# -- a cost the caller already knows ---------------------------------------------------


def _answer(result):
    return result.cost, plan_shape(result.plan.node), result.ccp_count


def _counters(result):
    """Everything a run reports but its wall-clock time."""
    stats = {k: v for k, v in result.stats.items() if not k.endswith("seconds")}
    return result.cost, result.ccp_count, result.plans_built, result.table_sizes, stats


def check_known_costs(query, context=()):
    """The restriction lemma under every ceiling a caller may know — one
    reference run, kept up to the loosest of them, serves them all."""
    optimum, h1 = _run(query), _run(query, "h1")
    # What a plan cache holds after a drift re-cost: some eager plan (here
    # H2's) replayed under this query's statistics.
    replayed = recost(query, _run(query, "h2").plan.node).cost
    assert optimum.cost <= replayed and optimum.cost <= h1.cost
    loosest = max(h1.cost, replayed) * (1.0 + driver.KNOWN_COST_SLACK)
    reference = Observation(query, "ea-prune", "reference", keep_up_to=loosest)
    for name, known in (("optimum", optimum.cost), ("h1", h1.cost), ("replay", replayed)):
        indexed = Observation(query, "ea-prune", "indexed", known_cost=known)
        got = assert_observations_agree(query, indexed, reference, (*context, name))
        assert got.stats["ceiling.source"] == "remembered", (*context, name)
        assert got.stats["ceiling.cost"] == known * (1.0 + driver.KNOWN_COST_SLACK)
        assert not PREPASS_KEYS & set(got.stats), (*context, name)
        assert _answer(got) == _answer(optimum), (*context, name)
    # Nothing known: today's run, to the last counter.
    assert _counters(_run(query, known_cost=None)) == _counters(optimum), context
    # Too low to be the cost of any plan of this query: planned again.
    rerun = _run(query, known_cost=optimum.cost * (1.0 - 1e-6))
    assert rerun.stats["ceiling.rerun"] == 1, context
    assert _answer(rerun) == _answer(optimum), context
    assert rerun.stats.get("ceiling.source") == optimum.stats.get("ceiling.source"), context
    return optimum


def _known_cost_queries():
    for topology in ("chain", "cycle", "star", "clique"):
        for n in (4, 6):
            yield f"{topology}-{n}", topology_query(topology, n)
    for seed in range(6):  # test_engine_differential's random slice
        rng = random.Random(seed * 7919 + 11)
        yield f"random-{seed}", generate_query(rng.randint(3, 9), rng)
    for seed in (10, 17, *MATRIX_SLICE):
        yield f"matrix-{seed}", _matrix_query(seed)


KNOWN_COST_QUERIES = list(_known_cost_queries())

RIGHT_JOIN_SQL = (
    "SELECT n.n_name, count(*) AS cnt FROM customer c "
    "RIGHT JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "JOIN region r ON n.n_regionkey = r.r_regionkey "
    "JOIN supplier s ON s.s_nationkey = n.n_nationkey GROUP BY n.n_name"
)
#: the same problem, FROM list reordered: relations 0 and 1 trade places
LEFT_JOIN_SQL = (
    "SELECT nn.n_name, count(*) AS cnt FROM nation nn "
    "LEFT JOIN customer cc ON cc.c_nationkey = nn.n_nationkey "
    "JOIN region rr ON nn.n_regionkey = rr.r_regionkey "
    "JOIN supplier ss ON ss.s_nationkey = nn.n_nationkey GROUP BY nn.n_name"
)


class TestKnownCost:
    """``optimize(known_cost=...)``: the ceiling without the pre-pass."""

    @pytest.mark.parametrize(
        "name,query", KNOWN_COST_QUERIES, ids=[name for name, _ in KNOWN_COST_QUERIES]
    )
    def test_known_cost_differential(self, name, query):
        check_known_costs(query, (name,))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(40))
    def test_known_cost_random_matrix(self, seed):
        check_known_costs(_matrix_query(seed), (seed,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_it_bounds_below_the_pre_passs_minimum_too(self, n):
        query = topology_query("chain", n)
        plain = _run(query)
        assert "ceiling.cost" not in plain.stats
        known = assert_engines_agree(query, "ea-prune", known_cost=plain.cost)
        assert known.stats["ceiling.source"] == "remembered"
        assert _answer(known) == _answer(plain)

    def test_a_cost_remembered_under_one_spelling_bounds_the_other(self):
        catalog = Catalog.from_tpch()
        first, second = parse_query(RIGHT_JOIN_SQL, catalog), parse_query(LEFT_JOIN_SQL, catalog)
        assert [rel.source_table for rel in first.relations][:2] == ["customer", "nation"]
        assert [rel.source_table for rel in second.relations][:2] == ["nation", "customer"]
        config = OptimizerConfig(cache_capacity=None)
        cache = PlanCache(capacity=1)
        cold = optimize_cached(prepare(first), cache, config)
        assert cold.stats["ceiling.source"] == "prepass"
        optimize_cached(prepare(topology_query("chain", 3)), cache, config)  # evicts it
        assert len(cache) == 1 and cache.describe()["known_costs"] == 1.0
        again = optimize_cached(prepare(second), cache, config)
        assert not again.cache_hit and again.stats["ceiling.source"] == "remembered"
        assert "ceiling.rerun" not in again.stats
        assert _answer(again) == _answer(_run(second))
        assert_engines_agree(second, "ea-prune", known_cost=cold.cost)

    @pytest.mark.parametrize(
        "config",
        [{"strategy": "dphyp"}, {"strategy": "h2"}, {"strategy": "h1"}, {"strategy": "ea-all"},
         {"cost_model": UndeclaredCout()}],
        ids=["dphyp", "h2", "h1", "ea-all", "undeclared-model"],
    )
    def test_a_run_nobody_bounds_ignores_it(self, config):
        query = topology_query("cycle", 5)
        plain = _run(query, **config)
        # Even a cost below every plan's: nothing is dropped, nothing rerun.
        for known in (plain.cost, plain.cost / 2):
            assert _counters(_run(query, known_cost=known, **config)) == _counters(plain)
        assert not CEILING_KEYS & set(plain.stats)

    @pytest.mark.parametrize("strategy", ["ea-prune", "dphyp"])
    def test_nan_is_refused(self, strategy):
        # NaN compares false to every cost: it would bound nothing, yet be
        # reported as a remembered ceiling.
        with pytest.raises(ValueError, match="known_cost"):
            _run(topology_query("chain", 6), strategy, known_cost=float("nan"))

    def test_inf_bounds_nothing(self):
        query = topology_query("chain", 6)
        unbounded = _run(query, known_cost=float("inf"))
        assert unbounded.stats["strategy.plans_above_ceiling"] == 0
        assert _answer(unbounded) == _answer(_run(query))

    def test_a_rerun_keeps_the_budget_and_reports_once(self):
        query = topology_query("star", 6)
        fired = []
        result = optimize(
            query,
            config=OptimizerConfig(cache_capacity=None),
            hooks=OptimizerHooks(on_result=fired.append),
            deadline=Deadline(1e9),
            known_cost=1.0,
        )
        assert fired == [result] and result.stats["ceiling.rerun"] == 1
        assert result.stats["ceiling.source"] == "prepass" and not result.degraded
        assert _answer(result) == _answer(_run(query))
        # ... and a budget already spent degrades the rerun like any run.
        spent = optimize(
            query, config=OptimizerConfig(cache_capacity=None),
            deadline=Deadline(0.0, check_every=1), known_cost=1.0,
        )
        assert spent.degraded and spent.strategy == "h1"

    def test_a_cache_is_asked_once_per_miss_and_not_on_a_hit(self):
        class AskedCache(PlanCache):
            asked = 0

            def known_cost(self, key, exact_snapshot):
                self.asked += 1
                return super().known_cost(key, exact_snapshot)

        query = topology_query("chain", 5)
        cache = AskedCache(capacity=4)
        config = OptimizerConfig(cache_capacity=None)
        optimize_cached(prepare(query), cache, config)
        assert cache.asked == 1
        assert optimize_cached(prepare(query), cache, config).cache_hit
        assert cache.asked == 1
        # A run nobody bounds is asked too; the driver ignores the answer.
        optimize_cached(prepare(query), cache, config.with_overrides(strategy="dphyp"))
        assert cache.asked == 2
