"""Cooperative planning deadlines and graceful degradation.

The :class:`~repro.optimizer.deadline.Deadline` is the robustness
tentpole's core primitive: a budget checked cheaply inside the DP's ccp
loop, raising :class:`PlanningDeadlineExceeded` from inside
the DP so the driver can fall back to an H1 heuristic plan (marked
``degraded``) instead of answering with an error or, worse, burning CPU
past the budget.
"""

import random

import pytest

from repro.optimizer import OptimizerHooks, optimize, prepare
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.deadline import (
    DEFAULT_CHECK_EVERY,
    Deadline,
    PlanningDeadlineExceeded,
)
from repro.optimizer.driver import DEGRADED_STRATEGY
from repro.plans.render import render_plan
from repro.service.batch import optimize_cached
from repro.service.cache import PlanCache
from repro.service.fingerprint import query_fingerprint
from repro.workload import generate_query


def _query(n=6, seed=7):
    return generate_query(n, random.Random(seed))


def _unresolved(result):
    """csg-cmp-pairs the run skipped before ``resolve``: a side without
    plans, or the incumbent cut."""
    stats = result.stats
    return stats.get("strategy.pairs_without_plans", 0) + stats.get("strategy.pairs_cut", 0)


def _ccps_without_plans(query, count):
    """How many of an undisturbed EA-Prune run's first *count* csg-cmp-pairs
    have a side without plans (its final table says which)."""
    order = []
    hooks = OptimizerHooks(on_ccp=lambda s1, s2: order.append((s1, s2)))
    sizes = optimize(query, config=OptimizerConfig(), hooks=hooks).table_sizes
    return sum(1 for s1, s2 in order[:count] if not sizes.get(s1) or not sizes.get(s2))


class TestDeadlineObject:
    def test_not_expired_with_generous_budget(self):
        deadline = Deadline(3600.0)
        assert not deadline.expired
        assert deadline.remaining() > 3500.0
        deadline.check()  # does not raise

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        with pytest.raises(PlanningDeadlineExceeded):
            deadline.check()

    def test_first_tick_checks_immediately(self):
        """A blown budget must fire on the *first* ccp, not after
        ``check_every`` of them — otherwise tiny queries never degrade."""
        deadline = Deadline(0.0)
        with pytest.raises(PlanningDeadlineExceeded):
            deadline.tick()

    def test_tick_reads_clock_every_check_every(self):
        reads = []

        def clock():
            reads.append(1)
            return float(len(reads))

        deadline = Deadline(1e9, check_every=8, clock=clock)
        baseline = len(reads)
        boundaries = 0
        for _ in range(33):
            if deadline.tick():
                boundaries += 1
        # first tick + every 8th after it: ticks 1, 9, 17, 25, 33.
        assert boundaries == 5
        assert len(reads) - baseline == boundaries

    def test_expiry_carries_budget_and_elapsed(self):
        now = [0.0]
        deadline = Deadline(5.0, check_every=1, clock=lambda: now[0])
        now[0] = 7.5
        with pytest.raises(PlanningDeadlineExceeded) as exc_info:
            deadline.tick()
        assert exc_info.value.budget_seconds == 5.0
        assert exc_info.value.elapsed_seconds == pytest.approx(7.5)

    def test_default_check_interval(self):
        assert Deadline(1.0).check_every == DEFAULT_CHECK_EVERY

    def test_clamps_bad_check_every(self):
        assert Deadline(1.0, check_every=0).check_every == 1


class TestDegradedFallback:
    def test_zero_budget_degrades_to_heuristic(self):
        query = _query()
        config = OptimizerConfig(deadline_seconds=0.0)
        result = optimize(query, config=config)
        assert result.degraded is True
        assert result.strategy == DEGRADED_STRATEGY
        assert result.cost > 0
        assert result.stats.get("degraded") == 1

    def test_generous_budget_never_degrades(self):
        query = _query()
        config = OptimizerConfig(deadline_seconds=3600.0)
        result = optimize(query, config=config)
        assert result.degraded is False
        assert result.strategy == "ea-prune"

    def test_error_mode_raises_instead(self):
        query = _query()
        config = OptimizerConfig(deadline_seconds=0.0, degradation="error")
        with pytest.raises(PlanningDeadlineExceeded):
            optimize(query, config=config)

    def test_degraded_plan_matches_plain_h1(self):
        """The fallback is the real H1 plan, not some other artifact."""
        query = _query(seed=11)
        degraded = optimize(
            query, config=OptimizerConfig(deadline_seconds=0.0)
        )
        plain = optimize(query, config=OptimizerConfig(strategy="h1"))
        assert degraded.cost == plain.cost
        assert render_plan(degraded.plan.node) == render_plan(plain.plan.node)
        assert (degraded.ccp_count, degraded.plans_built, degraded.table_sizes) == (
            plain.ccp_count, plain.plans_built, plain.table_sizes,
        )

    @pytest.mark.parametrize("strategy", ["ea-prune", "h2", "ea-all"])
    def test_one_heuristic_run_not_two(self, strategy):
        """A bounded run (EA-Prune) already holds H1's result — the ceiling
        came from it — and serves that when the deadline fires; an
        unbounded one plans H1 then.  Either way the prepared query is
        enumerated under H1 once: the primary pass was stopped on its
        first tick, before it resolved a single csg-cmp-pair."""
        query = _query(seed=11)
        prepared = prepare(query)
        resolved = prepared.resolver().counters
        degraded = optimize(
            query, prepared=prepared,
            config=OptimizerConfig(strategy=strategy, deadline_seconds=0.0),
        )
        plain = optimize(query, config=OptimizerConfig(strategy="h1"))
        assert degraded.degraded and degraded.strategy == DEGRADED_STRATEGY
        assert degraded.cost == plain.cost
        assert plain.ccp_count == degraded.ccp_count
        # Every H1 ccp is resolved unless a side had no plans or the
        # incumbent cut skipped it first.
        assert resolved["resolve_calls"] + _unresolved(plain) == plain.ccp_count
        assert degraded.stats["degraded"] == 1
        assert degraded.stats["degraded.primary_ccps"] == 1
        assert degraded.stats["degraded.primary_plans"] == len(query.relations)
        assert "ceiling.cost" not in degraded.stats  # H1's own stats, as before

    def test_a_late_deadline_still_serves_the_plan_in_hand(self):
        """The budget fires deep in the main pass: what comes back is the
        pre-pass's H1 plan, with the primary's progress recorded."""
        query = _query(n=7, seed=5)
        ticks = []

        def clock():
            ticks.append(1)
            return 0.0 if len(ticks) < 12 else 1e9

        prepared = prepare(query)
        degraded = optimize(
            query, prepared=prepared, config=OptimizerConfig(),
            deadline=Deadline(1.0, check_every=1, clock=clock),
        )
        plain = optimize(query, config=OptimizerConfig(strategy="h1"))
        assert degraded.degraded and degraded.cost == plain.cost
        primary_ccps = degraded.stats["degraded.primary_ccps"]
        assert 1 < primary_ccps < plain.ccp_count
        # H1's ccps once (less those with a side without plans or that the
        # incumbent cut skipped), plus the primary's before the budget fired
        # (the tick that fired it came before that ccp was resolved;
        # EA-Prune cuts only at the full set), less the primary's with a
        # side without plans.
        skipped = _ccps_without_plans(query, primary_ccps - 1)
        assert prepared.resolver().counters["resolve_calls"] == (
            plain.ccp_count - _unresolved(plain) + primary_ccps - 1 - skipped
        )

    def test_explicit_deadline_argument_wins(self):
        query = _query()
        result = optimize(query, config=OptimizerConfig(), deadline=Deadline(0.0))
        assert result.degraded is True


class TestDegradedNeverCached:
    def test_degraded_results_skip_the_cache(self):
        query = _query(seed=3)
        cache = PlanCache(capacity=8)
        config = OptimizerConfig(deadline_seconds=0.0)
        first = optimize_cached(prepare(query), cache, config)
        assert first.degraded is True
        second = optimize_cached(prepare(query), cache, config)
        assert second.cache_hit is False
        assert len(cache) == 0

    def test_cache_store_refuses_degraded_results(self):
        """Defence in depth: even a direct store call must refuse."""
        query = _query(seed=5)
        cache = PlanCache(capacity=8)
        result = optimize(query, config=OptimizerConfig(deadline_seconds=0.0))
        assert result.degraded is True
        cache.store(query_fingerprint(query), query, result)
        assert len(cache) == 0

    def test_healthy_results_still_cached(self):
        query = _query(seed=9)
        cache = PlanCache(capacity=8)
        optimize_cached(prepare(query), cache, OptimizerConfig())
        repeat = optimize_cached(prepare(query), cache, OptimizerConfig())
        assert repeat.cache_hit is True


class TestConfigValidation:
    @pytest.mark.parametrize("seconds", [-1.0, float("nan")])
    def test_negative_or_nan_deadline_rejected(self, seconds):
        # NaN compares false both ways: accepted, it armed a 0 s budget.
        with pytest.raises(ValueError, match="deadline_seconds must be >= 0"):
            OptimizerConfig(deadline_seconds=seconds)

    def test_infinite_deadline_is_unbounded(self):
        assert OptimizerConfig(deadline_seconds=float("inf")).deadline_seconds == float("inf")

    def test_unknown_degradation_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(degradation="panic")
