"""Batch driver: ordering, dedup, cache reuse, and parallel equivalence."""

import random

import pytest

from repro.api import PlannerSession
from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.service import PlanCache, cardinality_snapshot, optimize_many, run_batch
from repro.service.batch import optimize_cached
from repro.service.fingerprint import plan_key
from repro.workload import generate_query, generate_workload


SERIAL = OptimizerConfig(workers=1)
POOL = OptimizerConfig(workers=2)


def workload(count, unique=None, n=4, seed=7):
    return generate_workload(count, n, random.Random(seed), unique=unique)


class TestSerialDriver:
    def test_results_in_submission_order_with_matching_costs(self):
        queries = workload(6)
        items = list(optimize_many(queries, config=SERIAL))
        assert [item.index for item in items] == list(range(6))
        for item, query in zip(items, queries):
            assert item.cost == optimize(query).cost
            assert item.result.strategy == "ea-prune"

    def test_within_batch_dedup_without_cache(self):
        queries = workload(9, unique=3)
        items = list(optimize_many(queries, cache=None, config=SERIAL))
        assert sum(1 for item in items if not item.cache_hit) == 3
        assert sum(1 for item in items if item.cache_hit) == 6
        # Duplicates share the identical plan.
        by_key = {}
        for item in items:
            by_key.setdefault(item.key, set()).add(item.cost)
        assert all(len(costs) == 1 for costs in by_key.values())

    def test_strategy_parameter_respected(self):
        queries = workload(3)
        items = list(optimize_many(queries, config=SERIAL.with_overrides(strategy="dphyp")))
        assert all(item.result.strategy == "dphyp" for item in items)


class TestCacheReuse:
    def test_second_batch_is_all_hits(self):
        queries = workload(8, unique=4)
        cache = PlanCache(capacity=64)
        first = run_batch(queries, cache, SERIAL)
        second = run_batch(queries, cache, SERIAL)
        assert first.hits == 4 and first.total == 8
        assert second.hit_rate == 1.0
        assert second.optimize_seconds == 0.0
        assert cache.stats.puts == 4

    def test_hits_marked_and_timed(self):
        queries = workload(4, unique=2)
        cache = PlanCache(capacity=64)
        list(optimize_many(queries, cache, SERIAL))
        items = list(optimize_many(queries, cache, SERIAL))
        assert all(item.cache_hit for item in items)
        assert all(item.result.cache_hit for item in items)

    def test_cache_hit_results_report_zero_elapsed(self):
        queries = workload(2, unique=1)
        cache = PlanCache(capacity=64)
        fresh = optimize_cached(prepare(queries[0]), cache, SERIAL)
        served = optimize_cached(prepare(queries[1]), cache, SERIAL)
        assert fresh.elapsed_seconds > 0
        assert served.cache_hit
        assert served.elapsed_seconds == 0.0  # a lookup, not a re-run
        # The work counters still describe the run that built the plan.
        assert served.ccp_count == fresh.ccp_count
        assert served.plans_built == fresh.plans_built

    def test_invalidation_forces_recomputation(self):
        queries = workload(3, unique=1)
        cache = PlanCache(capacity=64)
        run_batch(queries, cache, SERIAL)
        assert cache.clear() == 1
        report = run_batch(queries, cache, SERIAL)
        assert report.hits == 2  # one fresh run, two within-batch reuses

    def test_cache_shared_across_strategies_without_collision(self):
        queries = workload(2, unique=1)
        cache = PlanCache(capacity=64)
        run_batch(queries, cache, SERIAL)
        report = run_batch(queries, cache, SERIAL.with_overrides(strategy="dphyp"))
        assert report.hits == 1  # dphyp must re-optimize, not reuse ea-prune
        assert cache.stats.puts == 2


class TestOneMissPath:
    """The batch driver keys, probes and stores like every other cache
    user — it used to build its keys without the band width and store
    without the exact snapshot."""

    def banded(self) -> PlannerSession:
        return PlannerSession(
            config=OptimizerConfig(workers=1, cache_capacity=32, snapshot_band_width=1.0)
        )

    def test_an_optimized_query_is_a_batch_hit_under_banded_keys(self):
        session, (q0, q1) = self.banded(), workload(2)
        assert session.optimize(q0).cache_hit is False
        report = session.run_batch([q0])
        assert report.hits == 1 and report.items[0].result.cache_hit
        assert len(session.cache) == 1
        # ... and the other way round, with one entry per query in total
        session.run_batch([q1])
        assert session.optimize(q1).cache_hit is True
        assert len(session.cache) == 2 and session.cache.stats.puts == 2

    def test_a_batch_stored_entry_remembers_its_exact_snapshot(self):
        session, (query,) = self.banded(), workload(1)
        (item,) = session.run_batch([query]).items
        assert item.key == plan_key(query, session.config)[0]
        session.cache.mark_stale()
        (claim,) = session.cache.claim_stale()
        assert claim.exact_snapshot == cardinality_snapshot(query) != item.key.snapshot

    @pytest.mark.parametrize("config", [SERIAL, POOL], ids=["serial", "pool"])
    def test_a_batch_replans_under_the_cost_an_evicted_plan_left(self, config):
        queries = workload(3, n=5)
        cache = PlanCache(capacity=1)
        first = run_batch(queries, cache, config)
        assert [item.result.stats["ceiling.source"] for item in first.items] == ["prepass"] * 3
        # Two of the three were evicted; the batch repeats one of them.
        again = run_batch([queries[0], queries[1], queries[0]], cache, config)
        assert [item.cache_hit for item in again.items] == [False, False, True]
        for item, before in zip(again.items[:2], first.items):
            assert item.result.stats["ceiling.source"] == "remembered"
            assert (item.cost, item.result.ccp_count) == (before.cost, before.result.ccp_count)

    def test_degraded_results_are_shared_but_never_stored(self):
        queries = workload(3, unique=1, n=6)
        cache = PlanCache(capacity=8)
        report = run_batch(queries, cache, SERIAL.with_overrides(deadline_seconds=0.0))
        assert [item.result.degraded for item in report.items] == [True] * 3
        assert [item.cache_hit for item in report.items] == [False, True, True]
        assert len(cache) == 0 and cache.stats.puts == 0


class TestParallelDriver:
    def test_parallel_matches_serial_costs(self):
        queries = workload(6, n=4, seed=11)
        serial = [item.cost for item in optimize_many(queries, config=SERIAL)]
        parallel = [item.cost for item in optimize_many(queries, config=POOL)]
        assert parallel == serial

    def test_parallel_with_cache_and_duplicates(self):
        queries = workload(10, unique=4, seed=13)
        cache = PlanCache(capacity=64)
        report = run_batch(queries, cache, POOL)
        assert report.total == 10
        assert report.total - report.hits == 4
        for item, query in zip(report.items, queries):
            assert item.cost == optimize(query).cost

    def test_streaming_preserves_order(self):
        queries = workload(5, seed=17)
        indices = [item.index for item in optimize_many(queries, config=POOL)]
        assert indices == [0, 1, 2, 3, 4]


class TestReport:
    def test_report_metrics(self):
        queries = workload(6, unique=2, seed=19)
        report = run_batch(queries, PlanCache(capacity=8), SERIAL)
        assert report.total == 6
        assert report.hits == 4
        assert report.hit_rate == pytest.approx(4 / 6)
        assert report.wall_seconds > 0
        assert report.queries_per_second > 0
        assert report.optimize_seconds > 0
        assert report.cache_stats is not None
        assert report.cache_stats.puts == 2

    def test_single_query_batch(self):
        query = generate_query(3, random.Random(23))
        report = run_batch([query], config=SERIAL)
        assert report.total == 1
        assert report.hits == 0
        assert report.items[0].cost == optimize(query).cost
