"""Per-item fault isolation in the batch driver (worker-crash streaming).

A poisoned query — one that fingerprints fine but raises inside
``optimize()`` — must fail alone: every other item keeps its result, the
batch keeps streaming in order, the failure is visible in the report, and
nothing broken lands in the plan cache.
"""

import dataclasses
import random

import pytest

from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.vector import AggVector
from repro.algebra.expressions import Attr
from repro.optimizer.config import OptimizerConfig
from repro.query.spec import Query
from repro.service import PlanCache, optimize_many, run_batch
from repro.service.batch import Miss, plan_miss
from repro.service.fingerprint import plan_key
from repro.workload import generate_workload


def workload(count, unique=None, n=4, seed=7):
    return generate_workload(count, n, random.Random(seed), unique=unique)


def ticket(query: Query) -> Miss:
    config = OptimizerConfig()
    return Miss(query, config, *plan_key(query, config))


def poisoned(query: Query) -> Query:
    """A copy of *query* aggregating over an attribute no relation owns.

    Survives fingerprinting (unknown attributes canonicalise to literal
    tokens) but raises ``KeyError`` inside the optimizer — i.e. inside the
    pool worker, after dispatch.
    """
    items = list(query.aggregates)
    items[0] = dataclasses.replace(
        items[0], call=AggCall(AggKind.SUM, Attr("ghost.attr"))
    )
    return Query(
        query.relations, query.edges, query.tree, query.group_by,
        AggVector(items), query.local_predicates,
    )


class TestWorkerOutcome:
    def test_success_envelope(self):
        query = workload(1)[0]
        outcome = plan_miss(ticket(query))
        assert outcome.ok
        assert outcome.error is None
        assert outcome.result.cost > 0

    def test_failure_envelope_instead_of_raising(self):
        query = poisoned(workload(1)[0])
        outcome = plan_miss(ticket(query))
        assert not outcome.ok
        assert outcome.result is None
        assert "ghost.attr" in outcome.error
        assert outcome.error.startswith("KeyError")
        assert outcome.elapsed_seconds >= 0.0


@pytest.mark.parametrize("workers", [1, 3], ids=["serial", "pool"])
class TestPoisonedBatchStreaming:
    def test_other_items_survive_in_order(self, workers):
        queries = workload(6, seed=11)
        queries[2] = poisoned(queries[2])
        items = list(optimize_many(queries, config=OptimizerConfig(workers=workers)))
        assert [item.index for item in items] == list(range(6))
        assert [item.ok for item in items] == [True, True, False, True, True, True]
        assert all(item.result is not None for item in items if item.ok)
        failed = items[2]
        assert failed.result is None
        assert "ghost.attr" in failed.error
        assert not failed.cache_hit

    def test_duplicates_of_poisoned_query_all_fail(self, workers):
        queries = workload(4, seed=11)
        bad = poisoned(queries[0])
        queries = [bad, queries[1], bad, queries[3]]
        items = list(optimize_many(queries, config=OptimizerConfig(workers=workers)))
        assert [item.ok for item in items] == [False, True, False, True]
        # shared outcome, but duplicates are failures, not cache hits
        assert items[0].error == items[2].error
        assert not items[2].cache_hit

    def test_failures_never_pollute_the_cache(self, workers):
        queries = workload(4, seed=11)
        queries[1] = poisoned(queries[1])
        cache = PlanCache(capacity=16)
        items = list(optimize_many(queries, cache, OptimizerConfig(workers=workers)))
        assert len(cache) == 3  # only the successes were stored
        assert items[1].key not in cache
        assert cache.stats.puts == 3

    def test_report_surfaces_failures(self, workers):
        queries = workload(5, seed=11)
        queries[4] = poisoned(queries[4])
        report = run_batch(queries, PlanCache(capacity=16), OptimizerConfig(workers=workers))
        assert report.total == 5
        assert report.failed == 1
        assert [item.index for item in report.failures] == [4]
        assert report.optimize_seconds > 0.0  # successes still timed

    def test_cost_on_failed_item_raises_with_context(self, workers):
        queries = [poisoned(workload(1)[0])]
        (item,) = list(optimize_many(queries, config=OptimizerConfig(workers=workers)))
        with pytest.raises(ValueError, match="failed to optimize"):
            item.cost


class TestAllPoisoned:
    def test_every_item_fails_batch_still_completes(self):
        queries = [poisoned(query) for query in workload(3, seed=13)]
        report = run_batch(queries, config=OptimizerConfig(workers=2))
        assert report.failed == 3
        assert report.hits == 0
        assert report.optimize_seconds == 0.0
