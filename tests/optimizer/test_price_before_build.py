"""Price, ask, build: the indexed DP constructs only the plans it keeps.

The driver prices every OpTrees candidate
(:meth:`PlanBuilder.price`), asks the strategy whether it would discard a
plan with those numbers (:meth:`Strategy.would_discard`), and builds only
the survivors.  These tests pin the contract around that split:

* pricing and construction are one arithmetic (``join`` is price-then-
  construct; the priced ``finish_top`` cost equals the built one),
* the bookkeeping adds up (``plans_built`` = constructed + priced away,
  every constructed plan entered a bucket, ``on_plan`` fires once per
  materialised plan),
* the plug-in seams still hold: a strategy that defines only ``insert``
  and a cost model that defines only the three operator prices give the
  reference engine's answers,
* nothing run-local (the per-plan Γ memo, closure caches, the run's FD
  state) rides on a pickled plan,
* ``import repro.optimizer`` stays light, and the deleted engine's name is
  an ordinary unknown-engine error.
"""

import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from engine_oracle import UndeclaredCout, assert_engines_agree
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
from repro.optimizer.planinfo import clear_memo_caches
from repro.optimizer.costmodel import CoutModel
from repro.optimizer.driver import CEILING_MIN_RELATIONS
from repro.optimizer.strategies import EaPruneStrategy, H1Strategy
from repro.service import PlanCache
from repro.service.config import ServingConfig
from repro.tpch.queries import build_q5, build_q10
from repro.workload import generate_query, topology_query

ALL_STRATEGIES = ("dphyp", "ea-all", "ea-prune", "h1", "h2")


def _queries():
    yield "q5", build_q5()
    yield "q10", build_q10()
    yield "star-5", topology_query("star", 5)
    yield "cycle-5", topology_query("cycle", 5)
    for seed in range(8):
        yield f"random-{seed}", generate_query(
            random.Random(seed).randint(3, 6), random.Random(seed * 7919)
        )


QUERIES = list(_queries())


class TestOneArithmetic:
    """``price`` then ``construct`` is ``join``; ``top_cost`` is the cost
    ``finish_top`` reports — checked on every plan pair a DP run offers."""

    @pytest.mark.parametrize("name,query", QUERIES[:6], ids=[n for n, _ in QUERIES[:6]])
    def test_priced_numbers_are_the_built_numbers(self, name, query):
        prepared = prepare(query)
        resolver = prepared.resolver()
        builder = PlanBuilder(query)
        by_set = {}
        optimize(
            query, "ea-prune", prepared=prepared,
            hooks=OptimizerHooks(
                on_plan=lambda plan: by_set.setdefault(plan.rel_set, []).append(plan)
            ),
        )
        checked = 0
        all_mask = query.all_relations_mask
        for left_set, lefts in by_set.items():
            for right_set, rights in by_set.items():
                if left_set & right_set or all_mask in (left_set, right_set):
                    continue
                spec = resolver.resolve(left_set, right_set)
                if spec is None or spec.swap:
                    continue
                args = (spec.op, spec.predicate, spec.selectivity, spec.groupjoin_vector)
                for left in lefts[:3]:
                    for right in rights[:3]:
                        priced = builder.price(left, right, *args)
                        built = builder.join(left, right, *args)
                        assert (priced is None) == (built is None)
                        if priced is None:
                            continue
                        checked += 1
                        for field in (
                            "cost", "cardinality", "eagerness", "duplicate_free",
                            "keys", "equiv", "rel_set", "raw_attrs", "scale_cols",
                        ):
                            assert getattr(priced, field) == getattr(built, field), field
                        assert dict(priced.distinct) == built.distinct
                        # The top-grouping estimate reads a priced candidate
                        # and a built plan alike; on the full set it is the
                        # cost finish_top reports.
                        assert builder.top_cost(priced) == builder.top_cost(built)
                        if built.rel_set == all_mask:
                            assert builder.top_cost(priced) == builder.finish_top(built).cost
        assert checked > 0

    def test_grouping_is_built_once_per_plan(self):
        query = topology_query("chain", 3)
        builder = PlanBuilder(query)
        leaf = builder.leaf(1)
        grouped = builder.grouped(leaf)
        assert grouped is not None and builder.grouped(leaf) is grouped
        g_plus = builder.needed_above(leaf.rel_set) & leaf.raw_attrs
        assert grouped.node.group_attrs == tuple(sorted(g_plus))


class TestBookkeeping:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_built_is_constructed_plus_priced_away(self, name, query, strategy):
        if (name, strategy) == ("q5", "ea-all"):
            pytest.skip("EA-All keeps 250k plans on Q5: seconds, and nothing new")
        seen = []
        result = optimize(query, strategy, hooks=OptimizerHooks(on_plan=seen.append))
        stats = result.stats
        priced_away = stats.get("strategy.plans_priced_away", 0)
        assert result.plans_built == stats["plans_constructed"] + priced_away
        # on_plan: once per plan the DP materialised, nothing else.
        assert len(seen) == stats["plans_constructed"]
        assert stats["plans_constructed"] >= sum(result.table_sizes.values())

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_every_constructed_plan_entered_a_bucket(self, name, query, criteria):
        """A plan is built only after ``would_discard`` let it through, so
        ``insert`` must admit it: it is in the table at the end unless a
        later plan evicted it or displaced it at the top."""
        result = optimize(query, EaPruneStrategy(criteria))
        stats = result.stats
        assert stats["plans_constructed"] == (
            sum(result.table_sizes.values())
            + stats.get("strategy.plans_evicted", 0)
            + stats["top_replacements"]
        )
        # Inner candidates priced away are exactly the ones Def. 4 discards.
        assert stats.get("strategy.plans_priced_away", 0) >= stats.get(
            "strategy.plans_discarded", 0
        )

    def test_reference_engine_builds_everything(self):
        query = build_q10()
        seen = []
        result = optimize(
            query, "ea-prune", engine="reference",
            hooks=OptimizerHooks(on_plan=seen.append),
        )
        assert result.stats["plans_constructed"] == result.plans_built == len(seen)
        assert "strategy.plans_priced_away" not in result.stats
        # Without a ceiling the indexed engine sees the same finished plans
        # in the same order; under one it never finishes the dear ones.
        indexed = optimize(query, config=OptimizerConfig(
            cost_model=UndeclaredCout(), cache_capacity=None,
        ))
        assert indexed.stats["top_replacements"] == result.stats["top_replacements"]
        assert optimize(query, "ea-prune").stats["top_replacements"] <= (
            result.stats["top_replacements"]
        )


# -- third-party plug-ins: only the pre-existing seams are implemented -------


class KeepTwoCheapest(Strategy):
    """Defines ``insert`` only — no ``would_discard``, so the driver must
    build every candidate for it, as it always did."""

    name = "keep-two-cheapest-test"

    def insert(self, bucket, plan):
        bucket.append(plan)
        bucket.sort(key=lambda p: p.cost)
        del bucket[2:]


class RowCountModel(CostModel):
    """The ``c-rows`` model of :mod:`repro.optimizer.costmodel`'s docstring."""

    name = "c-rows-test"

    def scan(self, cardinality):
        return cardinality  # scans are not free here

    def join(self, op, output_cardinality, left, right):
        return output_cardinality

    def group(self, output_cardinality, child):
        return child.cardinality  # a grouping reads its input


class KeepDearestTop(H1Strategy):
    """Overrides ``insert_top`` only — with a rule ``loses_on_cost`` gets
    wrong on purpose — so the driver must not price finished plans away
    behind its back."""

    name = "keep-dearest-top-test"

    def insert_top(self, bucket, plan):
        if not bucket or plan.cost > bucket[0].cost:
            bucket[:] = [plan]


class KeepDearestTopPriced(KeepDearestTop):
    """... and its pricing twin, overridden together."""

    name = "keep-dearest-top-priced-test"

    def would_discard_top(self, bucket, cost):
        return bool(bucket) and not cost > bucket[0].cost


class ChildReadingModel(CoutModel):
    """A ``group`` that reads the read-only surface a :class:`PlanInfo` and
    a :class:`PricedJoin` share beyond the numbers."""

    name = "child-reading-test"

    def group(self, output_cardinality, child):
        relations = bin(child.rel_set).count("1")
        return output_cardinality + relations + len(child.raw_attrs) + len(child.scale_cols)


STRATEGIES.register(KeepTwoCheapest.name)(lambda **_options: KeepTwoCheapest())
STRATEGIES.register(KeepDearestTop.name)(lambda **_options: KeepDearestTop())
STRATEGIES.register(KeepDearestTopPriced.name)(lambda **_options: KeepDearestTopPriced())
COST_MODELS.register(RowCountModel.name)(RowCountModel)
COST_MODELS.register(ChildReadingModel.name)(ChildReadingModel)


def _both_engines(query, **config):
    return [
        optimize(query, config=OptimizerConfig(engine=engine, cache_capacity=None, **config))
        for engine in ("indexed", "reference")
    ]


class TestPluginSeams:
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_insert_only_strategy_and_docstring_cost_model(self, name, query):
        runs = {}
        for engine in ("indexed", "reference"):
            config = OptimizerConfig(
                strategy=KeepTwoCheapest.name, cost_model=RowCountModel.name,
                engine=engine, cache_capacity=None,
            )
            runs[engine] = optimize(query, config=config)
        indexed, reference = runs["indexed"], runs["reference"]
        assert indexed.cost == reference.cost
        assert indexed.plans_built == reference.plans_built
        assert indexed.table_sizes == reference.table_sizes
        # Nothing inside the DP table is priced away for a strategy that
        # admits everything; only the top-level keep-the-cheaper rule is.
        inner_built = indexed.plans_built - indexed.stats.get(
            "strategy.plans_priced_away", 0
        )
        assert indexed.stats["plans_constructed"] == inner_built

    def test_insert_top_only_strategy_sees_every_finished_plan(self):
        differs_from_h1 = 0
        for _name, query in QUERIES:
            indexed, reference = _both_engines(query, strategy=KeepDearestTop.name)
            assert indexed.cost == reference.cost
            assert indexed.plans_built == reference.plans_built
            assert indexed.table_sizes == reference.table_sizes
            assert indexed.stats["top_replacements"] == reference.stats["top_replacements"]
            differs_from_h1 += indexed.cost != optimize(query, "h1").cost
        assert differs_from_h1  # the override is what decided the top bucket

    def test_insert_top_and_its_pricing_twin_overridden_together(self):
        for _name, query in QUERIES:
            indexed, reference = _both_engines(query, strategy=KeepDearestTopPriced.name)
            unpriced = optimize(query, KeepDearestTop.name)
            assert indexed.cost == reference.cost == unpriced.cost
            assert indexed.plans_built == reference.plans_built
            # The twin prices finished plans away; the lone override cannot.
            assert indexed.stats["plans_constructed"] <= unpriced.stats["plans_constructed"]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_cost_model_reading_the_top_grouping_child(self, strategy):
        for _name, query in QUERIES[2:4] if strategy == "ea-all" else QUERIES[:6]:
            # Adds non-negative terms to Cout and inherits its ``monotone``:
            # EA-Prune is bounded under it and owes the restriction lemma.
            indexed = assert_engines_agree(
                query, strategy, cost_model=ChildReadingModel.name, context=(_name,)
            )
            assert ("ceiling.cost" in indexed.stats) == (
                strategy == "ea-prune" and len(query.relations) >= CEILING_MIN_RELATIONS
            )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_docstring_cost_model_under_builtin_strategies(self, strategy):
        # EA-All's reference run is seconds on the six-relation queries.
        for _name, query in QUERIES[2:4] if strategy == "ea-all" else QUERIES[:6]:
            # Declares nothing, so nothing is bounded: exact parity, EA-Prune
            # included, candidate counts and table sizes as before.
            indexed = assert_engines_agree(
                query, strategy, cost_model=RowCountModel.name, context=(_name,)
            )
            assert "ceiling.cost" not in indexed.stats


class TestNothingRunLocalRidesOnAPlan:
    #: ``len(pickle.dumps(replace(result, stats={}), HIGHEST_PROTOCOL))`` of
    #: EA-Prune on TPC-H Q5 at the parent commit (PR 12).  ``stats`` is left
    #: out because this PR adds counters to it.
    PARENT_Q5_RESULT_BYTES = 3708
    PARENT_Q5_PLAN_BYTES = 3392

    def test_pickled_q5_result_is_no_larger_than_at_the_parent(self):
        # Cold value memos, as the parent figure was taken: warm lru caches
        # hand out equal-but-distinct objects, which pickle cannot share
        # (+25–50 bytes at either commit).
        clear_memo_caches()
        result = optimize(build_q5(), "ea-prune")
        proto = pickle.HIGHEST_PROTOCOL
        assert len(pickle.dumps(replace(result, stats={}), proto)) <= self.PARENT_Q5_RESULT_BYTES
        assert len(pickle.dumps(result.plan, proto)) <= self.PARENT_Q5_PLAN_BYTES

    def test_memos_are_stripped_from_pickles(self):
        query = topology_query("star", 4)
        plans = []
        optimize(query, "ea-prune", hooks=OptimizerHooks(on_plan=plans.append))
        memoised = [p for p in plans if set(p.__dict__) - set(p.__dataclass_fields__)]
        assert any("_grouped" in p.__dict__ for p in memoised)
        assert any("_fd" in p.__dict__ for p in memoised)
        assert any("_raw_mask" in p.__dict__ for p in memoised)
        for plan in memoised:
            clone = pickle.loads(pickle.dumps(plan))
            assert set(clone.__dict__) == set(plan.__dataclass_fields__)
            assert clone == plan

    def test_snapshot_round_trip_still_serves_a_warm_hit(self, tmp_path):
        config = OptimizerConfig(strategy="ea-prune", cache_capacity=None)
        cache = PlanCache(capacity=8)
        cold = optimize(build_q5(), config=config, cache=cache)
        assert not cold.cache_hit
        path = tmp_path / "plans.snapshot"
        assert cache.save_snapshot(path, catalog_fingerprint="f" * 64) == 1

        restored = PlanCache(capacity=8)
        assert restored.load_snapshot(path, catalog_fingerprint="f" * 64) == 1
        warm = optimize(build_q5(), config=config, cache=restored)
        assert warm.cache_hit
        assert warm.cost == cold.cost
        assert restored.stats.hits == 1


class TestTheDeletedEngine:
    def test_vectorized_is_an_unknown_engine(self):
        query = topology_query("chain", 3)
        with pytest.raises(ValueError, match="unknown engine 'vectorized'"):
            optimize(query, "h1", engine="vectorized")
        with pytest.raises(ValueError, match="unknown engine 'vectorized'"):
            OptimizerConfig(engine="vectorized")
        with pytest.raises(TypeError):  # a server has no engine setting at all
            ServingConfig(engine="indexed")

    @pytest.mark.parametrize(
        "module, forbidden",
        [
            # The optimizer is a library first: importing it must not pull
            # in numpy (the deleted engine did: +13 MB and 0.1–0.2 s per
            # process), nor the serving stacks.
            ("repro.optimizer", ("numpy", "asyncio", "http")),
            # A shard worker serves frames over pipes: neither front's
            # event loop, HTTP stack or process pool belongs in it
            # (100 modules / 8 MB of RSS per shard when they were).
            (
                "repro.asyncserver.worker",
                ("asyncio", "http", "ssl", "email", "multiprocessing",
                 "repro.asyncserver.app", "repro.server.app", "repro.api"),
            ),
        ],
    )
    def test_imports_are_light(self, module, forbidden):
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; import {module}; "
            f"print(sorted(m for m in {forbidden!r} if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src, "PATH": ""},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
