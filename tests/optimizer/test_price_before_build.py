"""Price, file — build on read: the indexed DP constructs only the plans
a join reads.

The driver prices every OpTrees candidate (:meth:`PlanBuilder.price`),
files it *as priced* through :meth:`Strategy.insert` — which says whether
it kept it — and builds a bucket the first time a ccp reads it (a
finished plan for the full relation set is built only if it beats the
incumbent).  These tests pin the contract around that split:

* pricing and construction are one arithmetic (``join`` is price-then-
  construct; the priced ``finish_top`` cost equals the built one; an
  eager grouping is priced once per plan and built at most once, only
  when a built plan reads it),
* the bookkeeping adds up (``plans_built`` − priced away = *filed*; every
  filed candidate entered a bucket; every csg-cmp-pair is skipped for a
  side without plans, cut or resolved, ``strategy.pairs_without_plans``
  + ``strategy.pairs_cut`` + ``resolver.resolve_calls`` = ``ccp_count``;
  a variant the incumbent cut skips, counted in
  ``strategy.plans_cut``, is neither priced nor counted in
  ``plans_built``; ``on_plan`` fires once per materialised plan and
  never more often than candidates were filed; ``construct`` runs at
  most once per filed candidate, and every one it is asked for
  constructs; nothing priced escapes the run),
* the plug-in seams still hold: a strategy that defines only ``insert``
  and a cost model that defines only the three operator prices give the
  oracle's answers,
* nothing run-local (closure caches, the run's FD state) rides on a
  pickled plan, and no grouping memo rides on a plan at all,
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
from engine_oracle import UndeclaredCout, assert_engines_agree, was_cut
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
from repro.optimizer.planinfo import PlanInfo, PricedGroup, PricedJoin, clear_memo_caches
from repro.optimizer.costmodel import CoutModel
from repro.optimizer.driver import CEILING_MIN_RELATIONS
from repro.optimizer.edgeindex import EdgeResolver
from repro.optimizer.reference import optimize_reference
from repro.optimizer.strategies import EaPruneStrategy
from repro.service import PlanCache
from repro.service.batch import optimize_cached
from repro.service.config import ServingConfig
from repro.hypergraph.enumerate import enumerate_ccps
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
            query, prepared=prepared,
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

    def test_grouping_is_priced_once_per_plan_and_built_once_when_read(self):
        query = topology_query("chain", 3)
        builder = PlanBuilder(query)
        leaf = builder.leaf(1)
        grouped = builder.grouped(leaf)
        assert type(grouped) is PricedGroup and builder.grouped(leaf) is grouped
        g_plus = builder.needed_above(leaf.rel_set) & leaf.raw_attrs
        assert grouped.raw_attrs == g_plus and grouped.built is None
        spec = prepare(query).resolver().resolve(1, 2)
        left, right = (grouped, builder.leaf(0)) if spec.swap else (builder.leaf(0), grouped)
        priced = builder.price(left, right, spec.op, spec.predicate, spec.selectivity)
        assert priced.eagerness == 1 and grouped.built is None  # priced on, not built
        plan = builder.construct(priced)
        built = grouped.built
        assert built is not None and built.node.group_attrs == tuple(sorted(g_plus))
        assert built.node in plan.node.children()
        assert builder.construct(priced).node.children() == plan.node.children()
        assert grouped.built is built  # built once

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("name,query", QUERIES[:6], ids=[n for n, _ in QUERIES[:6]])
    def test_groupings_are_built_only_when_a_built_plan_reads_them(
        self, name, query, strategy, monkeypatch
    ):
        if (name, strategy) == ("q5", "ea-all"):
            pytest.skip("EA-All keeps 250k plans on Q5: seconds, and nothing new")
        priced_for, built = [], []
        price_group, construct_group = PlanBuilder._price_group, PlanBuilder.construct_group

        def pricing(builder, plan, group_attrs):
            priced_for.append((builder, plan))
            return price_group(builder, plan, group_attrs)

        def building(builder, grouping):
            fresh = grouping.built is None
            plan = construct_group(builder, grouping)
            if fresh:
                built.append((builder, plan))
            return plan

        monkeypatch.setattr(PlanBuilder, "_price_group", pricing)
        monkeypatch.setattr(PlanBuilder, "construct_group", building)
        seen = []
        optimize(
            query, config=OptimizerConfig(strategy=strategy),
            hooks=OptimizerHooks(on_plan=seen.append),
        )
        # Priced once per plan (``priced_for`` keeps the plans alive, so
        # their ids are theirs) ...
        assert len({(id(b), id(p)) for b, p in priced_for}) == len(priced_for)
        # ... built at most as often, and only as a child of a plan the DP
        # materialised (the main pass's builder is the last one made; an H1
        # pre-pass reports no plans).
        assert len(built) <= len(priced_for)
        nodes, stack = set(), [plan.node for plan in seen]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node.children())
        main = priced_for[-1][0] if priced_for else None
        assert all(id(plan.node) in nodes for builder, plan in built if builder is main)
        if strategy == "dphyp":
            assert not priced_for, "a strategy that explores no eager plan prices none"


def filed(result):
    """Candidates the run filed in its table: considered, not priced away."""
    return result.plans_built - result.stats.get("strategy.plans_priced_away", 0)


class TestBookkeeping:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_constructed_is_at_most_filed(self, name, query, strategy, monkeypatch):
        if (name, strategy) == ("q5", "ea-all"):
            pytest.skip("EA-All keeps 250k plans on Q5: seconds, and nothing new")
        made = {}  # builder → [(priced, plan)], in call order
        construct = PlanBuilder.construct

        def counted(builder, priced):
            plan = construct(builder, priced)
            made.setdefault(builder, []).append((priced, plan))
            return plan

        monkeypatch.setattr(PlanBuilder, "construct", counted)
        seen = []
        result = optimize(
            query, config=OptimizerConfig(strategy=strategy),
            hooks=OptimizerHooks(on_plan=seen.append),
        )
        stats = result.stats
        # on_plan: once per plan the DP materialised, never more than filed.
        assert stats["plans_constructed"] == len(seen) <= filed(result)
        # Every ccp was skipped for a side without plans, cut or resolved.
        assert stats.get("strategy.pairs_without_plans", 0) + stats.get(
            "strategy.pairs_cut", 0
        ) + stats["resolver.resolve_calls"] == result.ccp_count
        # Every bucket a ccp read was built; only the cut leaves one unread.
        read = {plan.rel_set for plan in seen}
        unread = sum(size for mask, size in result.table_sizes.items() if mask not in read)
        assert unread == 0 or was_cut(result)
        assert stats["plans_constructed"] >= sum(result.table_sizes.values()) - unread
        # Nothing priced escapes: the answer and every reported plan are built.
        assert type(result.plan) is PlanInfo
        assert all(type(plan) is PlanInfo for plan in seen)
        # construct runs at most once per candidate, on priced ones only —
        # in the run's own builder and in an H1 pre-pass's alike.
        for calls in made.values():
            assert len({id(priced) for priced, _ in calls}) == len(calls)
            assert all(type(priced) is PricedJoin for priced, _ in calls)
            assert all(type(plan) is PlanInfo for _, plan in calls)
        # The run's builder is the last to construct (a pre-pass finishes
        # first): leaves aside, every constructed plan is one call, and
        # every inner bucket read was built by exactly those calls.
        calls = list(made.values())[-1]
        assert len(calls) == stats["plans_constructed"] - len(query.relations)
        all_mask = query.all_relations_mask
        inner = [plan for _, plan in calls if plan.rel_set != all_mask]
        reported = [
            plan for plan in seen
            if plan.rel_set != all_mask and plan.rel_set & (plan.rel_set - 1)
        ]
        assert [id(plan) for plan in inner] == [id(plan) for plan in reported]

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_every_filed_candidate_entered_a_bucket(self, name, query, criteria):
        """A candidate counts as filed only when ``insert`` kept it (or,
        for the full relation set, when it beat the incumbent): it is in
        the table at the end unless a later one evicted it or displaced it
        at the top — priced or built, whichever it was then."""
        result = optimize(query, config=OptimizerConfig(strategy=EaPruneStrategy(criteria)))
        stats = result.stats
        assert filed(result) == (
            sum(result.table_sizes.values())
            + stats.get("strategy.plans_evicted", 0)
            + stats["top_replacements"]
        )
        assert stats["plans_constructed"] <= filed(result)
        # Inner candidates priced away are exactly the ones Def. 4 discards.
        assert stats.get("strategy.plans_priced_away", 0) >= stats.get(
            "strategy.plans_discarded", 0
        )

    @pytest.mark.parametrize("strategy", ["ea-prune", "h1", "h2"])
    def test_every_priced_candidate_constructs(self, strategy, monkeypatch):
        """Why evicting or displacing an unbuilt candidate is safe:
        ``price`` decides validity completely, so whatever it prices — the
        candidates a bucket keeps among them — would construct, with the
        numbers it was priced with."""
        priced_all = []
        price = PlanBuilder.price

        def recorded(builder, *args):
            priced = price(builder, *args)
            if priced is not None:
                priced_all.append(priced)
            return priced

        monkeypatch.setattr(PlanBuilder, "price", recorded)
        for _name, query in QUERIES[:6]:
            priced_all.clear()
            optimize(query, config=OptimizerConfig(strategy=strategy))
            assert priced_all
            for priced in priced_all:
                plan = priced.builder.construct(priced)
                assert (plan.cost, plan.cardinality, plan.eagerness) == (
                    priced.cost, priced.cardinality, priced.eagerness
                )
                assert (plan.keys, plan.equiv) == (priced.keys, priced.equiv)

    def test_reference_engine_builds_everything(self):
        query = build_q10()
        seen = []
        result = optimize_reference(query, hooks=OptimizerHooks(on_plan=seen.append))
        assert result.stats["plans_constructed"] == result.plans_built == len(seen)
        assert "strategy.plans_priced_away" not in result.stats
        # Without a ceiling the indexed engine sees the same finished plans
        # in the same order; under one it never finishes the dear ones.
        indexed = optimize(query, config=OptimizerConfig(
            cost_model=UndeclaredCout(), cache_capacity=None,
        ))
        assert indexed.stats["top_replacements"] == result.stats["top_replacements"]
        assert optimize(query).stats["top_replacements"] <= (
            result.stats["top_replacements"]
        )


# -- third-party plug-ins: only the pre-existing seams are implemented -------


class TestPairsWithoutPlans:
    """A csg-cmp-pair with a side whose bucket holds no plan (conflict
    rules left the set unbuildable, or nothing priced under the ceiling)
    is skipped before the incumbent cut and the resolver: the driver
    counts it in ``strategy.pairs_without_plans``, never in
    ``strategy.pairs_cut``."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_exactly_the_pairs_with_an_empty_side(self, strategy, monkeypatch):
        events = []
        resolve = EdgeResolver.resolve

        def recording(resolver, s1, s2):
            events.append(("resolve", s1, s2))
            return resolve(resolver, s1, s2)

        monkeypatch.setattr(EdgeResolver, "resolve", recording)
        hooks = OptimizerHooks(on_ccp=lambda s1, s2: events.append(("ccp", s1, s2)))
        met = 0
        for seed in range(40):
            n = 3 + seed % (3 if strategy == "ea-all" else 4)
            query = generate_query(n, random.Random(seed * 7919 + n))
            events.clear()
            result = optimize(query, config=OptimizerConfig(strategy=strategy), hooks=hooks)
            sizes, stats = result.table_sizes, result.stats

            def empty(s):
                return not sizes.get(s)

            # An independent drain of the enumerator.
            drained = list(enumerate_ccps(prepare(query).graph))
            without = sum(1 for s1, s2 in drained if empty(s1) or empty(s2))
            assert stats.get("strategy.pairs_without_plans", 0) == without, seed
            # An H1 pre-pass resolves before the main pass's first ccp.
            first = next(at for at, event in enumerate(events) if event[0] == "ccp")
            resolved = [(s1, s2) for kind, s1, s2 in events[first:] if kind == "resolve"]
            assert not any(empty(s1) or empty(s2) for s1, s2 in resolved), seed
            assert stats.get("strategy.pairs_cut", 0) == len(drained) - without - len(resolved)
            met += without > 0
        assert met


class KeepTwoCheapest(Strategy):
    """Defines ``insert`` only and reads only ``cost``, part of the priced
    surface it is handed."""

    name = "keep-two-cheapest-test"

    def insert(self, bucket, plan):
        bucket.append(plan)
        bucket.sort(key=lambda p: p.cost)  # stable: a tie stays behind
        return len(bucket) <= 2 or bucket.pop() is not plan


class RowCountModel(CostModel):
    """The ``c-rows`` model of :mod:`repro.optimizer.costmodel`'s docstring."""

    name = "c-rows-test"

    def scan(self, cardinality):
        return cardinality  # scans are not free here

    def join(self, op, output_cardinality, left, right):
        return output_cardinality

    def group(self, output_cardinality, child):
        return child.cardinality  # a grouping reads its input


class ChildReadingModel(CoutModel):
    """A ``group`` that reads the read-only surface a :class:`PlanInfo` and
    a :class:`PricedJoin` share beyond the numbers."""

    name = "child-reading-test"

    def group(self, output_cardinality, child):
        relations = bin(child.rel_set).count("1")
        return output_cardinality + relations + len(child.raw_attrs) + len(child.scale_cols)


STRATEGIES.register(KeepTwoCheapest.name)(lambda **_options: KeepTwoCheapest())
COST_MODELS.register(RowCountModel.name)(RowCountModel)
COST_MODELS.register(ChildReadingModel.name)(ChildReadingModel)


class TestPluginSeams:
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_insert_only_strategy_and_docstring_cost_model(self, name, query):
        runs, tops = {}, {}
        all_mask = query.all_relations_mask
        for engine in ("indexed", "reference"):
            config = OptimizerConfig(
                strategy=KeepTwoCheapest.name, cost_model=RowCountModel.name,
                cache_capacity=None,
            )
            seen = []
            run = optimize if engine == "indexed" else optimize_reference
            runs[engine] = run(query, config=config, hooks=OptimizerHooks(on_plan=seen.append))
            tops[engine] = sum(plan.rel_set == all_mask for plan in seen)
        indexed, reference = runs["indexed"], runs["reference"]
        assert indexed.cost == reference.cost
        assert indexed.plans_built == reference.plans_built
        assert indexed.table_sizes == reference.table_sizes
        # The reference engine builds every finished candidate, the indexed
        # one only those that beat the incumbent — the first and each
        # replacement, met in the same order.
        assert indexed.stats["top_replacements"] == reference.stats["top_replacements"]
        assert tops["indexed"] == indexed.stats["top_replacements"] + 1 <= tops["reference"]
        # Inner candidates are filed as priced and built when read: never
        # more than were filed, and fewer whenever one was displaced first.
        assert indexed.stats["plans_constructed"] <= filed(indexed)

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
        result = optimize(build_q5())
        proto = pickle.HIGHEST_PROTOCOL
        assert len(pickle.dumps(replace(result, stats={}), proto)) <= self.PARENT_Q5_RESULT_BYTES
        assert len(pickle.dumps(result.plan, proto)) <= self.PARENT_Q5_PLAN_BYTES

    def test_memos_are_stripped_from_pickles(self):
        query = topology_query("star", 4)
        plans = []
        optimize(query, hooks=OptimizerHooks(on_plan=plans.append))
        memoised = [p for p in plans if set(p.__dict__) - set(p.__dataclass_fields__)]
        # The plan → grouping memo is the builder's: no plan carries one.
        assert not any(
            isinstance(value, PricedGroup) for p in plans for value in p.__dict__.values()
        )
        assert any("_fd" in p.__dict__ for p in memoised)
        assert any("_raw_mask" in p.__dict__ for p in memoised)
        for plan in memoised:
            plan.rendered_json()  # the reply text a shard keeps beside the plan
            assert "_rendered_json" in plan.__dict__
            clone = pickle.loads(pickle.dumps(plan))
            assert set(clone.__dict__) == set(plan.__dataclass_fields__)
            assert clone == plan

    def test_snapshot_round_trip_still_serves_a_warm_hit(self, tmp_path):
        config = OptimizerConfig(strategy="ea-prune", cache_capacity=None)
        cache = PlanCache(capacity=8)
        cold = optimize_cached(prepare(build_q5()), cache, config)
        assert not cold.cache_hit
        path = tmp_path / "plans.snapshot"
        assert cache.save_snapshot(path, catalog_fingerprint="f" * 64) == 1

        restored = PlanCache(capacity=8)
        assert restored.load_snapshot(path, catalog_fingerprint="f" * 64) == 1
        warm = optimize_cached(prepare(build_q5()), restored, config)
        assert warm.cache_hit
        assert warm.cost == cold.cost
        assert restored.stats.hits == 1


class TestTheDeletedEngine:
    def test_vectorized_is_an_unknown_engine(self):
        query = topology_query("chain", 3)
        with pytest.raises(ValueError, match="unknown engine 'vectorized'"):
            optimize(query, config=OptimizerConfig(strategy="h1"), engine="vectorized")
        # The engine is a keyword of optimize() alone: no config has one.
        with pytest.raises(TypeError):
            OptimizerConfig(engine="indexed")
        with pytest.raises(TypeError):
            ServingConfig(engine="indexed")

    @pytest.mark.parametrize(
        "module, forbidden",
        [
            # The optimizer is a library first: importing it must not pull
            # in numpy (the deleted engine did: +13 MB and 0.1–0.2 s per
            # process), nor the serving stacks.
            ("repro.optimizer", ("numpy", "asyncio", "http")),
            # A shard worker serves frames over pipes: the front's
            # event loop, an HTTP stack or a process pool never belongs in it
            # (100 modules / 8 MB of RSS per shard when they were).
            (
                "repro.asyncserver.worker",
                ("asyncio", "http", "ssl", "email", "multiprocessing",
                 "repro.asyncserver.app", "repro.api"),
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


#: Everything the product runs for one planned statement, one /optimize and
#: one /batch, in a fresh interpreter; prints whether the oracle got loaded.
PRODUCT_RUN = """
import sys
import repro, repro.api, repro.service, repro.asyncserver
from repro.optimizer import optimize
from repro.service.config import ServingConfig
from repro.service.core import ServingCore, batch_queries
from repro.sql import Catalog, parse_query

SIX = (
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey "
    "JOIN supplier s ON s.s_nationkey = n.n_nationkey "
    "JOIN customer c ON c.c_nationkey = n.n_nationkey "
    "JOIN orders o ON o.o_custkey = c.c_custkey "
    "JOIN lineitem l ON l.l_orderkey = o.o_orderkey GROUP BY r.r_name"
)
TWO = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
query = parse_query(SIX, Catalog.from_tpch())
assert len(query.relations) == 6 and optimize(query).cost > 0
core = ServingCore(ServingConfig(cache_capacity=8))
assert core.optimize({"sql": SIX})["cost"] > 0
body = {"queries": [TWO, SIX]}
items = core.batch_items(body, enumerate(batch_queries(body)))
assert len(items) == 2 and not any("error" in item for item in items), items
print("repro.optimizer.reference" in sys.modules)
"""


class TestTheProductNeverLoadsTheOracle:
    def test_planning_and_serving_leave_the_oracle_unimported(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", PRODUCT_RUN],
            env={"PYTHONPATH": src, "PATH": ""},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
