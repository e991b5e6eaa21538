"""An eager grouping is priced, and built only when a built plan reads it.

``PlanBuilder.grouped`` answers a :class:`PricedGroup` — validity, cost,
cardinality, ``raw_attrs`` (G⁺), ``distinct``, the count column's name —
without decomposing a term or making a plan node, and ``construct``
builds it when it builds a join that reads it.  That is exact only if
pricing says what building the seed's way would have said.  So every
plan a DP materialises (``on_plan``) is grouped here, priced and built,
and held against :func:`seed_group`, the grouping step as it was written
before it was split: ``grouped`` is None exactly when the seed's is, and
every number, column name, the FD triple and the rendered plan agree —
and ``group()`` (price, then build) renders the seed's text too.

The plans come from mixed-operator generated queries (groupjoins whose F̂
is duplicate sensitive among them: the count column a grouping inside
their right subtree must carry), the TPC-H queries, and a hand-built
``count(DISTINCT …)`` query, whose groupings are mostly invalid.  Each
premise is met at least once: an invalid grouping, a count column that
is an existing term's (Sec. 3.1.1's dedupe), a new one, and one only a
groupjoin asks for.

And the split leaves no reference cycle: a plan never points at its
grouping, and a finished run leaves no plan, priced record or function
for the collector.
"""

import gc
import random
from types import FrameType

import pytest

from engine_oracle import UndeclaredCout
from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.transform import NotDecomposableError, decompose_call
from repro.aggregates.vector import AggItem, AggVector
from repro.cardinality.estimate import distinct_after, grouping_cardinality
from repro.optimizer import OptimizerConfig, OptimizerHooks, PlanBuilder, optimize
from repro.optimizer.planinfo import (
    PlanInfo,
    PricedGroup,
    PricedJoin,
    _minimal_keys,
    _restrict_equiv,
    _scale_call_cached,
)
from repro.plans.nodes import GroupByNode
from repro.plans.render import render_plan
from repro.query.spec import Query
from repro.sql import Catalog, parse_query
from repro.tpch.queries import TPCH_QUERIES
from repro.workload import generate_query, topology_query

DISTINCT_SQL = (
    "SELECT n.n_name, count(DISTINCT s.s_acctbal) AS d, sum(c.c_acctbal) AS x, "
    "count(*) AS cnt FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey "
    "JOIN customer c ON c.c_nationkey = n.n_nationkey GROUP BY n.n_name"
)


def seed_group(builder, plan, group_attrs, suffix):
    """``PlanBuilder.group`` as the seed wrote it, one step, with the
    ``#g`` suffix handed in instead of drawn."""
    g_plus = tuple(sorted(group_attrs))
    inner_items, new_terms, new_defaults = [], {}, {}
    for name, call in plan.terms.items():
        if call.decomposable and not (call.kind is AggKind.AVG):
            inner_name = f"{name}{suffix}"
            try:
                inner, outer = decompose_call(call, inner_name)
            except NotDecomposableError:
                return None
            inner_items.append(AggItem(inner_name, inner))
            new_terms[name] = outer
            new_defaults[inner_name] = builder.term_defaults[name]
        elif call.attributes() <= group_attrs:
            if not call.duplicate_agnostic:
                return None
            new_terms[name] = call
        else:
            return None
    count_name = None
    if builder._need_count(plan.rel_set):
        count_call = _scale_call_cached(AggCall(AggKind.COUNT_STAR), plan.scale_cols)
        for item in inner_items:
            if item.call == count_call:
                count_name = item.name
                break
        if count_name is None:
            count_name = f"#cnt{suffix}"
            inner_items.append(AggItem(count_name, count_call))
            new_defaults[count_name] = 1
    domain = distinct_after(g_plus, plan.distinct, plan.cardinality)
    cardinality = grouping_cardinality(plan.cardinality, domain)
    return PlanInfo(
        node=GroupByNode(group_attrs=g_plus, vector=AggVector(inner_items), child=plan.node),
        rel_set=plan.rel_set,
        cost=plan.cost + builder.cost_model.group(cardinality, plan),
        cardinality=cardinality,
        keys=_minimal_keys(
            (frozenset(g_plus),) + tuple(k for k in plan.keys if k <= group_attrs)
        ),
        duplicate_free=True,
        raw_attrs=frozenset(g_plus),
        distinct={a: plan.distinct.get(a, plan.cardinality) for a in g_plus},
        terms=new_terms,
        scale_cols=(count_name,) if count_name else (),
        defaults=new_defaults,
        eagerness=0,
        equiv=_restrict_equiv(plan.equiv, frozenset(g_plus)),
    )


NUMBERS = ("cost", "cardinality", "raw_attrs", "scale_cols", "duplicate_free", "keys", "equiv")


def _only_a_groupjoin_asks_for_a_count(builder, mask):
    """No aggregate outside *mask* is duplicate sensitive, yet the
    grouping needs a count column: a groupjoin's F̂ above it does."""
    return not any(
        source & ~mask and builder.original_calls[name].duplicate_sensitive
        for name, source in builder.term_sources.items()
    )


def check_groupings(query: Query, strategy="ea-prune") -> set:
    """Group every inner plan a DP run materialises, priced and built,
    against :func:`seed_group`; returns the premises met."""
    plans = []
    optimize(
        query,
        config=OptimizerConfig(strategy=strategy, cost_model=UndeclaredCout(), cache_capacity=None),
        hooks=OptimizerHooks(on_plan=plans.append),
    )
    builder = PlanBuilder(query)
    met = set()
    for plan in plans:
        if plan.rel_set == query.all_relations_mask:
            continue
        group_attrs = builder.needed_above(plan.rel_set) & plan.raw_attrs
        grouping = builder.grouped(plan)
        suffix = f"#g{builder._group_counter}"
        expected = seed_group(builder, plan, group_attrs, suffix)
        assert (grouping is None) == (expected is None), plan.node
        if grouping is None:
            met.add("invalid")
            continue
        assert type(grouping) is PricedGroup and grouping.suffix == suffix
        for field in NUMBERS:
            assert getattr(grouping, field) == getattr(expected, field), field
        assert grouping.distinct == expected.distinct
        if grouping.scale_cols:
            new = grouping.scale_cols[0] == f"#cnt{suffix}"
            met.add("new count" if new else "a term's count")
            if _only_a_groupjoin_asks_for_a_count(builder, plan.rel_set):
                met.add("groupjoin count")
        built = builder.construct_group(grouping)
        assert builder.construct_group(grouping) is built
        assert render_plan(built.node) == render_plan(expected.node)
        for field in NUMBERS + ("distinct", "terms", "defaults", "rel_set", "eagerness"):
            assert getattr(built, field) == getattr(expected, field), field
        # The built plan shares the record's objects: pickles do not grow.
        for field in ("keys", "equiv", "raw_attrs", "distinct"):
            assert getattr(built, field) is getattr(grouping, field), field
        # group() is the same step, price then build, under a new suffix.
        again = builder.group(plan, group_attrs)
        reference = seed_group(builder, plan, group_attrs, f"#g{builder._group_counter}")
        assert render_plan(again.node) == render_plan(reference.node)
        assert again.scale_cols == reference.scale_cols and again.terms == reference.terms
    return met


class TestPricedGroupingIsTheBuiltOne:
    def test_mixed_operator_queries(self):
        met = set()
        for seed in range(24):
            n = 3 + seed % 4
            met |= check_groupings(generate_query(n, random.Random(seed * 7919 + n)))
        assert {"invalid", "new count", "a term's count", "groupjoin count"} <= met

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_tpch(self, name):
        assert check_groupings(TPCH_QUERIES[name]())

    def test_a_count_distinct_query(self):
        query = parse_query(DISTINCT_SQL, Catalog.from_tpch())
        assert "invalid" in check_groupings(query, strategy="ea-all")

    def test_a_join_priced_on_a_grouping_counts_it_eager(self):
        query = topology_query("chain", 3)
        builder = PlanBuilder(query)
        leaves = [builder.leaf(v) for v in range(3)]
        priced = builder.price(
            builder.grouped(leaves[0]), builder.grouped(leaves[1]),
            query.edges[0].op, query.edges[0].predicate, query.edges[0].selectivity,
        )
        assert type(priced) is PricedJoin and priced.eagerness == 2
        assert builder.construct(priced).eagerness == 2


class TestNoCycleLeftBehind:
    """Nothing a run makes for its plans waits for the cyclic collector:
    no plan ↔ priced-grouping pair, no self-referencing closure."""

    @pytest.mark.parametrize("strategy", ["ea-prune", "h1"])
    def test_a_finished_run_leaves_no_plan_for_the_collector(self, strategy):
        query = TPCH_QUERIES["Q5"]()
        config = OptimizerConfig(strategy=strategy)
        optimize(query, config=config)  # warm the value memos
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            result = optimize(query, config=config)
            gc.collect()
            left = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            gc.enable()
        assert result.plan is not None
        assert not left & {"PlanInfo", "PricedGroup", "PricedJoin", "function", "cell"}, left

    def test_no_plan_points_at_its_grouping(self):
        query = topology_query("star", 5)
        builder = PlanBuilder(query)
        leaf = builder.leaf(1)
        grouping = builder.grouped(leaf)
        assert grouping.plan is leaf
        assert grouping not in leaf.__dict__.values()
        builder.construct_group(grouping)
        holders = [r for r in gc.get_referrers(grouping) if not isinstance(r, FrameType)]
        assert holders == [builder._groupings[id(leaf)]]  # the builder's memo alone


class TestNeededAboveOncePerSet:
    def test_the_builder_and_its_fd_table_share_one_memo(self, monkeypatch):
        asked = []
        needed_above = Query.needed_above

        def counted(query, mask):
            asked.append(mask)
            return needed_above(query, mask)

        monkeypatch.setattr(Query, "needed_above", counted)
        # Undeclared Cout: no H1 pre-pass, so one builder asks.
        config = OptimizerConfig(strategy="ea-prune", cost_model=UndeclaredCout())
        optimize(topology_query("star", 5), config=config)
        assert asked and len(asked) == len(set(asked))
