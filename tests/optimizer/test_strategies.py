"""Unit tests for the DP-table insertion strategies."""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import assert_engines_agree
from repro.optimizer import OptimizerConfig, OptimizerHooks, optimize
from repro.optimizer.costmodel import CoutModel
from repro.optimizer.driver import prepare
from repro.optimizer.planinfo import PlanBuilder, PlanInfo
from repro.optimizer.reference import SeedPruneStrategy, optimize_reference
from repro.optimizer.strategies import (
    DphypStrategy,
    EaAllStrategy,
    EaPruneStrategy,
    H1Strategy,
    H2Strategy,
    PruneBucket,
    SinglePlanStrategy,
    declared_threshold,
)
from repro.optimizer.registry import STRATEGIES
from repro.plans.nodes import ScanNode
from repro.tpch.queries import build_q5, build_q10
from repro.workload import generate_query, topology_query


def plan(cost, card=10.0, keys=(), dup_free=False, eagerness=0):
    return PlanInfo(
        node=ScanNode("r", ("r.a",)),
        rel_set=1,
        cost=cost,
        cardinality=card,
        keys=tuple(frozenset(k) for k in keys),
        duplicate_free=dup_free,
        raw_attrs=frozenset({"r.a"}),
        distinct={},
        terms={},
        scale_cols=(),
        defaults={},
        eagerness=eagerness,
    )


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("dphyp", DphypStrategy),
            ("ea-all", EaAllStrategy),
            ("ea-prune", EaPruneStrategy),
            ("h1", H1Strategy),
            ("h2", H2Strategy),
        ],
    )
    def test_make_strategy(self, name, cls):
        assert isinstance(STRATEGIES.create(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            STRATEGIES.create("magic")

    def test_h2_factor_validation(self):
        with pytest.raises(ValueError):
            H2Strategy(0.9)

    def test_h2_refuses_a_nan_factor(self):
        """NaN compares false both ways: an H2 holding it would never
        displace an incumbent, and its threshold would never cut."""
        nan = float("nan")
        with pytest.raises(ValueError, match="tolerance factor must be >= 1, got nan"):
            H2Strategy(nan)
        with pytest.raises(ValueError, match="tolerance factor"):
            STRATEGIES.create("h2", factor=nan)
        with pytest.raises(ValueError, match="tolerance factor"):
            OptimizerConfig(strategy="h2", factor=nan)
        assert H2Strategy(1.0).factor == 1.0

    def test_only_dphyp_is_lazy(self):
        assert not DphypStrategy().explore_eager
        for name in ("ea-all", "ea-prune", "h1", "h2"):
            assert STRATEGIES.create(name).explore_eager


class TestSinglePlanStrategies:
    @pytest.mark.parametrize("strategy", [DphypStrategy(), H1Strategy()])
    def test_keeps_cheapest(self, strategy):
        bucket = []
        strategy.insert(bucket, plan(10.0))
        strategy.insert(bucket, plan(5.0))
        strategy.insert(bucket, plan(7.0))
        assert len(bucket) == 1
        assert bucket[0].cost == 5.0


class TestEaAll:
    def test_keeps_everything(self):
        strategy = EaAllStrategy()
        bucket = []
        for cost in (10.0, 5.0, 7.0):
            strategy.insert(bucket, plan(cost))
        assert len(bucket) == 3


def _prune_bucket(strategy, *plans):
    """A fresh bucket of *strategy* holding *plans*."""
    bucket = strategy.new_bucket()
    for p in plans:
        strategy.insert(bucket, p)
    return bucket


class TestEaPrune:
    def test_dominated_new_plan_discarded(self):
        strategy = EaPruneStrategy()
        bucket = _prune_bucket(strategy, plan(5.0, card=5.0))
        strategy.insert(bucket, plan(10.0, card=10.0))
        assert len(bucket) == 1 and list(bucket)[0].cost == 5.0

    def test_dominated_old_plan_discarded(self):
        strategy = EaPruneStrategy()
        bucket = _prune_bucket(strategy, plan(10.0, card=10.0))
        strategy.insert(bucket, plan(5.0, card=5.0))
        assert len(bucket) == 1 and list(bucket)[0].cost == 5.0

    def test_incomparable_plans_coexist(self):
        strategy = EaPruneStrategy()
        bucket = _prune_bucket(strategy, plan(5.0, card=100.0))
        strategy.insert(bucket, plan(10.0, card=1.0))  # cheaper card, higher cost
        assert len(bucket) == 2

    def test_keys_block_domination(self):
        strategy = EaPruneStrategy()
        # The cheaper plan has no keys; the expensive one is duplicate-free
        # with a key — its FDs are strictly richer, so it must survive.
        bucket = _prune_bucket(strategy, plan(5.0, card=5.0))
        strategy.insert(bucket, plan(6.0, card=5.0, keys=[{"r.a"}], dup_free=True))
        assert len(bucket) == 2

    def test_finer_keys_dominate_coarser(self):
        strategy = EaPruneStrategy()
        bucket = _prune_bucket(strategy, plan(6.0, card=5.0, keys=[{"r.a", "r.b"}], dup_free=True))
        strategy.insert(bucket, plan(5.0, card=5.0, keys=[{"r.a"}], dup_free=True))
        assert len(bucket) == 1 and list(bucket)[0].cost == 5.0

    def test_duplicate_freeness_participates(self):
        strategy = EaPruneStrategy()
        bucket = _prune_bucket(strategy, plan(5.0, card=5.0, keys=[{"r.a"}], dup_free=False))
        strategy.insert(bucket, plan(6.0, card=5.0, keys=[{"r.a"}], dup_free=True))
        assert len(bucket) == 2


class TestH2:
    def test_equal_eagerness_plain_cost(self):
        strategy = H2Strategy(1.1)
        bucket = [plan(10.0, eagerness=1)]
        strategy.insert(bucket, plan(9.0, eagerness=1))
        assert bucket[0].cost == 9.0

    def test_more_eager_wins_within_tolerance(self):
        strategy = H2Strategy(1.1)
        bucket = [plan(10.0, eagerness=0)]
        strategy.insert(bucket, plan(10.5, eagerness=2))  # 10.5 < 1.1 * 10
        assert bucket[0].cost == 10.5

    def test_more_eager_loses_beyond_tolerance(self):
        strategy = H2Strategy(1.1)
        bucket = [plan(10.0, eagerness=0)]
        strategy.insert(bucket, plan(12.0, eagerness=2))
        assert bucket[0].cost == 10.0

    def test_less_eager_needs_clear_win(self):
        strategy = H2Strategy(1.1)
        bucket = [plan(10.0, eagerness=2)]
        strategy.insert(bucket, plan(9.5, eagerness=0))  # 1.1*9.5 > 10
        assert bucket[0].cost == 10.0
        strategy.insert(bucket, plan(9.0, eagerness=0))  # 1.1*9.0 < 10
        assert bucket[0].cost == 9.0


class TestPruneBucketMatchesSeedScan:
    """The Pareto-frontier bucket keeps exactly the seed scan's surviving
    plan *set* (dominance is a transitive preorder, so the maximal set is
    insertion-order independent; only iteration order may differ)."""

    def _random_plans(self, seed, count=120):
        import random

        rng = random.Random(seed)
        key_pool = [frozenset({f"k{i}"}) for i in range(3)]
        plans = []
        for _ in range(count):
            keys = tuple(k for k in key_pool if rng.random() < 0.4)
            plans.append(
                PlanInfo(
                    node=ScanNode("r", ("r.a",)),
                    rel_set=1,
                    cost=float(rng.randint(1, 12)),
                    cardinality=float(rng.randint(1, 12)),
                    keys=keys,
                    duplicate_free=rng.random() < 0.5,
                    raw_attrs=frozenset({"r.a"}),
                    distinct={},
                    terms={},
                    scale_cols=(),
                    defaults={},
                )
            )
        return plans

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    @pytest.mark.parametrize("seed", range(8))
    def test_surviving_sets_identical(self, criteria, seed):
        plans = self._random_plans(seed)
        ordered = EaPruneStrategy(criteria)
        scan = SeedPruneStrategy(criteria)
        fast_bucket = ordered.new_bucket()
        seed_bucket = scan.new_bucket()
        assert isinstance(seed_bucket, list) and not isinstance(
            seed_bucket, type(fast_bucket)
        )
        for p in plans:
            ordered.insert(fast_bucket, p)
            scan.insert(seed_bucket, p)
        fast = {(p.cost, p.cardinality, p.keys, p.duplicate_free) for p in fast_bucket}
        slow = {(p.cost, p.cardinality, p.keys, p.duplicate_free) for p in seed_bucket}
        assert fast == slow
        assert len(fast_bucket) == len(seed_bucket)

    def test_bucket_iterates_cost_sorted_within_signature(self):
        strategy = EaPruneStrategy()
        bucket = strategy.new_bucket()
        for cost, card in ((5.0, 1.0), (1.0, 5.0), (3.0, 3.0)):
            strategy.insert(bucket, plan(cost, card=card))
        costs = [p.cost for p in bucket]
        assert costs == sorted(costs)

    def test_counters_track_discards_and_evictions(self):
        strategy = EaPruneStrategy()
        bucket = strategy.new_bucket()
        strategy.insert(bucket, plan(5.0, card=5.0))
        strategy.insert(bucket, plan(6.0, card=6.0))  # dominated: discarded
        strategy.insert(bucket, plan(1.0, card=1.0))  # dominates: evicts 5.0
        assert strategy.counters["prune_inserts"] == 3
        assert strategy.counters["plans_discarded"] == 1
        assert strategy.counters["plans_evicted"] == 1
        assert len(bucket) == 1


# -- adversarial Pareto-bucket tests ----------------------------------------


def _base_plans():
    """Real leaves from a prepared query — the raw material the crafted
    cost/cardinality/key variants below derive from."""
    query = topology_query("chain", 4)
    prepared = prepare(query)
    builder = PlanBuilder(query, cost_model=CoutModel())
    return [builder.leaf(v) for v in range(4)]


def _variant(plan, cost, card, keys=None, duplicate_free=None):
    changes = {"cost": float(cost), "cardinality": float(card)}
    if keys is not None:
        changes["keys"] = keys
    if duplicate_free is not None:
        changes["duplicate_free"] = duplicate_free
    return dataclasses.replace(plan, **changes)


def _survivors(strategy_factory, plans):
    """Feed *plans* through a fresh bucket, return surviving (cost, card)
    multiset plus the survivor identity set."""
    strategy = strategy_factory()
    bucket = strategy.new_bucket()
    for plan in plans:
        strategy.insert(bucket, plan)
    if isinstance(bucket, list):
        survivors = list(bucket)
    else:
        survivors = [p for _sig, frontier in bucket.frontiers.items() for p in frontier[2]]
    return sorted((p.cost, p.cardinality) for p in survivors), set(map(id, survivors))


def _assert_ordered_matches_scan(criteria, plans):
    ordered = _survivors(lambda: EaPruneStrategy(criteria), plans)
    scan = _survivors(lambda: SeedPruneStrategy(criteria), plans)
    assert ordered == scan, criteria


class TestAdversarialPruneBuckets:
    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_exact_cost_ties(self, criteria):
        base = _base_plans()[0]
        plans = [
            _variant(base, 100.0, 50.0),
            _variant(base, 100.0, 50.0),  # exact duplicate: ties dominate
            _variant(base, 100.0, 40.0),
            _variant(base, 100.0, 60.0),
            _variant(base, 90.0, 50.0),
        ]
        _assert_ordered_matches_scan(criteria, plans)

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    def test_eviction_slices(self, criteria):
        base = _base_plans()[0]
        # An ascending staircase, then one plan dominating a contiguous
        # slice of it — the ordered bucket must evict exactly that slice.
        plans = [_variant(base, 10.0 + i, 100.0 - i) for i in range(8)]
        plans.append(_variant(base, 12.0, 10.0))  # dominates costs 12..17
        plans.append(_variant(base, 5.0, 200.0))  # incomparable, survives
        _assert_ordered_matches_scan(criteria, plans)

    def test_equal_fd_signatures_across_relations(self):
        # Same keys/equiv/duplicate-free triple on different relations:
        # signatures intern to one entry, so dominance applies across them.
        a, b = _base_plans()[:2]
        shared_keys = (frozenset({"k"}),)
        plans = [
            _variant(a, 10.0, 5.0, keys=shared_keys, duplicate_free=False),
            _variant(b, 10.0, 5.0, keys=shared_keys, duplicate_free=False),
            _variant(a, 8.0, 4.0, keys=shared_keys, duplicate_free=False),
        ]
        _assert_ordered_matches_scan("full", plans)

    def test_incomparable_fd_signatures_coexist(self):
        base = _base_plans()[0]
        keyed = _variant(base, 10.0, 5.0)
        keyless = _variant(base, 5.0, 3.0, keys=(), duplicate_free=False)
        _assert_ordered_matches_scan("full", [keyed, keyless])
        # The keyless plan is cheaper but offers no keys: under "full"
        # neither dominates, so both survive in both implementations.
        survivors, _ = _survivors(
            lambda: EaPruneStrategy("full"), [keyed, keyless]
        )
        assert survivors == [(5.0, 3.0), (10.0, 5.0)]

    @pytest.mark.parametrize("criteria", ["full", "cost-card", "cost-only"])
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_tie_heavy_sequences(self, criteria, seed):
        rng = random.Random(seed * 33 + 7)
        bases = _base_plans()
        key_pool = [None, (), (frozenset({"k"}),)]
        plans = []
        for _ in range(120):
            base = rng.choice(bases)
            # Tiny value pools force frequent exact ties in both axes.
            plans.append(
                _variant(
                    base,
                    rng.choice([10.0, 20.0, 30.0, 40.0]),
                    rng.choice([1.0, 2.0, 3.0]),
                    keys=rng.choice(key_pool),
                    duplicate_free=rng.random() < 0.3,
                )
            )
        _assert_ordered_matches_scan(criteria, plans)


# -- the insert verdict -------------------------------------------------------

#: Every built-in strategy, EA-Prune under each criteria, and the unordered
#: seed scan the oracle runs EA-Prune as.  H2 gets a factor wide
#: enough for the cost pool below to meet both of its branches.
VERDICT_STRATEGIES = {
    "dphyp": lambda: STRATEGIES.create("dphyp"),
    "h1": lambda: STRATEGIES.create("h1"),
    "h2": lambda: STRATEGIES.create("h2", factor=1.5),
    "ea-all": lambda: STRATEGIES.create("ea-all"),
    "ea-prune": lambda: EaPruneStrategy("full"),
    "ea-prune[cost-card]": lambda: EaPruneStrategy("cost-card"),
    "ea-prune[cost-only]": lambda: EaPruneStrategy("cost-only"),
    "ea-prune-unordered": lambda: SeedPruneStrategy(),
}


def _priced_pool():
    """Real priced candidates — what the indexed engine files — over every
    leaf pair of chain-4, plain and with either input grouped, so their FD
    states differ."""
    query = topology_query("chain", 4)
    resolver = prepare(query).resolver()
    builder = PlanBuilder(query, cost_model=CoutModel())
    leaves = [builder.leaf(v) for v in range(4)]
    pool = []
    for a in range(3):
        spec = resolver.resolve(1 << a, 2 << a)
        left, right = leaves[a], leaves[a + 1]
        if spec.swap:
            left, right = right, left
        args = (spec.op, spec.predicate, spec.selectivity, spec.groupjoin_vector)
        for lhs, rhs in ((left, right), (builder.grouped(left), right), (left, builder.grouped(right))):
            priced = builder.price(lhs, rhs, *args)
            if priced is not None:
                pool.append(priced)
    return pool


def _candidates(rng, kind, count):
    """*count* distinct candidates of one kind, from tiny value pools so
    that cost and cardinality ties are frequent."""
    costs, cards, eagerness = [10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0], [0, 1, 2]
    if kind == "priced":
        pool = _priced_pool()
        out = []
        for _ in range(count):
            candidate = copy.copy(rng.choice(pool))
            candidate.cost = rng.choice(costs)
            candidate.cardinality = rng.choice(cards)
            candidate.eagerness = rng.choice(eagerness)
            out.append(candidate)
        return out
    bases = _base_plans()
    key_pool = [None, (), (frozenset({"k"}),)]
    return [
        dataclasses.replace(
            _variant(
                rng.choice(bases), rng.choice(costs), rng.choice(cards),
                keys=rng.choice(key_pool), duplicate_free=rng.random() < 0.3,
            ),
            eagerness=rng.choice(eagerness),
        )
        for _ in range(count)
    ]


def _check_verdicts(name, kind, seed, count):
    """Feed one seeded sequence to each bucket kind the strategy meets —
    its own and a plain list — and check every verdict.  EA-Prune meets a
    plain list only in the oracle, as the seed scan.  Returns the verdicts
    per bucket kind."""
    rng = random.Random(seed * 7919 + len(name))
    candidates = _candidates(rng, kind, count)
    verdicts = {}
    for bucket_kind in ("own", "list"):
        strategy = VERDICT_STRATEGIES[name]()
        if bucket_kind == "list" and isinstance(strategy, EaPruneStrategy):
            # Priced candidates come from a DP run, whose buckets project
            # FD states onto the query's R(S); the oracle needs the query.
            query = topology_query("chain", 4) if kind == "priced" else None
            strategy = SeedPruneStrategy(strategy.criteria, query)
        bucket = strategy.new_bucket() if bucket_kind == "own" else []
        counters = getattr(strategy, "counters", None)
        seen = []
        for candidate in candidates:
            before = [id(p) for p in bucket]
            inserts = counters["prune_inserts"] if counters is not None else 0
            kept = strategy.insert(bucket, candidate)
            after = [id(p) for p in bucket]
            context = (name, kind, seed, bucket_kind, len(seen))
            assert type(kept) is bool, context
            # False <=> the bucket's plans and their order are unchanged.
            assert (not kept) == (after == before), context
            # True <=> the candidate is in the bucket afterwards.
            assert kept == (id(candidate) in after), context
            assert len(bucket) == len(after), context
            if counters is not None:
                assert counters["prune_inserts"] == inserts + 1, context
            seen.append(kept)
        verdicts[type(bucket)] = seen
    return verdicts


def _assert_verdict_contract(name, kind, seeds, count):
    for seed in seeds:
        verdicts = _check_verdicts(name, kind, seed, count)
        if PruneBucket in verdicts:
            # The ordered bucket and the seed's scan keep the same set, so
            # they discard the same candidates.
            assert verdicts[PruneBucket] == verdicts[list], (name, kind, seed)


class TestInsertVerdict:
    """``Strategy.insert`` returns whether it kept the candidate; the driver
    counts ``strategy.plans_priced_away`` from that alone."""

    @pytest.mark.parametrize("kind", ["built", "priced"])
    @pytest.mark.parametrize("name", sorted(VERDICT_STRATEGIES))
    def test_insert_verdict(self, name, kind):
        _assert_verdict_contract(name, kind, range(4), 60)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["built", "priced"])
    @pytest.mark.parametrize("name", sorted(VERDICT_STRATEGIES))
    def test_insert_verdict_exhaustive(self, name, kind):
        _assert_verdict_contract(name, kind, range(200), 150)


# -- the incumbent's threshold ------------------------------------------------

#: Costs as floats come: zero, subnormals, the normal range's ends, ~1e300
#: (where F · cost overflows to inf), inf itself.
COSTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, math.inf]),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308),
)
EAGERNESS = st.integers(min_value=0, max_value=2)

THRESHOLD_STRATEGIES = {
    "dphyp": DphypStrategy(),
    "h1": H1Strategy(),
    "h2-1.0": H2Strategy(1.0),
    "h2-1.03": H2Strategy(1.03),
    "h2-1e6": H2Strategy(1e6),
}


class FewerRowsWins(SinglePlanStrategy):
    """A plug-in that changes the rule — the lower cardinality wins — and
    says nothing about a threshold: it must not inherit the cost one."""

    name = "fewer-rows-wins-test"

    def _beats(self, new, old):
        return new.cardinality < old.cardinality


STRATEGIES.register(FewerRowsWins.name)(lambda **_options: FewerRowsWins())


class TestThreshold:
    """Why the driver may skip a candidate whose inputs already cost the
    incumbent's threshold: such a candidate never ``_beats`` the
    incumbent, in floats, and its own cost is at least its inputs'."""

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(THRESHOLD_STRATEGIES)),
        old_cost=COSTS, new_cost=COSTS, old_eager=EAGERNESS, new_eager=EAGERNESS,
    )
    def test_threshold_refuses_what_beats_would(
        self, name, old_cost, new_cost, old_eager, new_eager
    ):
        strategy = THRESHOLD_STRATEGIES[name]
        old = plan(old_cost, eagerness=old_eager)
        limit = strategy.threshold(old)
        # The drawn cost, and the costs nearest the threshold from above.
        for cost in (new_cost, limit, math.nextafter(limit, math.inf), limit + new_cost):
            if cost >= limit:
                assert not strategy._beats(plan(cost, eagerness=new_eager), old), cost

    @settings(max_examples=400, deadline=None)
    @given(left=COSTS, right=COSTS, more_left=COSTS, more_right=COSTS, join=COSTS)
    def test_threshold_premise_a_join_costs_its_inputs(
        self, left, right, more_left, more_right, join
    ):
        """``price`` adds ``left.cost + right.cost + join``: never below the
        inputs' sum, and dearer inputs (a grouped variant, another plan of
        the bucket) never make the sum smaller than the bucket floors'."""
        assert left + right + join >= left + right
        assert (left + more_left) + (right + more_right) >= left + right

    def test_threshold_is_declared_not_inherited(self):
        for strategy in THRESHOLD_STRATEGIES.values():
            assert declared_threshold(strategy) == strategy.threshold
        for strategy in (FewerRowsWins(), EaPruneStrategy(), EaAllStrategy()):
            assert declared_threshold(strategy) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_undeclared_threshold_keeps_oracle_parity(self, seed, monkeypatch):
        """The plug-in's inner buckets are never cut: beside the answer and
        the table, the candidates it counts below the full relation set
        are the oracle's, one for one.  (The full set is the driver's
        own keep-the-cheaper, cut under every strategy.)"""
        queries = [build_q5(), build_q10(), topology_query("clique", 5)]
        queries += [generate_query(random.Random(seed).randint(3, 6), random.Random(seed))]
        top_cost = PlanBuilder.top_cost
        top_priced = []

        def counted(builder, candidate):
            top_priced.append(1)
            return top_cost(builder, candidate)

        for query in queries:
            indexed = assert_engines_agree(query, FewerRowsWins.name, context=(seed,))
            assert "strategy.plans_above_ceiling" not in indexed.stats
            all_mask = query.all_relations_mask
            config = OptimizerConfig(strategy=FewerRowsWins.name, cache_capacity=None)
            reference_tops = []
            reference = optimize_reference(query, config=config, hooks=OptimizerHooks(
                on_plan=lambda p: reference_tops.append(1) if p.rel_set == all_mask else None
            ))
            top_priced.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PlanBuilder, "top_cost", counted)
                again = optimize(query, config=config)
            assert again.plans_built == indexed.plans_built
            assert indexed.plans_built - len(top_priced) == (
                reference.plans_built - len(reference_tops)
            )

