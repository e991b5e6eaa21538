"""FD states == FD sets: the interned, mask-based functional-dependency
bookkeeping of the DP against the frozenset arithmetic it replaced
(``PlanInfo.has_key_within``, ``_merge_equiv`` and the oracle's
``_join_keys``, ``_projected_fd`` and ``_fd_superset`` in
:mod:`repro.optimizer.reference`).

For every plan a DP run materialises (``OptimizerHooks.on_plan``):

* its triple ``(keys, equiv, duplicate_free)`` — and the :class:`FdState`
  riding on it, sets and masks — is what the frozenset path derives from
  the plan's two inputs (``equiv`` compared as a set of classes: a state
  spells it in the order of the first derivation that reached it).  Under
  EA-Prune the DP derives it when the plan is built; under DPhyp, H1 and
  H2 most plans are built with it *pending* and derive it when read
  (here, after the run): late must equal early,
* inside a DP-table entry for relation set S, each state projected onto
  R(S) (``FdTable.project`` over masks) is the oracle's projection of the
  plan's triple onto ``query.needed_above(S)`` (frozensets), and for the
  ordered pairs of distinct states ``projected_a.dominates(projected_b)
  == _fd_superset(oracle_a, oracle_b)`` (sampled in tier-1, every pair
  under ``--runslow``),
* the run's cost, ccp count and candidate count are the pinned goldens,
  and EA-Prune's work counters are literals: without a ceiling (a cost
  model that does not declare ``monotone``) and under H1's cost as a
  ceiling, both measured when the FD clause began comparing projected
  states.

Plus the identity trap (memos keyed on predicate identity while the
oracle's resolver makes a fresh conjunction per csg-cmp-pair), the
pending triple's premises (the oracle never defers; a pending plan is its
derived twin to every reader; a derivation as deep as a plan is tall
needs no recursion) and the lifetime of the per-run table.
"""

import gc
import pickle
import random
import sys
import time
import weakref
from dataclasses import replace

import pytest

from engine_oracle import UndeclaredCout
from repro.algebra.expressions import attrs_of
from repro.optimizer import OptimizerConfig, OptimizerHooks, PlanBuilder, optimize, prepare
from repro.optimizer import planinfo, strategies
from repro.optimizer.planinfo import (
    _LEFT_ONLY,
    FdState,
    _equality_pairs,
    _merge_equiv,
    _minimal_keys,
    _restrict_equiv,
)
from repro.optimizer.reference import (
    SeedPlanBuilder,
    SeedPruneStrategy,
    _fd_superset,
    _join_keys,
    _projected_fd,
    _resolve_edge,
    optimize_reference,
)
from repro.optimizer.strategies import EaPruneStrategy
from repro.plans.nodes import GroupByNode, JoinNode
from repro.rewrites.pushdown import OpKind
from repro.service import PlanCache
from repro.service.batch import optimize_cached
from repro.tpch.queries import build_ex, build_q3, build_q5, build_q10
from repro.workload import generate_query, topology_query

TPCH = {"ex": build_ex, "q3": build_q3, "q5": build_q5, "q10": build_q10}

#: (cost, ccp count, plans built) of EA-Prune, as pinned by
#: ``test_hotpath_golden.TPCH_GOLDEN`` (copied: the literals of one suite
#: should not move with another's).  Plans built re-pinned twice.  First
#: the run became bounded by H1's cost and stopped counting what lies
#: above it (48 / 4018 / 204 before; Q3's three relations are planned
#: without the pre-pass and kept their 31).  Then the incumbent cut
#: stopped pricing finished plans whose inputs already cost the full
#: set's incumbent (31 / 97 / 40 before, Q3 / Q5 / Q10).  Then the FD
#: clause began comparing states projected onto what a completion can read
#: (55 / 39 before, Q5 / Q10).  Cost and ccps are the seed's.
TPCH_EA_PRUNE = {
    "ex": (149.6511565806907, 10, 22),
    "q3": (373657.61567229626, 4, 15),
    "q5": (238439.60164483933, 68, 45),
    "q10": (131728.57461675355, 10, 40),
}

#: EA-Prune without a ceiling: plans built, dominance checks, plans
#: discarded, plans evicted.  Measured when the FD clause began comparing
#: projected states; before, from ``a0f99b6`` on, they were
#: (59897, 364241, 25625, 3278) on chain-9 and (55868, 49497, 34741, 7847)
#: on star-8.
PARENT_COUNTERS = {
    ("chain", 9): (8361, 8968, 4134, 748),
    ("star", 8): (7176, 7728, 5523, 882),
}

#: The same four under H1's cost as a ceiling (PR 24), and how many
#: OpTrees variants the ceiling dropped.  Every bucket is the unbounded
#: bucket restricted to ``cost <= ceiling`` (``engine_oracle.py``), so
#: these fall because there is less to compare, not because Def. 4 moved.
#: Chain-9's plans built and variants above the ceiling fell again with
#: the incumbent cut, which skips full-set candidates before the ceiling
#: sees them (17870 and 9199 before); the Def. 4 counters did not move.
#: All of them fell with the projected FD clause, from
#: ((9663, 88792, 5255, 1265), 5764) on chain-9 and
#: ((18362, 18984, 11158, 3304), 23058) on star-8.
BOUNDED_COUNTERS = {
    ("chain", 9): ((5021, 7139, 3341, 713), 846),
    ("star", 8): ((4327, 5061, 3262, 616), 1785),
}


#: Ordered pairs compared per DP-table entry in tier-1.
PAIR_SAMPLE = 150

#: Random-matrix seeds whose EA-Prune run builds 25k–85k candidates (a
#: second or more each): ``--runslow`` only.
HEAVY_SEEDS = (6, 9, 12, 27, 33, 35, 37)


def _random_matrix_query(seed):
    """``test_engine_differential._random_query(seed, max_relations=12)``."""
    rng = random.Random(seed)
    return generate_query(rng.randint(3, 12), rng)


#: The strategies that file by cost alone and so build most plans with
#: their FD triple pending.
SINGLE_PLAN = ("dphyp", "h1", "h2")


def _collect(query, engine="indexed", strategy="ea-prune", was_pending=None):
    """Every inner plan a run materialises (EA-Prune: every one it offers
    its DP table) — an *unbounded* run: a ceiling would keep most of the
    states this suite is about from ever being built (TPC-H Q5: 97
    candidates, not 4,018).  *was_pending*, a list, gets for each inner
    plan whether it was pending when the run reported it."""
    plans = []
    all_mask = query.all_relations_mask

    def on_plan(plan):
        if plan.rel_set != all_mask:
            plans.append(plan)
            if was_pending is not None:
                was_pending.append(_pending(plan))

    config = OptimizerConfig(
        strategy=strategy, cost_model=UndeclaredCout(), cache_capacity=None
    )
    run = optimize if engine == "indexed" else optimize_reference
    result = run(query, config=config, hooks=OptimizerHooks(on_plan=on_plan))
    return result, plans


def _pending(plan):
    """Whether *plan* was built with its FD triple pending and nothing has
    read it yet (looks at the instance dictionary only: reads nothing)."""
    return "_pending" in plan.__dict__


def _grouped_input(child, node):
    """What ``PlanBuilder.group`` makes of *child*'s FD triple."""
    group_attrs = frozenset(node.group_attrs)
    return replace(
        child,
        keys=_minimal_keys(
            (group_attrs,) + tuple(k for k in child.keys if k <= group_attrs)
        ),
        duplicate_free=True,
        raw_attrs=group_attrs,
        equiv=_restrict_equiv(child.equiv, group_attrs),
    )


def _derived_triple(plan, by_node):
    """The plan's triple, by the frozenset path, from its two inputs."""
    node = plan.node
    sides = []
    for child in (node.left, node.right):
        if id(child) in by_node:
            sides.append(by_node[id(child)])
        else:  # an eager grouping: Γ over a plan the DP table holds
            assert isinstance(child, GroupByNode)
            sides.append(_grouped_input(by_node[id(child.child)], child))
    left, right = sides
    keys = _join_keys(node.op, left, right, attrs_of(node.predicate))
    if node.op in _LEFT_ONLY:
        return keys, frozenset(left.equiv), left.duplicate_free
    equiv = left.equiv + right.equiv
    if node.op is OpKind.INNER:
        equiv = _merge_equiv(equiv, _equality_pairs(node.predicate))
    return keys, frozenset(equiv), left.duplicate_free and right.duplicate_free


def _decode(table, mask):
    return frozenset(attr for attr, bit in table.attr_bit.items() if bit & mask)


def assert_states_carry_the_derived_triples(plans):
    """Check (a); returns how many join plans were checked."""
    by_node = {id(plan.node): plan for plan in plans}
    checked, states = 0, set()
    for plan in plans:
        if not isinstance(plan.node, JoinNode):
            continue
        keys, equiv, duplicate_free = _derived_triple(plan, by_node)
        assert plan.keys == keys
        assert frozenset(plan.equiv) == equiv
        assert plan.duplicate_free == duplicate_free
        state = plan.__dict__["_fd"]
        assert isinstance(state, FdState)
        assert (state.keys, state.equiv, state.duplicate_free) == (
            plan.keys, plan.equiv, plan.duplicate_free,
        )
        states.add(state)
        checked += 1
    for state in states:
        table = state.table
        assert tuple(_decode(table, m) for m in state.key_masks) == state.keys
        assert tuple(_decode(table, m) for m in state.class_masks) == state.equiv
    return checked


def assert_dominance_agrees(query, plans, state_of, sample=None):
    """Check (b) over the ordered pairs of every DP-table entry.  Both
    sides read the triple alone, and plans sharing a state share the
    triple (check (a)), so one plan per state stands for all of them."""
    buckets = {}
    for plan in plans:
        buckets.setdefault(plan.rel_set, {}).setdefault(state_of(plan), plan)
    rng = random.Random(0)
    for rel_set, bucket in buckets.items():
        (table,) = {state.table for state in bucket}
        reads, needed = table.reads(rel_set), query.needed_above(rel_set)
        assert table.attrs(reads) == needed
        projected = {}
        for state, plan in bucket.items():
            ours = state.projected(reads)
            theirs = _projected_fd(plan.duplicate_free, plan.keys, plan.equiv, needed)
            assert (ours.duplicate_free, set(ours.keys), set(ours.equiv)) == (
                theirs.duplicate_free, set(theirs.keys), set(theirs.equiv),
            )
            projected[state] = (ours, theirs)
        pairs = [(a, b) for a in projected.values() for b in projected.values()]
        if sample is not None and len(pairs) > sample:
            pairs = rng.sample(pairs, sample)
        for (ours_a, theirs_a), (ours_b, theirs_b) in pairs:
            assert ours_a.dominates(ours_b) == _fd_superset(theirs_a, theirs_b)


def _pruning_work(result):
    stats = result.stats
    return (
        result.plans_built,
        stats["strategy.dominance_checks"],
        stats["strategy.plans_discarded"],
        stats["strategy.plans_evicted"],
    )


def _check_run(query, sample, golden=None, strategy="ea-prune"):
    was_pending = []
    result, plans = _collect(query, strategy=strategy, was_pending=was_pending)
    assert "ceiling.cost" not in result.stats
    if golden is not None:
        bounded = optimize(query)
        assert (bounded.cost, bounded.ccp_count, bounded.plans_built) == golden
        assert (result.cost, result.ccp_count) == golden[:2]
    # EA-Prune's insert reads every candidate's state, so its plans are
    # built derived; a single-plan strategy's are built pending, and the
    # check below reads those the run did not.
    pending = sum(was_pending)
    assert pending == (0 if strategy == "ea-prune" else len(plans) - len(query.relations))
    assert_states_carry_the_derived_triples(plans)
    # Leaves carry no state until something joins them: intern those in
    # the table the run's other plans share.
    tables = {p.__dict__["_fd"].table for p in plans if "_fd" in p.__dict__}
    assert len(tables) <= 1

    def state_of(plan):
        state = plan.__dict__.get("_fd")
        if state is None:
            (table,) = tables
            state = table.intern(plan.duplicate_free, plan.keys, plan.equiv)
        return state

    if tables:
        assert_dominance_agrees(query, plans, state_of, sample=sample)


class TestStatesAreTheSets:
    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    def test_topologies(self, topology):
        _check_run(topology_query(topology, 6), PAIR_SAMPLE)

    @pytest.mark.parametrize("name", sorted(TPCH))
    def test_tpch(self, name):
        _check_run(TPCH[name](), PAIR_SAMPLE, golden=TPCH_EA_PRUNE[name])

    @pytest.mark.parametrize("seed", [s for s in range(40) if s not in HEAVY_SEEDS])
    def test_random_matrix_seeds(self, seed):
        _check_run(_random_matrix_query(seed), PAIR_SAMPLE)

    @pytest.mark.parametrize("strategy", SINGLE_PLAN)
    @pytest.mark.parametrize(
        "name", ["chain", "cycle", "star", "clique"] + [f"tpch-{t}" for t in sorted(TPCH)]
    )
    def test_pending_triples_single_plan(self, name, strategy):
        query = TPCH[name[5:]]() if name.startswith("tpch-") else topology_query(name, 6)
        _check_run(query, PAIR_SAMPLE, strategy=strategy)

    @pytest.mark.parametrize("strategy", SINGLE_PLAN)
    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_pending_triples_random_matrix_seeds(self, seed, strategy):
        _check_run(_random_matrix_query(seed), PAIR_SAMPLE, strategy=strategy)

    @pytest.mark.parametrize("topology,n", sorted(PARENT_COUNTERS))
    def test_pruning_work_is_the_parents(self, topology, n):
        query = topology_query(topology, n)
        unbounded = optimize(
            query, config=OptimizerConfig(cost_model=UndeclaredCout(), cache_capacity=None)
        )
        assert "ceiling.cost" not in unbounded.stats
        assert _pruning_work(unbounded) == PARENT_COUNTERS[(topology, n)]
        bounded = optimize(query)
        work, above_ceiling = BOUNDED_COUNTERS[(topology, n)]
        assert _pruning_work(bounded) == work
        assert bounded.stats["strategy.plans_above_ceiling"] == above_ceiling
        assert (bounded.cost, bounded.ccp_count) == (unbounded.cost, unbounded.ccp_count)


@pytest.mark.slow
class TestStatesAreTheSetsExhaustively:
    """Every ordered pair of every DP-table entry."""

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    def test_fd_state_topologies(self, topology):
        _check_run(topology_query(topology, 7 if topology != "clique" else 6), None)

    @pytest.mark.parametrize("name", sorted(TPCH))
    def test_fd_state_tpch(self, name):
        _check_run(TPCH[name](), None, golden=TPCH_EA_PRUNE[name])

    @pytest.mark.parametrize("seed", range(40))
    def test_fd_state_random_matrix(self, seed):
        _check_run(_random_matrix_query(seed), None)

    @pytest.mark.parametrize("strategy", SINGLE_PLAN)
    @pytest.mark.parametrize("seed", range(40))
    def test_pending_fd_state_random_matrix(self, seed, strategy):
        _check_run(_random_matrix_query(seed), None, strategy=strategy)


class TestPredicateIdentityTrap:
    """The transition memo and the FD table's per-predicate memo key on
    ``id(predicate)``.  A multi-edge csg-cmp-pair of a cyclic query gets a
    fresh ``conjunction(...)`` from the oracle's resolver every time, so
    within one run a dead predicate's ``id`` comes back on a different
    one; an entry that did not hold its predicate would answer for it."""

    @pytest.mark.parametrize("topology,n", [("cycle", 6), ("clique", 5)])
    @pytest.mark.parametrize("engine", ["indexed", "reference"])
    def test_every_built_plan_has_the_derived_triple(self, topology, n, engine):
        _, plans = _collect(topology_query(topology, n), engine=engine)
        assert assert_states_carry_the_derived_triples(plans) > 50

    @pytest.mark.parametrize("topology,n", [("cycle", 6), ("clique", 5)])
    @pytest.mark.parametrize("memo", [True, False])
    def test_fresh_predicates_through_one_builder(self, topology, n, memo):
        query = topology_query(topology, n)
        annotated = prepare(query).annotated
        _, plans = _collect(query)
        by_set = {}
        for plan in plans:
            by_set.setdefault(plan.rel_set, []).append(plan)
        by_node = {id(p.node): p for p in plans}
        # The product's builder memoises per predicate; the oracle's does not.
        builder = (PlanBuilder if memo else SeedPlanBuilder)(query)
        ids, resolved, checked = set(), 0, 0
        for left_set, lefts in sorted(by_set.items()):
            for right_set, rights in sorted(by_set.items()):
                if left_set & right_set or (left_set | right_set) == query.all_relations_mask:
                    continue
                for left in lefts[:4]:
                    for right in rights[:4]:
                        # One resolution — one conjunction — per plan pair;
                        # it and the plan die before the next is made.
                        spec = _resolve_edge(annotated, query, left_set, right_set)
                        if spec is None or spec.swap:
                            continue
                        resolved += 1
                        ids.add(id(spec.predicate))
                        plan = builder.join(
                            left, right, spec.op, spec.predicate, spec.selectivity,
                            spec.groupjoin_vector,
                        )
                        if plan is None:
                            continue
                        keys, equiv, duplicate_free = _derived_triple(plan, by_node)
                        assert (plan.keys, frozenset(plan.equiv), plan.duplicate_free) == (
                            keys, equiv, duplicate_free,
                        )
                        checked += 1
        assert checked > 100
        if not memo:
            # Nothing held the conjunctions, and their ids did come back.
            assert len(ids) < resolved


class TestPendingTriples:
    """A join built from a priced record nobody asked for its state carries
    its FD triple pending (``PlanBuilder.construct``) until something reads
    it.  The premises that makes safe, each against its definition."""

    STRATEGIES = ("dphyp", "h1", "h2", "ea-prune", "ea-all")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_oracle_never_defers(self, strategy):
        # Its triples are the set arithmetic's, derived as each plan is
        # built: a pending one would be derived through the product's
        # transition instead, and the differential would compare the
        # product with itself.
        query = build_q5() if strategy != "ea-all" else topology_query("cycle", 4)
        reported = []
        optimize_reference(
            query,
            config=OptimizerConfig(strategy=strategy, cache_capacity=None),
            hooks=OptimizerHooks(on_plan=lambda plan: reported.append(_pending(plan))),
        )
        assert len(reported) > 20 and not any(reported)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_pending_plan_is_its_derived_twin(self, strategy, monkeypatch):
        readers = {
            "pickle": lambda plan: pickle.dumps(plan, pickle.HIGHEST_PROTOCOL),
            "eq": lambda plan: plan,
            "hash": _hash_or_error,
            "replace": lambda plan: replace(plan, cost=-1.0),
            "rendered": lambda plan: plan.rendered(),
            "repr": repr,
            # Each alone, before anything else derives the triple.
            "keys": lambda plan: plan.keys,
            "equiv": lambda plan: plan.equiv,
            "closure": lambda plan: plan.closure(plan.raw_attrs),
            "has_key_within": lambda plan: plan.has_key_within(plan.raw_attrs),
        }
        twins = []
        construct = PlanBuilder.construct

        def with_twins(builder, priced):
            plan = construct(builder, priced)
            if _pending(plan):
                # One pending copy per reader (each reader derives its
                # copy), then the record's state is read and the plan is
                # built as a record somebody asked is.
                copies = {name: construct(builder, priced) for name in readers}
                assert priced.state is not None
                derived = construct(builder, priced)
                assert not _pending(derived)
                twins.append((copies, derived))
            return plan

        monkeypatch.setattr(PlanBuilder, "construct", with_twins)
        query = build_q5() if strategy != "ea-all" else topology_query("cycle", 4)
        optimize(query, config=OptimizerConfig(strategy=strategy, cache_capacity=None))
        # EA-Prune's own run reads every state; its H1 pre-pass does not.
        assert len(twins) > 10
        for copies, derived in twins:
            for name, read in readers.items():
                copy = copies[name]
                assert _pending(copy)
                assert read(copy) == read(derived), name
            assert copies["eq"].__dict__["_fd"] is derived.__dict__["_fd"]

    def test_a_derivation_as_deep_as_the_plan_needs_no_recursion(self):
        query = topology_query("chain", 3)
        spec = prepare(query).resolver().resolve(0b01, 0b10)
        depth = sys.getrecursionlimit() + 100
        started = time.perf_counter()
        tops = []
        for read_early in (False, True):
            builder = PlanBuilder(query)
            plan, right = builder.leaf(0), builder.leaf(1)
            for _ in range(depth):
                priced = builder.price(
                    plan, right, spec.op, spec.predicate, spec.selectivity, spec.groupjoin_vector
                )
                if read_early:
                    priced.state
                plan = builder.construct(priced)
            assert _pending(plan) is not read_early
            tops.append(plan)
        late, early = tops
        assert (set(late.keys), set(late.equiv)) == (set(early.keys), set(early.equiv))
        assert not _pending(late)
        assert time.perf_counter() - started < 2.0


def _hash_or_error(plan):
    """``hash(plan)``, or the error it raises (a plan's dictionaries make
    the dataclass hash raise — after it has read ``keys``)."""
    try:
        return hash(plan)
    except TypeError as error:
        return str(error)


class TestStatesOfDifferentTables:
    def test_plans_of_two_runs_meet_in_one_bucket(self):
        # Each run numbers its attributes in its own table; a bucket
        # compares in one table and re-interns what arrives from another.
        query = topology_query("star", 5)
        _, first = _collect(query)
        _, second = _collect(query)
        mask = max(p.rel_set for p in first)
        plans = [p for run in (first, second) for p in run if p.rel_set == mask]
        tables = {p.__dict__["_fd"].table for p in plans}
        assert len(tables) == 2
        random.Random(5).shuffle(plans)
        ordered, scan = EaPruneStrategy(), SeedPruneStrategy(query=query)
        bucket, reference = ordered.new_bucket(), scan.new_bucket()
        for plan in plans:
            ordered.insert(bucket, plan)
            scan.insert(reference, plan)
        assert len(bucket) == len(reference) > 1
        assert sorted((p.cost, p.cardinality) for p in bucket) == sorted(
            (p.cost, p.cardinality) for p in reference
        )


class TestLifetime:
    def test_a_result_keeps_no_state_alive(self):
        seen = []
        result = optimize(
            build_q5(), hooks=OptimizerHooks(on_plan=seen.append)
        )
        table = weakref.ref(next(p.__dict__["_fd"].table for p in seen if "_fd" in p.__dict__))
        assert table() is not None and len(table().states) > 10
        del seen
        gc.collect()
        assert table() is None
        assert "_fd" not in result.plan.__dict__
        assert not any(isinstance(obj, FdState) for obj in gc.get_objects())

    @pytest.mark.parametrize(
        "strategy,name", [("ea-prune", "star-6"), ("ea-prune", "tpch-q5"), ("dphyp", "star-6")]
    )
    def test_a_run_leaves_no_fd_state_for_the_collector(self, strategy, name):
        # A state names its table weakly and the table holds every memo
        # between states, so a run's table and states die by reference
        # counting: with the collector paused, nothing of them is left.
        def query():
            return build_q5() if name == "tpch-q5" else topology_query("star", 6)

        config = OptimizerConfig(strategy=strategy)
        optimize(query(), config=config)  # warm the value memos
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            result = optimize(query(), config=config)
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            gc.enable()
        assert result.plan is not None
        assert (left.count("FdState"), left.count("FdTable")) == (0, 0)

    def test_a_cache_entry_keeps_no_state_alive(self):
        cache = PlanCache(capacity=4)
        config = OptimizerConfig(strategy="ea-prune", cache_capacity=None)
        cold = optimize_cached(prepare(build_q10()), cache, config)
        gc.collect()
        assert not any(isinstance(obj, FdState) for obj in gc.get_objects())
        warm = optimize_cached(prepare(build_q10()), cache, config)
        assert warm.cache_hit and warm.cost == cold.cost

    def test_module_level_containers_stay_bounded(self):
        """No process-global FD table: what is left at module level is
        registries (fixed size) and value-keyed lru caches (capped)."""

        def containers():
            for module in (planinfo, strategies):
                for name, value in vars(module).items():
                    if isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"):
                        yield f"{module.__name__}.{name}", value

        fixed = {
            name: len(value) for name, value in containers() if not hasattr(value, "cache_info")
        }
        for seed in range(200):
            query = generate_query(random.Random(seed).randint(3, 5), random.Random(seed))
            optimize(query)
        caches = 0
        for name, value in containers():
            if hasattr(value, "cache_info"):
                caches += 1
                assert value.cache_info().maxsize is not None, name
            else:
                assert len(value) == fixed[name], name
        assert caches >= 3
        planinfo.clear_memo_caches()
        strategies.reset_prune_caches()
        assert all(
            value.cache_info().currsize == 0
            for _name, value in containers()
            if hasattr(value, "cache_info")
        )
