"""The BuildPlans strategies — the only component the paper's four
algorithms differ in (Figs. 5, 9, 10, 12, 13, 14).

Besides its ``name``, a strategy has four members:

* ``explore_eager`` — should OpTrees generate the grouping placements
  (b)/(c)/(d) of Fig. 8 at all?  (False only for the DPhyp baseline.)
* ``new_bucket()`` — a fresh DP-table entry (EA-Prune's is a
  :class:`PruneBucket`, everyone else's a list).
* ``insert(bucket, plan)`` — which candidates survive in an inner DP
  table entry, and whether this one did.  The driver files *priced*
  candidates (:class:`~repro.optimizer.planinfo.PricedJoin`) and builds
  a bucket's survivors when a join first reads it (see
  docs/architecture.md, "bound, price, file — build on read"), so
  ``insert`` reads only the priced surface; the test oracle inserts
  built plans.  The full relation set is not a strategy's: the driver
  keeps its single cheapest plan (``InsertTopLevelPlan``, Fig. 9).
* ``accepts_ceiling`` — does the strategy return the optimum of the
  eager search space, so that the driver may drop every partial plan
  dearer than a complete one (H1's) before inserting anything?  Only
  EA-Prune with the full criteria says yes; a strategy is never shown a
  candidate above the ceiling, and never told there is one.

A strategy that keeps one plan per class also declares a *threshold*
(:meth:`SinglePlanStrategy.threshold`): the cost from which a newcomer
cannot displace the incumbent.  Under a monotone cost model a join costs
at least its inputs, so the driver skips a candidate — or a whole
csg-cmp-pair — whose inputs already cost that much, before resolving or
pricing it (:func:`declared_threshold`; docs/architecture.md, "Bound,
price, file").

Hot-path design (see docs/architecture.md): EA-Prune's dominance test
(Def. 4) is where the DP spends almost all of its time, so two structures
accelerate it without changing which plans survive:

* **Ordered buckets** — :class:`PruneBucket` keeps each DP-table entry
  sorted by cost (with a parallel cost array for bisection).  A stored
  plan can dominate a candidate only if its cost is no higher, and can be
  dominated only if its cost is no lower, so both scans cover just a
  cost-bounded slice of the bucket instead of all of it.  Dominance is a
  transitive preorder, which makes the surviving *set* independent of scan
  and insertion order — only the list order changes.
* **FD states** — the functional-dependency part of Def. 4 depends only
  on ``(duplicate_free, keys, equiv)``.  Those triples repeat across
  thousands of plans, so each run interns them
  (:class:`~repro.optimizer.planinfo.FdState`, one table per
  :class:`~repro.optimizer.planinfo.PlanBuilder`): a candidate arrives
  with its state already looked up, a bucket files plans under the state
  object, and ``a.dominates(b)`` is Def. 4's FD clause over int masks.
  Nothing here is process-global: the table dies with the run.

The FD clause compares states *projected* onto R(S), the attributes of
the plan's relation set S that a completion can still read
(``needed_above(S)``; :meth:`~repro.optimizer.planinfo.FdTable.project`):
classes cut to R(S), a key's attributes outside it traded for their
class's members inside it (and the key marked as reached through a
class), keys that cannot reach it dropped, and R(S) itself a key if any
key is left.  Plans keep their whole triple; only the comparison is
coarser.  It is sound because every DP step — an eager grouping, a join
with any partner, the top grouping — preserves the projected preorder
(Ji et al.'s thinning theorem; docs/architecture.md, "What a completion
reads", and ``tests/optimizer/test_pruning_monotone.py``), and it keeps
far fewer incomparable plans than the whole triple did.

The seed's unordered linear-scan insert is the test oracle's
(:class:`repro.optimizer.reference.SeedPruneStrategy`): it projects and
compares with frozenset arithmetic on the plans' own fields and never
sees a state, so the indexed == oracle differential checks two
independent implementations of Def. 4
(``tests/optimizer/test_fd_state_differential.py`` compares them pair by
pair).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.optimizer.planinfo import FdState, FdTable, PlanInfo, PricedJoin
from repro.optimizer.registry import STRATEGIES


class Strategy:
    """Base class: a DP-table insertion policy."""

    name = "abstract"
    explore_eager = True
    #: Declares that the strategy returns the *optimum of the eager search
    #: space* and lets the driver bound it: H1's plan lies in that space, so
    #: no partial plan dearer than it can be part of the answer, and the
    #: driver never shows the strategy one (docs/architecture.md, "bound,
    #: price, file — build on read").  False for everything that
    #: cannot promise that: DPhyp searches a smaller space (H1's plan is
    #: outside it), the heuristics and the ``cost-card`` / ``cost-only``
    #: ablations promise no optimum, and EA-All — which could — stays
    #: unbounded on purpose: it is the oracle EA-Prune is tested against.
    accepts_ceiling = False

    def new_bucket(self) -> List[PlanInfo]:
        """A fresh DP-table entry; strategies may return an indexed list."""
        return []

    def insert(self, bucket: List[PlanInfo], plan) -> bool:
        """File *plan* in *bucket*, keeping, evicting or displacing what
        the policy says, and return whether *plan* was kept: ``False``
        leaves the bucket's plans, and their order, as they were (the
        driver counts the candidate in ``strategy.plans_priced_away``);
        ``True`` means *plan* is in the bucket now.  Asked once per
        candidate of an inner relation set.

        In the driver *plan* — and every entry of the bucket — is a
        :class:`~repro.optimizer.planinfo.PricedJoin`, built only once a
        join reads the bucket; in the test oracle it is a
        :class:`PlanInfo`.  Read only the surface the two share:
        ``cost``, ``cardinality``, ``eagerness``, ``duplicate_free``,
        ``state`` / ``keys`` / ``equiv`` / ``has_key_within``,
        ``rel_set``, ``raw_attrs``, ``scale_cols`` and ``distinct``
        (``state`` is the interned FD triple of a priced candidate; a built
        plan carries its own in ``__dict__["_fd"]``).  Whatever is evicted
        before the read is never built — safe, since every priced
        candidate constructs."""
        raise NotImplementedError


class SinglePlanStrategy(Strategy):
    """One plan per DP class: a newcomer — priced or built, and so is the
    incumbent; the test reads only numbers — replaces the incumbent if it
    :meth:`_beats` it.  A priced incumbent that is displaced is never
    built.  Default: keep the strictly cheaper."""

    def insert(self, bucket: List[PlanInfo], plan) -> bool:
        if bucket and not self._beats(plan, bucket[0]):
            return False
        bucket[:] = [plan]
        return True

    def _beats(self, new, old) -> bool:
        return new.cost < old.cost

    def threshold(self, incumbent) -> float:
        """A newcomer costing at least this much does not :meth:`_beats`
        *incumbent*, whatever else it is.  It speaks for the ``_beats``
        beside it only: a subclass that overrides ``_beats`` (or
        ``insert``) and not this has no threshold
        (:func:`declared_threshold`)."""
        return incumbent.cost


def declared_threshold(strategy: Strategy) -> Optional[Callable[[object], float]]:
    """*strategy*'s :meth:`SinglePlanStrategy.threshold` when the class
    that defines it also defines, or inherits unchanged, the ``_beats``
    and ``insert`` it runs; ``None`` for every other strategy — EA-All,
    EA-Prune, a plug-in, and a single-plan subclass that changed the rule
    without saying what it makes of the threshold."""
    if not isinstance(strategy, SinglePlanStrategy):
        return None
    mro = type(strategy).__mro__

    def owner(name):
        return next(klass for klass in mro if name in vars(klass))

    declared_by = owner("threshold")
    if issubclass(declared_by, owner("_beats")) and issubclass(declared_by, owner("insert")):
        return strategy.threshold
    return None


class DphypStrategy(SinglePlanStrategy):
    """Baseline DPhyp: lazy aggregation only, one optimal plan per class."""

    name = "dphyp"
    explore_eager = False


class EaAllStrategy(Strategy):
    """BuildPlansAll (Fig. 9): keep *every* plan — exhaustive, optimal,
    runtime O(2^{2n-1} · #ccp)."""

    name = "ea-all"

    def insert(self, bucket: List[PlanInfo], plan) -> bool:
        bucket.append(plan)
        return True


def reset_prune_caches() -> None:
    """Nothing to drop: EA-Prune's FD tables belong to one run
    (:class:`~repro.optimizer.planinfo.FdTable`) and die with it.  Kept for
    callers that reset between timed runs (``benchmarks/e2e``)."""


class PruneBucket:
    """A DP-table entry organised as per-FD-state Pareto frontiers.

    Plans sharing an FD state can only dominate each other through
    cost and cardinality, so the survivors of one state always form a
    Pareto frontier: strictly increasing cost, strictly decreasing
    cardinality.  Each frontier is three parallel arrays (costs, cards,
    plans) sorted by cost, which turns the two dominance questions into

    * *is the candidate dominated?* — for every state that
      FD-dominates the candidate's, one bisection: the minimum
      cardinality among frontier plans with cost ≤ c sits exactly at the
      rightmost such position,
    * *whom does the candidate evict?* — for every state the
      candidate FD-dominates, the evicted plans are one contiguous slice
      (the cost-≥-c suffix starts at a bisection; within it cardinalities
      decrease, so the card-≥-d victims are its prefix).

    The surviving *set* is identical to the seed's pairwise scan —
    dominance is a transitive preorder, so maximal elements don't depend
    on scan order — only iteration order differs (by state, then
    cost).  Iteration yields every surviving plan; ``len`` is the
    survivor count the DP table reports.
    """

    __slots__ = ("table", "frontiers", "dominating", "dominated", "count")

    def __init__(self):
        #: the :class:`FdTable` this bucket's states live in — the run's,
        #: adopted from the first plan that brings a state (:meth:`home`).
        self.table: Optional[FdTable] = None
        #: state (``FdState`` or None for the reduced criteria) →
        #: (costs, cards, plans) parallel arrays sorted by cost.
        self.frontiers: Dict[object, Tuple[List[float], List[float], List[PlanInfo]]] = {}
        #: per-state adjacency, built once when a state first appears in
        #: this bucket: the frontier entries whose state FD-dominates it /
        #: that it FD-dominates (both include its own).  Inserts then touch
        #: only dominance-related frontiers instead of probing the FD
        #: verdict for every frontier every time.
        self.dominating: Dict[object, List[Tuple[List[float], List[float], List[PlanInfo]]]] = {}
        self.dominated: Dict[object, List[Tuple[List[float], List[float], List[PlanInfo]]]] = {}
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for _costs, _cards, plans in self.frontiers.values():
            yield from plans

    def plan_lists(self) -> List[List[PlanInfo]]:
        """Every frontier's plan list — what the driver builds in place
        when a join first reads the bucket (costs and cards stay put)."""
        return [plans for _costs, _cards, plans in self.frontiers.values()]

    def home(self, plan) -> FdState:
        """*plan*'s FD state in the table this bucket compares in,
        projected onto what a completion of its relation set can read
        (:meth:`~repro.optimizer.planinfo.FdTable.project`).

        A priced candidate's state is its ``state``, a built plan's the one
        ``construct`` hung on it (none on a plan made by hand).  States of
        different tables number their attributes differently and cannot
        be compared.  The bucket adopts the table of the first state it is
        shown — in a DP run the builder's, which every later plan of the
        run shares, so the state comes straight back; a plan made by hand
        or by another run is interned beside the others.  A table made
        without a query (a bucket of plans made by hand) projects nothing."""
        if type(plan) is PricedJoin:
            state = plan.state
        else:
            state = plan.__dict__.get("_fd")
        table = self.table
        if table is None:
            table = self.table = FdTable() if state is None else state.table
        if state is None or state.table is not table:
            state = table.intern(plan.duplicate_free, plan.keys, plan.equiv)
        return state.projected(table.reads(plan.rel_set))

    def frontier_for(self, state) -> Tuple[List[float], List[float], List[PlanInfo]]:
        """The state's frontier entry, registering adjacency on first use."""
        entry = self.frontiers.get(state)
        if entry is None:
            entry = ([], [], [])
            doms = [entry]
            subs = [entry]
            if state is not None:  # reduced criteria: one frontier, trivial adjacency
                for other, other_entry in self.frontiers.items():
                    if other.dominates(state):
                        doms.append(other_entry)
                        self.dominated[other].append(entry)
                    if state.dominates(other):
                        subs.append(other_entry)
                        self.dominating[other].append(entry)
            self.frontiers[state] = entry
            self.dominating[state] = doms
            self.dominated[state] = subs
        return entry


class EaPruneStrategy(Strategy):
    """BuildPlansPrune (Figs. 13/14): dominance pruning, still optimal.

    A plan T1 dominates T2 iff cost, cardinality and functional
    dependencies are all no worse (Def. 4).  As sanctioned by the paper,
    FD-closure comparison is implemented via candidate-key sets; the
    duplicate-freeness flag participates because ``NeedsGrouping`` and
    Eqv. 42 depend on it.  The dependencies compared are those a
    completion of the plan's relation set S can still read: both FD
    states projected onto R(S) (:meth:`PruneBucket.home`, module
    docstring), which every DP step preserves — so the optimum stays,
    with far thinner buckets than comparing the whole triple.

    The ``criteria`` knob exists for the ablation benchmark: dropping the
    cardinality or FD dimension makes pruning more aggressive but destroys
    the optimality guarantee — exactly the point of Def. 4's three clauses.
    """

    name = "ea-prune"

    def __init__(self, criteria: str = "full"):
        if criteria not in ("full", "cost-card", "cost-only"):
            raise ValueError(f"unknown pruning criteria {criteria!r}")
        self.criteria = criteria
        # Def. 4's three clauses are what keeps the optimum.
        self.accepts_ceiling = criteria == "full"
        if criteria != "full":
            self.name = f"ea-prune[{criteria}]"
        self.counters: Dict[str, int] = {
            "prune_inserts": 0,
            "dominance_checks": 0,
            "plans_discarded": 0,
            "plans_evicted": 0,
        }

    def new_bucket(self) -> PruneBucket:
        return PruneBucket()

    def _card(self, plan) -> float:
        # Under cost-only pruning every cardinality is treated as equal, so
        # the frontier degenerates to the single cheapest plan.
        return plan.cardinality if self.criteria != "cost-only" else 0.0

    def insert(self, bucket: PruneBucket, plan) -> bool:
        state = bucket.home(plan) if self.criteria == "full" else None
        cost = plan.cost
        card = self._card(plan)
        # Registering the state also materialises its adjacency lists, so
        # every pass below touches only dominance-related frontiers.
        bucket.frontier_for(state)
        dominating = bucket.dominating[state]
        counters = self.counters
        counters["prune_inserts"] += 1
        counters["dominance_checks"] += len(dominating)
        # 1) Discard the candidate if any frontier whose state
        #    FD-dominates ours holds a plan with cost <= c and card <= d:
        #    the minimum cardinality among cost-≤-c plans sits at the
        #    rightmost cost-≤-c position of the Pareto frontier.
        for costs, cards, _plans in dominating:
            at = bisect_right(costs, cost) - 1
            if at >= 0 and cards[at] <= card:
                counters["plans_discarded"] += 1
                return False
        # 2) Evict plans the candidate dominates: in every frontier whose
        #    state ours FD-dominates, they form one contiguous slice.
        for costs, cards, plans in bucket.dominated[state]:
            lo = bisect_left(costs, cost)
            hi = lo
            size = len(costs)
            while hi < size and cards[hi] >= card:
                hi += 1
            if hi > lo:
                del costs[lo:hi]
                del cards[lo:hi]
                del plans[lo:hi]
                bucket.count -= hi - lo
                counters["plans_evicted"] += hi - lo
        # 3) Insert into the candidate's own frontier.
        costs, cards, plans = bucket.frontiers[state]
        at = bisect_left(costs, cost)
        costs.insert(at, cost)
        cards.insert(at, card)
        plans.insert(at, plan)
        bucket.count += 1
        return True


class H1Strategy(SinglePlanStrategy):
    """BuildPlansH1 (Fig. 10): local greedy choice, single plan per class."""

    name = "h1"


class H2Strategy(SinglePlanStrategy):
    """BuildPlansH2 (Fig. 12): cost comparison biased towards *more eager*
    plans by the tolerance factor F (``CompareAdjustedCosts``)."""

    name = "h2"

    def __init__(self, factor: float = 1.03):
        self.factor = check_factor(factor)

    def _beats(self, new, old) -> bool:
        """``CompareAdjustedCosts``: the less eager plan must win by F."""
        if new.eagerness == old.eagerness:
            return new.cost < old.cost
        if new.eagerness < old.eagerness:
            return self.factor * new.cost < old.cost
        return new.cost < self.factor * old.cost

    def threshold(self, incumbent) -> float:
        """The right-hand side of ``_beats``' most lenient case, a more
        eager newcomer's: ``F · cost`` of the incumbent, the same float
        expression.  With F ≥ 1 it is at least the incumbent's cost, so
        the other two cases refuse such a newcomer too."""
        return self.factor * incumbent.cost


def check_factor(factor: float) -> float:
    """H2's tolerance F, validated: a number ≥ 1 (NaN is not)."""
    if not factor >= 1.0:
        raise ValueError(f"tolerance factor must be >= 1, got {factor}")
    return factor


# -- registration -----------------------------------------------------------
# The built-ins register like any third-party strategy would; the driver
# and everything above it (config, session, CLI --compare) discover them
# through the registry, never through a hard-coded list.


@STRATEGIES.register("dphyp")
def _dphyp(**_options) -> Strategy:
    return DphypStrategy()


@STRATEGIES.register("ea-all", "all", "ea_all")
def _ea_all(**_options) -> Strategy:
    return EaAllStrategy()


@STRATEGIES.register("ea-prune", "prune", "ea_prune")
def _ea_prune(criteria: str = "full", **_options) -> Strategy:
    return EaPruneStrategy(criteria)


@STRATEGIES.register("h1")
def _h1(**_options) -> Strategy:
    return H1Strategy()


@STRATEGIES.register("h2")
def _h2(factor: float = 1.03, **_options) -> Strategy:
    return H2Strategy(factor)
