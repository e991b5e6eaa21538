"""Plan records and the plan builder — the DP algorithms' working material.

A :class:`PlanInfo` wraps an executable plan node with every derived
property the algorithms need:

* ``cost`` — the paper's ``Cout`` (sum of intermediate result sizes,
  Sec. 4.4; scans and projections are free),
* ``cardinality`` and per-attribute ``distinct`` counts,
* ``keys`` (Sec. 2.3) and ``duplicate_free`` — inputs to ``NeedsGrouping``
  (Fig. 7) and to the dominance pruning (Def. 4, via candidate keys),
* the **aggregation state**: per original aggregate a *term* (an aggregate
  call over the plan's current columns — raw, ⊗-scaled, or the outer stage
  of a pushed-down decomposition) plus the plan's *scale columns* (count(*)
  columns introduced by pushed groupings that still multiply other sides'
  duplicate-sensitive aggregates),
* ``defaults`` — default values for the plan's aggregate/count columns,
  applied when a generalised outerjoin pads this side (Eqvs. 11/12/14/...).

The aggregation state is how the Fig. 3 equivalences compose across
arbitrarily many pushdowns inside one DP run: joining two plans ⊗-scales
each side's terms by the other side's scale columns, and grouping a plan
decomposes every term into inner/outer stages while folding the plan's old
scale columns into the new count column (``count(*) ⊗ c`` = ``sum(c)``).

Joins and eager groupings are made in two steps (docs/architecture.md,
"bound, price, file — build on read"): :meth:`PlanBuilder.price` derives
a join candidate's validity, cardinality, cost and eagerness from the
two inputs alone — a :class:`PricedJoin`, no plan node, no dictionaries
— and :meth:`PlanBuilder.grouped` prices a plan's ``Γ_{G⁺}`` the same
way, once per plan — a :class:`PricedGroup`.  :meth:`PlanBuilder.construct`
turns a priced join into a :class:`PlanInfo`, building a priced grouping
it reads on the way, once.  The DP driver files in its table what its
strategy does not discard on price, still priced, and constructs a
bucket's candidates when a join first reads it, so a grouping is built
only when a built plan reads it; :meth:`PlanBuilder.join` and
:meth:`PlanBuilder.group` are the two steps back to back.

Functional dependencies are kept twice, on purpose.  The *sets* — a
plan's ``keys`` / ``equiv`` / ``duplicate_free`` fields, with
:meth:`PlanInfo.closure` and :meth:`PlanInfo.has_key_within` — are the
definition: what a plan carries and what the test oracle derives a
join's triple from, every time (:mod:`repro.optimizer.reference`).  The
*states* are what the DP asks: a :class:`PlanBuilder` owns one
:class:`FdTable` per run that interns every distinct triple as an
:class:`FdState` (keys and classes as int masks over interned
attributes), a join's state is a dictionary hit on its inputs' states
(:meth:`PlanBuilder._join_state`), and ``NeedsGrouping`` / Def. 4 are
mask arithmetic on the state.  The one FD question that is *not* a
property of the triple — is this side keyed on its join attributes? —
depends on the plan's ``raw_attrs`` (an eager grouping drops columns, so
two plans sharing a state may expose different ones): the plan carries
them as a mask, and the question is the state's ``within(join attributes
& the plan's columns)``.  States ride on plans as a ``__dict__`` memo,
point at their table but never at the builder, and are stripped from
pickles; the table is garbage once the run's plans are.  EA-Prune
compares states projected onto what a completion of the plan's relation
set can still read (:meth:`FdTable.project`), interned in the same table.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.costmodel import CostModel

from repro.aggregates.calls import AggCall, AggKind
from repro.aggregates.transform import (
    NotScalableError,
    decompose_call,
    scale_call,
    scale_vector,
    single_row_expr,
)
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Expr, Logical, attrs_of
from repro.algebra.values import SqlValue
from repro.cardinality.estimate import (
    antijoin_cardinality,
    distinct_after,
    domain_product,
    grouping_cardinality,
    join_cardinality,
    outerjoin_cardinality,
    semijoin_cardinality,
)
from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.plans.render import plan_to_dict
from repro.query.spec import Query
from repro.rewrites.pushdown import OpKind

_KEY_LIMIT = 12  # cap on tracked candidate keys per plan

#: The pseudo-attribute a projected key carries when it reaches what a
#: completion reads only through an equivalence class (:meth:`FdTable.project`).
#: No SQL identifier contains a NUL, so it never names a column.
VIA_CLASS = "\x00via-class"

#: Operators whose output exposes only left-side attributes and rows
#: (``OpKind.left_only``, as a constant for the hot loop).
_LEFT_ONLY = (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI, OpKind.GROUPJOIN)

#: ``PlanBuilder._fresh_terms``' shared answer when no term can turn fresh.
_NO_FRESH_TERMS: Tuple[Tuple[str, ...], FrozenSet[str]] = ((), frozenset())


def clear_memo_caches() -> None:
    """Drop the module-level pure-function memos (benchmark hygiene —
    correctness never requires it; the caches are keyed by value and
    capped).  FD states are not here: they belong to a run's
    :class:`FdTable`."""
    _minimal_keys_cached.cache_clear()
    _merge_equiv_cached.cache_clear()
    _pairwise_keys.cache_clear()
    _scale_call_cached.cache_clear()


@dataclass(frozen=True)
class PlanInfo:
    """One plan for a relation set, with all derived DP properties."""

    node: PlanNode
    rel_set: int
    cost: float
    cardinality: float
    keys: Tuple[FrozenSet[str], ...]
    duplicate_free: bool
    raw_attrs: FrozenSet[str]
    distinct: Dict[str, float]
    terms: Dict[str, AggCall]
    scale_cols: Tuple[str, ...]
    defaults: Dict[str, SqlValue]
    eagerness: int = 0
    #: attribute equivalence classes induced by applied inner-join equality
    #: predicates (x = y ∧ x key ⇒ y determines the row too).  This is the
    #: slice of the FD closure that Def. 4 / NeedsGrouping actually needs.
    equiv: Tuple[FrozenSet[str], ...] = ()

    def closure(self, attrs: FrozenSet[str]) -> FrozenSet[str]:
        """Attributes plus everything equal to them (equivalence closure).

        Memoised per plan: the dominance pruning and ``NeedsGrouping`` ask
        for the same closures over and over in the DP hot loop.  The cache
        lives in the instance ``__dict__`` (invisible to dataclass
        eq/replace) because the declared fields are frozen.
        """
        cache = self.__dict__.get("_closure_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_closure_cache", cache)
        cached = cache.get(attrs)
        if cached is None:
            cached = cache[attrs] = _closure(self.equiv, attrs)
        return cached

    def rendered(self) -> dict:
        """``plan_to_dict(self.node)``, built once per plan and kept in the
        instance ``__dict__`` like :meth:`closure`'s cache.  Every caller
        gets the same dict: it is for reading (``json.dumps`` of a reply);
        whoever wants one to change calls ``plan_to_dict`` itself."""
        cached = self.__dict__.get("_rendered")
        if cached is None:
            cached = plan_to_dict(self.node)
            object.__setattr__(self, "_rendered", cached)
        return cached

    def __getstate__(self):
        """Pickle the declared fields only.  Everything else in the
        instance ``__dict__`` is a process-local memo — closure caches, the
        run's interned :class:`FdState` (``_fd``) and the plan's columns as
        a mask of that run's table (``_raw_mask``), the rendered tree a serving core
        replies with (:meth:`rendered`) — and must not ride along to a batch
        worker, a shard snapshot or a plan cache."""
        state = self.__dict__
        return {name: state[name] for name in self.__dataclass_fields__}

    def has_key_within(self, attrs: FrozenSet[str]) -> bool:
        """Whether some candidate key is implied by *attrs* (via closure)."""
        cache = self.__dict__.get("_key_within_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_key_within_cache", cache)
        attrs = frozenset(attrs)
        cached = cache.get(attrs)
        if cached is None:
            closed = self.closure(attrs)
            cached = any(key <= closed for key in self.keys)
            cache[attrs] = cached
        return cached


class FdTable:
    """One optimisation run's intern table for functional-dependency triples.

    Def. 4's FD clause and ``NeedsGrouping`` read only ``(duplicate_free,
    keys, equiv)``, and a run meets a few thousand distinct triples for
    tens of thousands of candidates.  The table gives every attribute a
    bit, so a key or an equivalence class is an int mask, and every
    distinct triple one :class:`FdState`.  A :class:`PlanBuilder` owns one
    table; nothing in it outlives the run.

    *needed_above* (the query's, for a DP run) says which attributes of a
    relation set a completion can still read: :meth:`reads`.  A table made
    without one projects nothing.
    """

    def __init__(self, needed_above: Optional[Callable[[int], FrozenSet[str]]] = None) -> None:
        self.attr_bit: Dict[str, int] = {}
        self.masks: Dict[FrozenSet[str], int] = {}
        #: (duplicate_free, {keys}, {classes}) → state.  Keyed on the
        #: *sets*: the tuple a triple arrives in carries no information.
        self.states: Dict[tuple, "FdState"] = {}
        self.needed_above = needed_above
        #: relation set → :meth:`reads` mask
        self.read_masks: Dict[int, int] = {}
        self.via_class = self.mask(frozenset((VIA_CLASS,)))

    def mask(self, attrs: FrozenSet[str]) -> int:
        """*attrs* as a bit mask (attributes get their bit on first sight)."""
        mask = self.masks.get(attrs)
        if mask is None:
            bits = self.attr_bit
            mask = 0
            for attr in attrs:
                bit = bits.get(attr)
                if bit is None:
                    bit = bits[attr] = 1 << len(bits)
                mask |= bit
            self.masks[attrs] = mask
        return mask

    def attrs(self, mask: int) -> FrozenSet[str]:
        """The attributes of *mask* (:meth:`mask` backwards)."""
        return frozenset(attr for attr, bit in self.attr_bit.items() if bit & mask)

    def intern(
        self,
        duplicate_free: bool,
        keys: Tuple[FrozenSet[str], ...],
        equiv: Tuple[FrozenSet[str], ...],
    ) -> "FdState":
        key = (duplicate_free, frozenset(keys), frozenset(equiv))
        state = self.states.get(key)
        if state is None:
            state = self.states[key] = FdState(self, duplicate_free, keys, equiv)
        return state

    def reads(self, rel_set: int) -> int:
        """R(S): the attributes of relation set *rel_set* that a completion
        of one of its plans can read — ``needed_above(rel_set)`` as a mask:
        the final grouping's attributes, the join attributes of the edges
        leaving the set, the raw inputs of aggregates straddling it.  -1
        (every attribute) in a table without a query."""
        mask = self.read_masks.get(rel_set)
        if mask is None:
            needed = self.needed_above
            mask = self.read_masks[rel_set] = -1 if needed is None else self.mask(needed(rel_set))
        return mask

    def project(self, state: "FdState", reads: int) -> "FdState":
        """*state* as a completion that reads only *reads* can tell it
        apart — what EA-Prune's FD clause compares (docs/architecture.md,
        "What a completion reads", has why every DP step preserves it):

        * a class is cut to *reads* (and gone below two members);
        * a key attribute outside *reads* is replaced by its class's
          members inside, and the key is marked :data:`VIA_CLASS` — an
          eager grouping keeps only keys inside its attributes *literally*,
          so a key that reaches them only through a class must not stand
          in for one that lies there;
        * a key with an attribute whose class never reaches *reads* is
          dropped (no completion is ever keyed through it);
        * if any key is left, *reads* itself is one, unmarked — it holds
          every key left, and an eager grouping over *reads* keeps it —
          and of all these the minimal keys are kept;
        * ``duplicate_free`` stays.
        """
        classes = state.class_masks
        keys = set()
        for key in state.key_masks:
            outside = key & ~reads
            if outside:
                key = (key & reads) | self.via_class
                for cls in classes:
                    if cls & outside:
                        if not cls & reads:
                            break
                        key |= cls & reads
                        outside &= ~cls
                if outside:
                    continue
            keys.add(key)
        if keys:
            keys.add(reads)
        minimal = [key for key in keys if not any(o != key and not o & ~key for o in keys)]
        cut = [cls & reads for cls in classes]
        attrs = self.attrs
        return self.intern(
            state.duplicate_free,
            tuple(attrs(key) for key in sorted(minimal)),
            tuple(attrs(cls) for cls in cut if cls & (cls - 1)),
        )


class FdState:
    """One distinct ``(duplicate_free, keys, equiv)`` triple of a run.

    ``keys`` / ``equiv`` are the public tuples, as the first derivation
    that reached the state spelled them; ``key_masks`` / ``class_masks``
    are the same sets over the table's attribute bits.  Every FD question
    is asked of the state: :meth:`within` (``NeedsGrouping``, keyedness
    of a join side) once per attribute mask, :meth:`dominates` (Def. 4,
    clause 3) in integer arithmetic, and ``joins`` maps what a join reads
    of its inputs to the state of its result (see
    :meth:`PlanBuilder._join_state`).
    """

    __slots__ = (
        "table", "duplicate_free", "keys", "equiv", "key_masks", "class_masks",
        "joins", "_within", "_projections",
    )

    def __init__(
        self,
        table: FdTable,
        duplicate_free: bool,
        keys: Tuple[FrozenSet[str], ...],
        equiv: Tuple[FrozenSet[str], ...],
    ):
        self.table = table
        self.duplicate_free = duplicate_free
        self.keys = keys
        self.equiv = equiv
        mask = table.mask
        self.key_masks = tuple(mask(key) for key in keys)
        self.class_masks = tuple(mask(cls) for cls in equiv)
        #: (right state, id(predicate), left keyed, right keyed) →
        #: (predicate, op, state of ``self op right``)
        self.joins: Dict[tuple, tuple] = {}
        self._within: Dict[int, bool] = {}
        self._projections: Dict[int, "FdState"] = {}

    def within(self, attrs: int) -> bool:
        """Whether some key lies inside the equivalence closure of the
        attribute mask (:func:`_closure`'s one pass: classes are disjoint)."""
        hit = self._within.get(attrs)
        if hit is None:
            closed = attrs
            for cls in self.class_masks:
                if cls & closed:
                    closed |= cls
            outside = ~closed
            hit = False
            for key in self.key_masks:
                if not key & outside:
                    hit = True
                    break
            self._within[attrs] = hit
        return hit

    def has_key_within(self, attrs: FrozenSet[str]) -> bool:
        """:meth:`PlanInfo.has_key_within`, over masks."""
        return self.within(self.table.mask(frozenset(attrs)))

    def projected(self, reads: int) -> "FdState":
        """:meth:`FdTable.project` onto the mask *reads*, once per mask;
        -1 (everything) is the state itself."""
        if reads == -1:
            return self
        hit = self._projections.get(reads)
        if hit is None:
            hit = self._projections[reads] = self.table.project(self, reads)
        return hit

    def dominates(self, other: "FdState") -> bool:
        """FD⁺(self) ⊇ FD⁺(other) — Def. 4's FD clause, as the test
        oracle spells it on frozensets, over masks (both states of one
        table; EA-Prune asks it of states projected onto R(S)).  Not
        memoised per pair: a bucket asks each ordered pair once, when a
        state first appears in it (a plan_cold seed-7 pass: 328
        questions, 206 distinct)."""
        if other.duplicate_free and not self.duplicate_free:
            return False
        within = self.within
        for key in other.key_masks:
            if not within(key):
                return False
        classes = self.class_masks
        for theirs in other.class_masks:
            for ours in classes:
                if not theirs & ~ours:
                    break
            else:
                return False
        return True


class PricedJoin:
    """A valid join candidate, priced but not built.

    Holds what a strategy needs to decide the candidate's fate — ``cost``,
    ``cardinality``, ``eagerness``, ``duplicate_free`` — computed from the
    two inputs and the operator alone (an input may be a
    :class:`PricedGroup`, built when the join is).  ``state`` (Def. 4's FD triple
    as an interned :class:`FdState`; ``keys`` and ``equiv`` read it) is
    looked up on first access, so only a strategy that compares
    functional dependencies pays for it.  The
    record quacks like a :class:`PlanInfo` wherever the DP prices on top
    of it (``needs_grouping``, the top-grouping estimate, cost models):
    besides the numbers it exposes the cheaply derived ``rel_set``,
    ``raw_attrs``, ``scale_cols`` and ``distinct`` — everything of a
    :class:`PlanInfo` except ``node`` and the aggregation dictionaries —
    and :meth:`PlanBuilder.construct` turns it into one.  That surface is
    also all a strategy's ``insert`` may read: the indexed DP files
    candidates in its buckets as priced and constructs them when a join
    first reads the bucket.
    """

    __slots__ = (
        "builder", "left", "right", "op", "predicate", "groupjoin_vector",
        "cost", "cardinality", "eagerness", "duplicate_free", "_state",
    )

    @property
    def state(self) -> "FdState":
        """The candidate's FD triple, interned in the builder's table."""
        state = self._state
        if state is None:
            state = self._state = self.builder._join_state(
                self.left, self.right, self.op, self.predicate
            )
        return state

    @property
    def keys(self) -> Tuple[FrozenSet[str], ...]:
        """κ of the join result (Sec. 2.3)."""
        return self.state.keys

    @property
    def equiv(self) -> Tuple[FrozenSet[str], ...]:
        return self.state.equiv

    def has_key_within(self, attrs: FrozenSet[str]) -> bool:
        return self.state.has_key_within(attrs)

    @property
    def rel_set(self) -> int:
        return self.left.rel_set | self.right.rel_set

    @property
    def raw_attrs(self) -> FrozenSet[str]:
        return _join_raw_attrs(self.op, self.left, self.right, self.groupjoin_vector)

    @property
    def scale_cols(self) -> Tuple[str, ...]:
        """count(*) columns still multiplying other sides' aggregates; the
        left-only operators keep the left side's (no ⊗ scaling)."""
        if self.op in _LEFT_ONLY:
            return self.left.scale_cols
        return self.left.scale_cols + self.right.scale_cols

    @property
    def distinct(self):
        """Per-attribute distinct counts of the result, as a read-only view
        (right over left, the order ``construct`` merges them in)."""
        if self.op in _LEFT_ONLY:
            return self.left.distinct
        return ChainMap(self.right.distinct, self.left.distinct)


class PricedGroup:
    """An eager grouping ``Γ_{G⁺}(plan)`` (OpTrees, Fig. 6), priced but not
    built: what :meth:`PlanBuilder.grouped` answers.

    Pricing decides validity and computes what a join priced on top of
    the grouping reads — ``cost``, ``cardinality``, ``raw_attrs`` (G⁺),
    ``distinct`` and ``scale_cols`` (the count column, named with the
    ``#g`` suffix taken at pricing, so column names are those a built
    grouping would have).  The FD triple (``keys``, ``equiv``;
    ``duplicate_free`` always holds) is derived on first read.  Like a
    :class:`PricedJoin` the record quacks like a :class:`PlanInfo` except
    for ``node``, ``terms`` and ``defaults``.  :meth:`PlanBuilder.construct`
    builds it (:meth:`PlanBuilder.construct_group`) when it builds a join
    that reads it, once: the plan is kept in ``built``.  The record points
    at its input plan and its built plan; neither points back at it.
    """

    duplicate_free = True
    eagerness = 0

    def __init__(
        self,
        plan: PlanInfo,
        g_plus: Tuple[str, ...],
        suffix: str,
        new_count: Optional[AggCall],
        scale_cols: Tuple[str, ...],
        cost: float,
        cardinality: float,
        raw_attrs: FrozenSet[str],
        distinct: Dict[str, float],
    ) -> None:
        self.plan = plan
        self.rel_set = plan.rel_set
        self.g_plus = g_plus
        self.suffix = suffix
        #: the count(*) column the grouping adds, when no term already is it
        self.new_count = new_count
        self.scale_cols = scale_cols
        self.cost = cost
        self.cardinality = cardinality
        self.raw_attrs = raw_attrs
        self.distinct = distinct
        self.built: Optional[PlanInfo] = None
        self._keys: Optional[Tuple[FrozenSet[str], ...]] = None
        self._equiv: Optional[Tuple[FrozenSet[str], ...]] = None

    @property
    def keys(self) -> Tuple[FrozenSet[str], ...]:
        """G⁺ and the input's keys that lie inside it *literally*."""
        keys = self._keys
        if keys is None:
            group_attrs = self.raw_attrs
            keys = self._keys = _minimal_keys(
                (group_attrs,) + tuple(k for k in self.plan.keys if k <= group_attrs)
            )
        return keys

    @property
    def equiv(self) -> Tuple[FrozenSet[str], ...]:
        """The input's classes cut to G⁺."""
        equiv = self._equiv
        if equiv is None:
            equiv = self._equiv = _restrict_equiv(self.plan.equiv, self.raw_attrs)
        return equiv


@lru_cache(maxsize=65536)
def _scale_call_cached(call: AggCall, count_attrs: Tuple[str, ...]) -> AggCall:
    """Memoised ``f ⊗ c`` — the same (call, scale-columns) pairs are
    rebuilt for every plan pair joining the same relation sets."""
    return scale_call(call, count_attrs)


def needs_grouping(group_attrs: FrozenSet[str], plan: PlanInfo) -> bool:
    """``NeedsGrouping`` (Fig. 7): grouping is a no-op iff the grouping
    attributes contain a key of a duplicate-free input."""
    return not (plan.duplicate_free and plan.has_key_within(group_attrs))


def _equality_pairs(predicate: Expr) -> List[Tuple[str, str]]:
    """Attribute pairs equated by the predicate's top-level conjuncts, in
    conjunct order.  An explicit stack, not a recursive closure: a closure
    that calls itself is a reference cycle left for the collector."""
    pairs: List[Tuple[str, str]] = []
    stack = [predicate]
    while stack:
        expr = stack.pop()
        if isinstance(expr, Logical) and expr.op == "and":
            stack.extend(reversed(expr.operands))
        elif (
            isinstance(expr, BinOp)
            and expr.op == "="
            and isinstance(expr.left, Attr)
            and isinstance(expr.right, Attr)
        ):
            pairs.append((expr.left.name, expr.right.name))
    return pairs


@lru_cache(maxsize=65536)
def _merge_equiv_cached(
    classes: Tuple[FrozenSet[str], ...], pairs: Tuple[Tuple[str, str], ...]
) -> Tuple[FrozenSet[str], ...]:
    """Memoised :func:`_merge_equiv`: the same (classes, predicate-pairs)
    combinations recur for every plan pair of a csg-cmp-pair."""
    return _merge_equiv(classes, pairs)


def _merge_equiv(
    classes: Sequence[FrozenSet[str]], pairs: Sequence[Tuple[str, str]]
) -> Tuple[FrozenSet[str], ...]:
    """Union equivalence classes with newly equated attribute pairs."""
    groups: List[set] = [set(cls) for cls in classes]
    for a, b in pairs:
        touching = [g for g in groups if a in g or b in g]
        merged = {a, b}
        for g in touching:
            merged |= g
            groups.remove(g)
        groups.append(merged)
    return tuple(frozenset(g) for g in groups if len(g) >= 2)


def _restrict_equiv(
    classes: Sequence[FrozenSet[str]], attrs: FrozenSet[str]
) -> Tuple[FrozenSet[str], ...]:
    """Drop class members that no longer exist in the plan output."""
    restricted = [cls & attrs for cls in classes]
    return tuple(cls for cls in restricted if len(cls) >= 2)


def _minimal_keys(keys: Sequence[FrozenSet[str]]) -> Tuple[FrozenSet[str], ...]:
    """Drop keys that are supersets of other keys; cap the key count."""
    return _minimal_keys_cached(tuple(keys))


@lru_cache(maxsize=65536)
def _minimal_keys_cached(keys: Tuple[FrozenSet[str], ...]) -> Tuple[FrozenSet[str], ...]:
    """Memoised body of :func:`_minimal_keys` — a pure set computation that
    the DP loop re-derives for the same key tuples constantly."""
    unique = sorted(set(keys), key=lambda k: (len(k), sorted(k)))
    minimal: List[FrozenSet[str]] = []
    for key in unique:
        if not any(other < key or other == key for other in minimal):
            minimal.append(key)
    return tuple(minimal[:_KEY_LIMIT])


class PlanBuilder:
    """Constructs :class:`PlanInfo` objects for one query.

    *cost_model* prices each operator (default: the paper's Cout); plan
    cost composes bottom-up as children's cost + the operator's
    contribution (see :mod:`repro.optimizer.costmodel`).
    """

    def __init__(self, query: Query, cost_model: Optional["CostModel"] = None):
        if cost_model is None:
            from repro.optimizer.costmodel import CoutModel

            cost_model = CoutModel()
        self.cost_model = cost_model
        self.query = query
        #: Per-predicate metadata memos (attribute sets, equality pairs).
        self._pred_attrs: Dict[int, Tuple[Expr, FrozenSet[str]]] = {}
        self._pred_eq_pairs: Dict[int, Tuple[Expr, Tuple[Tuple[str, str], ...]]] = {}
        #: R(S) per relation set, computed once for G⁺ and the FD table alike.
        self._needed_above = _NeededAbove(query)
        #: This run's FD states.  Plans and states point at the table,
        #: never at the builder.
        self.fd_table = FdTable(self._needed_above.__getitem__)
        #: id(plan) → (plan, its priced grouping or None): :meth:`grouped`.
        self._groupings: Dict[int, Tuple[PlanInfo, Optional[PricedGroup]]] = {}
        self._pred_masks: Dict[int, Tuple[Expr, int]] = {}
        self._group_counter = 0
        # Source relation mask per normalized aggregate; count(*)-style
        # aggregates (no referenced attributes — special case S1 of Def. 1)
        # are assigned to vertex 0.
        self.term_sources: Dict[str, int] = {}
        self.original_calls: Dict[str, AggCall] = {}
        self.term_defaults: Dict[str, SqlValue] = {}
        for item in query.normalized.vector:
            referenced = item.call.attributes()
            mask = query.vertices_of(referenced) if referenced else 1
            self.term_sources[item.name] = mask
            self.original_calls[item.name] = item.call
            self.term_defaults[item.name] = item.call.evaluate_on_null_tuple()
        #: Sources over two or more relations, the only ones an operator
        #: that keeps both sides can make fresh.
        self._spanning_sources = [m for m in self.term_sources.values() if m & (m - 1)]
        self._fresh_terms_cache: Dict[
            Tuple[int, int, bool], Tuple[Tuple[str, ...], FrozenSet[str]]
        ] = {}
        self._top_group_attrs = frozenset(query.group_by)
        self._gj_scaling = query.groupjoin_scaling_requirements()

    # ------------------------------------------------------------------
    def needed_above(self, mask: int) -> FrozenSet[str]:
        return self._needed_above[mask]

    def _fresh_suffix(self) -> str:
        self._group_counter += 1
        return f"#g{self._group_counter}"

    # -- predicate metadata memos --------------------------------------------
    # Join predicates are a handful of stable objects (one per edge, plus
    # the conjunctions the edge resolver interns for cyclic queries), while
    # ``join`` runs once per plan pair — so ``attrs_of`` / equality-pair
    # extraction are cached per predicate *identity*.  The ``hit[0] is
    # predicate`` check guards against id() reuse after a predicate is
    # garbage collected.

    def _attrs_of(self, predicate: Expr) -> FrozenSet[str]:
        key = id(predicate)
        hit = self._pred_attrs.get(key)
        if hit is not None and hit[0] is predicate:
            return hit[1]
        attrs = attrs_of(predicate)
        self._pred_attrs[key] = (predicate, attrs)
        return attrs

    def _equality_pairs_of(self, predicate: Expr) -> Tuple[Tuple[str, str], ...]:
        key = id(predicate)
        hit = self._pred_eq_pairs.get(key)
        if hit is not None and hit[0] is predicate:
            return hit[1]
        pairs = tuple(_equality_pairs(predicate))
        self._pred_eq_pairs[key] = (predicate, pairs)
        return pairs

    # -- functional dependencies -----------------------------------------------
    def state_of(self, plan: PlanInfo) -> FdState:
        """The plan's FD triple in this run's table; rides on the plan
        (``construct`` puts it there) and is re-interned for a plan that
        arrives from another run."""
        state = plan.__dict__.get("_fd")
        if state is None or state.table is not self.fd_table:
            state = self.fd_table.intern(plan.duplicate_free, plan.keys, plan.equiv)
            self._attach(plan, state)
        return state

    def _attach(self, plan: PlanInfo, state: FdState) -> None:
        """Hang the run-local FD memos on *plan*: its state, and its
        ``raw_attrs`` as a mask of the state's table."""
        object.__setattr__(plan, "_fd", state)
        object.__setattr__(plan, "_raw_mask", state.table.mask(plan.raw_attrs))

    def _join_mask(self, predicate: Expr) -> int:
        """The predicate's attributes as a mask of this run's table (held
        with the predicate: an ``id`` cannot be reused while the entry
        lives)."""
        hit = self._pred_masks.get(id(predicate))
        if hit is not None and hit[0] is predicate:
            return hit[1]
        mask = self.fd_table.mask(self._attrs_of(predicate))
        self._pred_masks[id(predicate)] = (predicate, mask)
        return mask

    def _join_state(
        self, left: PlanInfo, right: PlanInfo, op: OpKind, predicate: Expr
    ) -> FdState:
        """FD state of ``left op right``, by transition.

        What κ (Sec. 2.3) and the equivalence merge read of a join is the
        two input triples, the operator, the predicate's equality pairs
        and whether each side is keyed on its join attributes — so the
        result is looked up under exactly that, on the left input's state,
        and only a miss does the set arithmetic.
        """
        left_state = self.state_of(left)
        if op in _LEFT_ONLY:
            return left_state  # the result exposes the left rows, once each
        right_state = self.state_of(right)
        # Keyedness reads the plan's columns, which are not part of its
        # state: plans sharing a state expose different ``raw_attrs``.
        join_mask = self._join_mask(predicate)
        left_keyed = left_state.within(join_mask & left.__dict__["_raw_mask"])
        right_keyed = right_state.within(join_mask & right.__dict__["_raw_mask"])
        key = (right_state, id(predicate), left_keyed, right_keyed)
        hit = left_state.joins.get(key)
        if hit is not None and hit[0] is predicate and hit[1] is op:
            return hit[2]
        state = self.fd_table.intern(
            left_state.duplicate_free and right_state.duplicate_free,
            _combine_keys(op, left_state.keys, right_state.keys, left_keyed, right_keyed),
            self._join_equiv(op, left_state.equiv, right_state.equiv, predicate),
        )
        left_state.joins[key] = (predicate, op, state)
        return state

    def _join_equiv(self, op: OpKind, left_equiv, right_equiv, predicate: Expr):
        """Equivalence classes of a join that exposes both sides."""
        equiv = left_equiv + right_equiv
        if op is OpKind.INNER:
            # Only inner joins guarantee the equality for *every* output
            # row; outerjoin padding breaks it.
            equiv = _merge_equiv_cached(equiv, self._equality_pairs_of(predicate))
        return equiv

    # ------------------------------------------------------------------
    def leaf(self, vertex: int) -> PlanInfo:
        """Initial access path for one base relation (Fig. 5, lines 1–2)."""
        rel = self.query.relations[vertex]
        node: PlanNode = ScanNode(rel.name, rel.attributes)
        cardinality = float(rel.cardinality)
        local = self.query.local_predicates.get(vertex)
        if local is not None:
            predicate, selectivity = local
            node = SelectNode(predicate, node)
            cardinality *= selectivity
        mask = 1 << vertex
        terms = {
            name: self.original_calls[name]
            for name, source in self.term_sources.items()
            if source == mask
        }
        distinct = {a: rel.distinct_count(a) for a in rel.attributes}
        return PlanInfo(
            node=node,
            rel_set=mask,
            cost=self.cost_model.scan(cardinality),  # 0 under Cout (Sec. 4.4)
            cardinality=cardinality,
            keys=_minimal_keys(rel.all_keys()),
            duplicate_free=rel.duplicate_free,
            raw_attrs=frozenset(rel.attributes),
            distinct=distinct,
            terms=terms,
            scale_cols=(),
            defaults={},
            eagerness=0,
        )

    # ------------------------------------------------------------------
    def join(
        self,
        left: PlanInfo,
        right: PlanInfo,
        op: OpKind,
        predicate: Expr,
        selectivity: float,
        groupjoin_vector: Optional[AggVector] = None,
    ) -> Optional[PlanInfo]:
        """Join two plans; returns ``None`` if the aggregation state cannot
        be maintained.  Price, then construct — the DP driver runs the two
        steps apart and skips the second for candidates its strategy
        discards on price."""
        priced = self.price(left, right, op, predicate, selectivity, groupjoin_vector)
        return None if priced is None else self.construct(priced)

    def price(
        self,
        left: PlanInfo,
        right: PlanInfo,
        op: OpKind,
        predicate: Expr,
        selectivity: float,
        groupjoin_vector: Optional[AggVector] = None,
    ) -> Optional[PricedJoin]:
        """Validity, cardinality, cost and eagerness of ``left op right``
        without building it; ``None`` when the join is invalid.

        Validity is decided here, completely: a priced candidate always
        constructs.  (Term ⊗-scaling cannot fail — :class:`Query`
        normalises plain ``avg`` away, and decomposition and scaling only
        ever produce sum/min/max stages.)
        """
        gj_vector = groupjoin_vector
        if op is OpKind.GROUPJOIN and gj_vector is not None and right.scale_cols:
            # The groupjoin's own vector absorbs the right side's scale columns.
            try:
                gj_vector = scale_vector(gj_vector, right.scale_cols)
            except NotScalableError:
                return None
        needed_raw = self._fresh_terms(left.rel_set, right.rel_set, op in _LEFT_ONLY)[1]
        if needed_raw and not needed_raw <= _join_raw_attrs(op, left, right, gj_vector):
            return None  # raw inputs no longer available

        priced = PricedJoin()
        priced.builder = self
        priced.left = left
        priced.right = right
        priced.op = op
        priced.predicate = predicate
        priced.groupjoin_vector = gj_vector
        priced.cardinality = cardinality = self._join_cardinality(
            op, left, right, predicate, selectivity
        )
        priced.cost = left.cost + right.cost + self.cost_model.join(op, cardinality, left, right)
        # The paper's *Eagerness* (Sec. 4.5): Γ nodes directly below the join.
        priced.eagerness = _is_grouping(left) + _is_grouping(right)
        priced.duplicate_free = left.duplicate_free and (
            op in _LEFT_ONLY or right.duplicate_free
        )
        priced._state = None
        return priced

    def construct(self, priced: PricedJoin) -> PlanInfo:
        """Materialise a priced candidate: plan node, aggregation state,
        statistics dictionaries — reusing the numbers it was priced with."""
        left, right, op = priced.left, priced.right, priced.op
        if type(left) is PricedGroup:
            left = self.construct_group(left)
        if type(right) is PricedGroup:
            right = self.construct_group(right)
        left_only = op in _LEFT_ONLY

        # --- aggregation state -----------------------------------------
        terms: Dict[str, AggCall] = {}
        if left_only:
            # Semi/antijoin: the right side contributes no rows, so left
            # multiplicities are unchanged (Eqvs. 37/38).  Groupjoin: every
            # left tuple appears exactly once.  No ⊗ scaling either way.
            terms.update(left.terms)
        else:
            for name, call in left.terms.items():
                terms[name] = _scale_call_cached(call, right.scale_cols)
            for name, call in right.terms.items():
                terms[name] = _scale_call_cached(call, left.scale_cols)
        result_scale = priced.scale_cols
        # Materialise terms whose sources are first fully covered here
        # (cross-side aggregates and groupjoin-output aggregates).
        for name in self._fresh_terms(left.rel_set, right.rel_set, left_only)[0]:
            terms[name] = _scale_call_cached(self.original_calls[name], result_scale)

        # --- plan node ---------------------------------------------------
        left_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
        right_defaults: Tuple[Tuple[str, SqlValue], ...] = ()
        if op is OpKind.FULL_OUTER:
            left_defaults = tuple(sorted(left.defaults.items()))
            right_defaults = tuple(sorted(right.defaults.items()))
        elif op is OpKind.LEFT_OUTER:
            right_defaults = tuple(sorted(right.defaults.items()))
        node = JoinNode(
            op=op,
            predicate=priced.predicate,
            left=left.node,
            right=right.node,
            left_defaults=left_defaults,
            right_defaults=right_defaults,
            groupjoin_vector=priced.groupjoin_vector,
        )

        # --- statistics ---------------------------------------------------
        distinct = dict(left.distinct)
        if not left_only:
            distinct.update(right.distinct)
        defaults = dict(left.defaults)
        if op not in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI):
            defaults.update(right.defaults)

        state = priced.state
        plan = PlanInfo(
            node=node,
            rel_set=priced.rel_set,
            cost=priced.cost,
            cardinality=priced.cardinality,
            keys=state.keys,
            duplicate_free=priced.duplicate_free,
            raw_attrs=priced.raw_attrs,
            distinct=distinct,
            terms=terms,
            scale_cols=result_scale,
            defaults=defaults,
            eagerness=priced.eagerness,
            equiv=state.equiv,
        )
        self._attach(plan, state)
        return plan

    def _fresh_terms(
        self, left_set: int, right_set: int, left_only: bool
    ) -> Tuple[Tuple[str, ...], FrozenSet[str]]:
        """Aggregates whose sources are first fully covered by joining the
        two relation sets, and the raw attributes they read.

        A plan for relation set S carries exactly the terms with source ⊆ S
        (leaves start that way; ``join`` and ``group`` preserve it), so the
        answer depends on the sets alone — except that the left-only
        operators drop the right side's terms, which then count as fresh.
        Without a spanning source, both-sided operators skip the memo.
        """
        if not left_only and not self._spanning_sources:
            return _NO_FRESH_TERMS
        key = (left_set, right_set, left_only)
        cached = self._fresh_terms_cache.get(key)
        if cached is None:
            mask = left_set | right_set
            names = tuple(
                name
                for name, source in self.term_sources.items()
                if not source & ~mask
                and source & ~left_set
                and (left_only or source & ~right_set)
            )
            needed_raw: FrozenSet[str] = frozenset().union(
                *(self.original_calls[name].attributes() for name in names)
            )
            cached = self._fresh_terms_cache[key] = (names, needed_raw)
        return cached

    def _join_cardinality(
        self,
        op: OpKind,
        left: PlanInfo,
        right: PlanInfo,
        predicate: Expr,
        selectivity: float,
    ) -> float:
        """Result-size estimate; existence-test terms use *distinct* join
        value counts, which are invariants of the relation set (see
        :mod:`repro.cardinality.estimate`)."""
        l_card, r_card = left.cardinality, right.cardinality
        if op is OpKind.INNER:
            return join_cardinality(l_card, r_card, selectivity)
        join_attrs = self._attrs_of(predicate)
        d_right = domain_product(
            [a for a in join_attrs if a in right.raw_attrs], right.distinct
        )
        d_left = domain_product(
            [a for a in join_attrs if a in left.raw_attrs], left.distinct
        )
        if op is OpKind.LEFT_OUTER:
            return outerjoin_cardinality(
                l_card, r_card, selectivity, full=False, right_join_values=d_right
            )
        if op is OpKind.FULL_OUTER:
            return outerjoin_cardinality(
                l_card, r_card, selectivity, full=True,
                right_join_values=d_right, left_join_values=d_left,
            )
        if op is OpKind.LEFT_SEMI:
            return semijoin_cardinality(l_card, r_card, selectivity, right_join_values=d_right)
        if op is OpKind.LEFT_ANTI:
            return antijoin_cardinality(l_card, r_card, selectivity, right_join_values=d_right)
        if op is OpKind.GROUPJOIN:
            return l_card
        raise AssertionError(op)

    # ------------------------------------------------------------------
    def grouped(self, plan: PlanInfo) -> Optional["PricedGroup"]:
        """``Γ_{G⁺}(plan)`` for OpTrees (Fig. 6), priced once per plan.

        ``G⁺`` — the attributes still needed above the plan's relation set —
        depends on the plan alone, so every csg-cmp-pair and every partner
        the plan meets shares the one :class:`PricedGroup` (``None`` when
        invalid); :meth:`construct` builds it when it builds a join that
        reads it.  The memo is the builder's, keyed by the plan's ``id``
        and holding the plan: nothing rides on the plan, and the plan and
        its grouping never point at each other.
        """
        hit = self._groupings.get(id(plan))
        if hit is not None and hit[0] is plan:
            return hit[1]
        grouping = self._price_group(plan, self.needed_above(plan.rel_set) & plan.raw_attrs)
        self._groupings[id(plan)] = (plan, grouping)
        return grouping

    def group(self, plan: PlanInfo, group_attrs: FrozenSet[str]) -> Optional[PlanInfo]:
        """Push an eager grouping ``Γ_{G⁺}`` onto *plan* (the ``Valid`` +
        construction step of OpTrees, Fig. 6): price it, then build it.

        Returns ``None`` when invalid: a term is neither decomposable nor
        preserved raw by the grouping attributes.
        """
        grouping = self._price_group(plan, group_attrs)
        return None if grouping is None else self.construct_group(grouping)

    def _price_group(
        self, plan: PlanInfo, group_attrs: FrozenSet[str]
    ) -> Optional["PricedGroup"]:
        """Validity, cost, cardinality and column names of ``Γ_{group_attrs}(plan)``."""
        group_attrs = frozenset(group_attrs)
        suffix = self._fresh_suffix()  # taken even when invalid, as column names always were
        for call in plan.terms.values():
            # A decomposable, non-avg term always decomposes; any other
            # survives verbatim only if duplicate-agnostic and over the
            # grouping attributes.
            if not (call.decomposable and call.kind is not AggKind.AVG) and not (
                call.duplicate_agnostic and call.attributes() <= group_attrs
            ):
                return None

        scale_cols: Tuple[str, ...] = ()
        new_count: Optional[AggCall] = None
        if self._need_count(plan.rel_set):
            count_call = _scale_call_cached(AggCall(AggKind.COUNT_STAR), plan.scale_cols)
            # Sec. 3.1.1: "since there already exists one count(*) ... we
            # keep only one of them" — a term equal to the count is
            # decomposable, and its inner stage is the term itself.
            count_name = next(
                (name for name, call in plan.terms.items() if call == count_call), None
            )
            if count_name is None:
                count_name, new_count = "#cnt", count_call
            scale_cols = (f"{count_name}{suffix}",)

        g_plus = _ordered(group_attrs)
        domain = distinct_after(g_plus, plan.distinct, plan.cardinality)
        cardinality = grouping_cardinality(plan.cardinality, domain)
        return PricedGroup(
            plan=plan,
            g_plus=g_plus,
            suffix=suffix,
            new_count=new_count,
            scale_cols=scale_cols,
            cost=plan.cost + self.cost_model.group(cardinality, plan),  # Cout adds |Γ(e)|
            cardinality=cardinality,
            raw_attrs=group_attrs,
            # Distinct counts stay *uncapped* in storage: they are
            # relation-set invariants, which keeps existence-test estimates
            # identical across all plans of a set (a precondition for sound
            # dominance pruning).
            distinct={a: plan.distinct.get(a, plan.cardinality) for a in g_plus},
        )

    def construct_group(self, grouping: "PricedGroup") -> PlanInfo:
        """Build a priced grouping — once: the plan is kept on the record.
        It shares the record's numbers, ``raw_attrs``, ``distinct``, keys
        and classes."""
        built = grouping.built
        if built is not None:
            return built
        plan, suffix = grouping.plan, grouping.suffix
        inner_items: List[AggItem] = []
        terms: Dict[str, AggCall] = {}
        defaults: Dict[str, SqlValue] = {}
        for name, call in plan.terms.items():
            if call.decomposable and call.kind is not AggKind.AVG:
                inner_name = f"{name}{suffix}"
                inner, outer = decompose_call(call, inner_name)
                inner_items.append(AggItem(inner_name, inner))
                terms[name] = outer
                defaults[inner_name] = self.term_defaults[name]
            else:
                terms[name] = call  # kept raw (pricing checked it may be)
        if grouping.new_count is not None:
            count_name = grouping.scale_cols[0]
            inner_items.append(AggItem(count_name, grouping.new_count))
            defaults[count_name] = 1
        built = grouping.built = PlanInfo(
            node=GroupByNode(
                group_attrs=grouping.g_plus, vector=AggVector(inner_items), child=plan.node
            ),
            rel_set=plan.rel_set,
            cost=grouping.cost,
            cardinality=grouping.cardinality,
            keys=grouping.keys,
            duplicate_free=True,
            raw_attrs=grouping.raw_attrs,
            distinct=grouping.distinct,
            terms=terms,
            scale_cols=grouping.scale_cols,
            defaults=defaults,
            eagerness=0,
            equiv=grouping.equiv,
        )
        return built

    def _need_count(self, mask: int) -> bool:
        """Whether a pushed grouping on *mask* must carry a count column:
        some aggregate outside (or straddling) *mask* is duplicate
        sensitive and will need ⊗ scaling, or the grouping sits inside a
        groupjoin's right subtree whose vector F̂ is duplicate sensitive."""
        for name, source in self.term_sources.items():
            if source & ~mask and self.original_calls[name].duplicate_sensitive:
                return True
        for right_mask, sensitive in self._gj_scaling:
            if sensitive and mask & right_mask and not mask & ~right_mask:
                return True
        return False

    # ------------------------------------------------------------------
    def _top_grouping(self, plan) -> Optional[float]:
        """Estimated size of the top grouping over *plan* (a
        :class:`PlanInfo` or a :class:`PricedJoin`), or ``None`` when
        ``NeedsGrouping`` is false and Eqv. 42 eliminates it."""
        if not needs_grouping(self._top_group_attrs, plan):
            return None
        domain = distinct_after(self.query.group_by, plan.distinct, plan.cardinality)
        return grouping_cardinality(plan.cardinality, domain)

    def top_cost(self, plan) -> float:
        """The cost :meth:`finish_top` would report for *plan*, without
        building anything — *plan* may be a :class:`PricedJoin`."""
        cardinality = self._top_grouping(plan)
        if cardinality is None:
            return plan.cost
        return plan.cost + self.cost_model.group(cardinality, plan)

    def finish_top(self, plan: PlanInfo) -> PlanInfo:
        """Finalise a plan for the full relation set: add the top grouping,
        or eliminate it via Eqv. 42 when ``NeedsGrouping`` is false."""
        group_attrs = self._top_group_attrs
        names = [item.name for item in self.query.normalized.vector]
        post = self.query.normalized.post
        out_attrs = tuple(self.query.group_by) + tuple(name for name, _ in post)

        cardinality = self._top_grouping(plan)
        if cardinality is None:
            # Π_C(χ_F̂(e)) — the top grouping would see singleton groups.
            extensions = tuple((name, single_row_expr(plan.terms[name])) for name in names)
            node: PlanNode = MapNode(extensions, plan.node)
            avg_exprs = tuple((name, expr) for name, expr in post if name not in set(names))
            if avg_exprs:
                node = MapNode(avg_exprs, node)
            node = ProjectNode(out_attrs, node)
            return replace(
                plan,
                node=node,
                raw_attrs=frozenset(out_attrs),
                keys=_minimal_keys(tuple(k for k in plan.keys if k <= frozenset(out_attrs))),
            )

        vector = AggVector(AggItem(name, plan.terms[name]) for name in names)
        node = GroupByNode(
            group_attrs=tuple(self.query.group_by),
            vector=vector,
            child=plan.node,
            post=tuple(post) if _has_avg_post(post, names) else (),
        )
        return PlanInfo(
            node=node,
            rel_set=plan.rel_set,
            cost=plan.cost + self.cost_model.group(cardinality, plan),
            cardinality=cardinality,
            keys=(group_attrs,) if group_attrs else (frozenset(),),
            duplicate_free=True,
            raw_attrs=frozenset(node.attributes),
            distinct={a: min(plan.distinct.get(a, cardinality), cardinality) for a in group_attrs},
            terms={},
            scale_cols=(),
            defaults={},
            eagerness=plan.eagerness,
        )


def _has_avg_post(post, names) -> bool:
    """True when the post projections do more than pass names through."""
    for name, expr in post:
        if not (isinstance(expr, Attr) and expr.name == name):
            return True
    return False


def _is_grouping(plan) -> bool:
    """Whether *plan* is an eager grouping, priced or built — what a join
    on top of it counts toward its *Eagerness*."""
    return type(plan) is PricedGroup or isinstance(plan.node, GroupByNode)


class _NeededAbove(dict):
    """``query.needed_above`` by relation set, each computed once.  Holds
    the query, not the builder, so the FD table can share it without
    pointing at the builder."""

    __slots__ = ("query",)

    def __init__(self, query: Query) -> None:
        super().__init__()
        self.query = query

    def __missing__(self, mask: int) -> FrozenSet[str]:
        value = self[mask] = self.query.needed_above(mask)
        return value


def _ordered(attrs: FrozenSet[str]) -> Tuple[str, ...]:
    """Stable (sorted) ordering of grouping attributes."""
    return tuple(sorted(attrs))


@lru_cache(maxsize=65536)
def _pairwise_keys(
    keys1: Tuple[FrozenSet[str], ...], keys2: Tuple[FrozenSet[str], ...]
) -> Tuple[FrozenSet[str], ...]:
    combined = [k1 | k2 for k1 in keys1 for k2 in keys2]
    return _minimal_keys(combined)


def _join_raw_attrs(
    op: OpKind, left: PlanInfo, right: PlanInfo, gj_vector: Optional[AggVector]
) -> FrozenSet[str]:
    if op in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI):
        return left.raw_attrs
    if op is OpKind.GROUPJOIN:
        assert gj_vector is not None
        return left.raw_attrs | frozenset(gj_vector.names())
    return left.raw_attrs | right.raw_attrs


def _combine_keys(
    op: OpKind,
    left_keys: Tuple[FrozenSet[str], ...],
    right_keys: Tuple[FrozenSet[str], ...],
    left_keyed: bool,
    right_keyed: bool,
) -> Tuple[FrozenSet[str], ...]:
    """κ of a join exposing both sides, given whether each side is keyed
    on its join attributes."""
    if op is OpKind.INNER:
        if left_keyed and right_keyed:
            return _minimal_keys(left_keys + right_keys)
        if left_keyed:
            return right_keys
        if right_keyed:
            return left_keys
        return _pairwise_keys(left_keys, right_keys)
    if op is OpKind.LEFT_OUTER:
        if right_keyed:
            return left_keys
        return _pairwise_keys(left_keys, right_keys)
    # full outerjoin: always combine (Sec. 2.3.3)
    return _pairwise_keys(left_keys, right_keys)


def _closure(equiv: Tuple[FrozenSet[str], ...], attrs: FrozenSet[str]) -> FrozenSet[str]:
    """*attrs* plus everything equal to them (classes are disjoint, so one
    pass suffices)."""
    out = set(attrs)
    for cls in equiv:
        if cls & out:
            out |= cls
    return frozenset(out)
