"""Order-exact gate: the columnar pairing / grouping kernels against the
interpreter's operators.

``_group_rows`` works on codes — exact lanes factorised, key codes
otherwise — and a hash join on one code space over both sides: exact
lanes factorised, one dictionary over both sides' values otherwise.
``limit`` truncates their emission order, so each must return what
:mod:`repro.algebra.operators` returns *in the same order*, not just the
same row set: the pairs ``ops.join`` emits over row-tagged relations
under the equality conjuncts, the groups ``ops.group_by`` buckets by
``Row.values_for`` (first-occurrence order, members in input order),
and for every join kind, with and without a residual and a limit, the
operator's rows, values and types.  Seeded batches mix ints, integral
and non-integral floats (``1`` vs ``1.0``, ``-0.0``), bools, NULLs,
strings and a NaN object, duplicate-heavy and empty; hand-built ones
bring the keys a dictionary has to get right (pads, prefixes, strings,
mixed types, NaN objects, ints beyond 2^53) and the numeric keys on
either side of the dense-range bound, where ``_factorised`` /
``_combined`` switch from subtraction to a sort.

``ops`` is quadratic and walks rows, so the ``--runslow`` twins and the
16-bit sort cases (≈ 11k rows a side) compare against linear references
which every tier-1 case asserts equal to ``ops``: dict buckets for pairs
and groups (:func:`reference_pairs`, :func:`reference_groups`), and for
the join kinds :func:`bucketed` — the same ``ops`` operator, called
once per join key on the rows that hold it.

The seeded pools are duplicate-heavy, so in them a join almost never
has a side without a repeated key, and the end-to-end benchmark sends no
residual, no groupjoin and no two-column unique key: the second half of
the file builds sides that are unique on the right, the left, both and
neither, and pins the sorts on either side of 16 bits.  Every join's
path — membership test, lookup, run expansion; radix or wide sort — is
counted by monkeypatch (the ``taken`` fixture): a join that pairs
without one fails, and so does a case that silently falls to the
general path.
"""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from repro.aggregates.calls import AggCall, AggKind, count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra import operators as ops
from repro.algebra.expressions import Attr, BinOp, conjunction
from repro.algebra.relation import Relation
from repro.algebra.values import NULL, group_key
from repro.data.tables import ColumnTable
from repro.exec import columnar, run_plan
from repro.exec.columnar import (
    RADIX_WIDTH,
    _dense_width,
    _group_rows,
    _hash_pairs,
    execute_physical,
)
from repro.exec.columns import Batch, Column
from repro.exec.physical import PhysHashJoin, PhysLimit, PhysScan
from repro.plans.nodes import GroupByNode, JoinNode, ScanNode
from repro.rewrites.pushdown import OpKind

#: value pools; every key of a case is drawn from one of them
NUMERIC = [0, 1, 1.0, 2, 2.5, -0.0, 0.0, 3, True, False, -7, 1e3, NULL, NULL]
STRINGS = ["a", "b", "", "a", NULL]
MIXED = NUMERIC + STRINGS + [float("nan")]  # one NaN object: it groups, it never pairs
POOLS = {"numeric": NUMERIC, "strings": STRINGS, "mixed": MIXED}

JOIN_KINDS = [
    OpKind.INNER,
    OpKind.LEFT_OUTER,
    OpKind.FULL_OUTER,
    OpKind.LEFT_SEMI,
    OpKind.LEFT_ANTI,
    OpKind.GROUPJOIN,
]

#: the row tags of the relations the operators see
LEFT_TAG, RIGHT_TAG = "l#", "r#"


def _named(prefix, columns):
    return {f"{prefix}.{i}": column for i, column in enumerate(columns)}


def batch(prefix, columns):
    """A scan batch over *columns*, as a base table hands it out."""
    return ColumnTable(prefix, _named(prefix, columns)).as_batch()


def draw(rng, pool, rows, width):
    return [[rng.choice(pool) for _ in range(rows)] for _ in range(width)]


def cases(seeds, sizes):
    for seed in seeds:
        for pool in POOLS:
            for width in (1, 2):
                for left_rows, right_rows in sizes:
                    yield seed, pool, width, left_rows, right_rows


SMALL = [(0, 0), (0, 5), (5, 0), (1, 1), (12, 9), (40, 40)]
LARGE = SMALL + [(300, 7), (7, 300), (400, 400)]


def plain(vector):
    return [int(i) for i in vector]


def typed(relation, attributes=None):
    """Rows in order, every value with its type: ``1`` is not ``1.0`` here."""
    return [
        [(type(row[a]).__name__, row[a]) for a in attributes or relation.attributes]
        for row in relation.rows
    ]


def tagged(relation, tag):
    """*relation* with each row's position under *tag*."""
    rows = [row.extended({tag: i}) for i, row in enumerate(relation.rows)]
    return Relation(relation.attributes + (tag,), rows)


def equalities(left_keys, right_keys):
    return [BinOp("=", Attr(l), Attr(r)) for l, r in zip(left_keys, right_keys)]


def reference_pairs(left_keys, right_keys):
    """The equi-join pairs of two sides' key columns (value lists) by
    dict buckets: left-major, partners in right-input order, a key with
    a NULL or a value not equal to itself (NaN) in no bucket."""
    buckets = {}
    for j, key in enumerate(zip(*right_keys)):
        if all(v is not NULL and v == v for v in key):
            buckets.setdefault(key, []).append(j)
    pairs = [(i, j) for i, key in enumerate(zip(*left_keys)) for j in buckets.get(key, ())]
    return [i for i, _ in pairs], [j for _, j in pairs]


def reference_groups(columns):
    """The groups of the rows of *columns* (value lists) bucketed as
    ``Row.values_for`` keys them: first-occurrence order, members in
    input order."""
    groups = {}
    for i, key in enumerate(zip(*columns)):
        groups.setdefault(tuple(map(group_key, key)), []).append(i)
    return list(groups.values())


def bucketed(operator, left_keys, right_keys):
    """*operator* — an ``ops`` join over row-tagged relations — called
    once per join key on the rows that hold it: rows whose keys differ
    never pair, and a key with a NULL or a NaN pairs with nothing, so
    those are all the calls it needs.  Linear where ``ops`` is
    quadratic, and the same rows in the same order: by left row, each
    one's partners as one call emitted them, then a full outer join's
    right-only rows by right row."""

    def run(left, right, predicate):
        parts = {}
        for side, relation, keys in ((0, left, left_keys), (1, right, right_keys)):
            for row in relation:
                key = tuple(row[k] for k in keys)
                if not all(v is not NULL and v == v for v in key):
                    key = object()  # pairs with nothing: a part of its own
                parts.setdefault(key, ([], []))[side].append(row)
        out = operator(Relation(left.attributes), Relation(right.attributes), predicate)
        rows = [
            row
            for lrows, rrows in parts.values()
            for row in operator(
                Relation(left.attributes, lrows), Relation(right.attributes, rrows), predicate
            )
        ]
        rows.sort(key=order)
        return Relation(out.attributes, rows)

    def order(row):
        right_only = row[LEFT_TAG] is NULL
        return right_only, row[RIGHT_TAG if right_only else LEFT_TAG]

    return run


def value_lists(batch, attributes):
    return [batch.column(a).values for a in attributes]


def same_pairs(left, right, left_keys, right_keys, slow=False):
    """``_hash_pairs`` == the reference's pairs == (unless *slow*) the
    pairs ``ops.join`` emits under the equality conjuncts, over
    row-tagged relations — a self-join's right side re-labelled."""
    pairs = tuple(plain(vector) for vector in _hash_pairs(left, right, left_keys, right_keys))
    assert pairs == reference_pairs(value_lists(left, left_keys), value_lists(right, right_keys))
    if not slow:
        lrel, rrel = left.to_relation(), right.to_relation()
        if set(lrel.attributes) & set(rrel.attributes):
            renamed = {a: a + "'" for a in rrel.attributes}
            rrel, right_keys = ops.rename(rrel, renamed), tuple(renamed[k] for k in right_keys)
        joined = ops.join(
            tagged(lrel, LEFT_TAG),
            tagged(rrel, RIGHT_TAG),
            conjunction(equalities(left_keys, right_keys)),
        )
        assert pairs == ([row[LEFT_TAG] for row in joined], [row[RIGHT_TAG] for row in joined])
    return pairs


def check_pairs(seed, pool, width, left_rows, right_rows, taken, slow):
    rng = random.Random(f"{seed}:{pool}:{width}:{left_rows}:{right_rows}")
    left = batch("l", draw(rng, POOLS[pool], left_rows, width + 1))
    right = batch("r", draw(rng, POOLS[pool], right_rows, width + 1))
    taken.clear()
    same_pairs(left, right, left.attributes[:width], right.attributes[:width], slow)
    assert len(taken.paths) == 1


def expanded(runs):
    """Runs as member lists — and they must tile their row vector."""
    order, starts, ends = (plain(part) for part in runs)
    assert starts == ([0] + ends[:-1] if ends else [])
    assert (ends[-1] if ends else 0) == len(order)
    return [order[start:end] for start, end in zip(starts, ends)]


class Members:
    """An aggregation vector for ``ops.group_by`` that keeps every
    group's row tags."""

    def names(self):
        return ("members",)

    def evaluate(self, rows):
        return {"members": [row[LEFT_TAG] for row in rows]}


def same_groups(child, group_attrs, slow=False):
    """``_group_rows`` == the reference's groups == (unless *slow*) the
    groups ``ops.group_by`` buckets, in order."""
    firsts, runs = _group_rows(child, group_attrs)
    groups = expanded(runs)
    assert groups == reference_groups(value_lists(child, group_attrs))
    assert plain(firsts) == [members[0] for members in groups]
    if not slow:
        grouped = ops.group_by(tagged(child.to_relation(), LEFT_TAG), group_attrs, Members())
        assert groups == [row["members"] for row in grouped]
    return groups


def check_groups(seed, pool, width, rows, _unused, taken, slow):
    rng = random.Random(f"{seed}:{pool}:{width}:{rows}")
    child = batch("t", draw(rng, POOLS[pool], rows, width + 1))
    same_groups(child, child.attributes[:width], slow)


def run_both(plan, database):
    """A logical *plan*'s rows on the columnar executor — asserted to be
    the interpreter's, in the same order, with the same types."""
    rows = typed(run_plan(plan, database, executor="columnar"))
    assert rows == typed(run_plan(plan, database, executor="interpreter")), plan.label()
    return rows


def operator_of(kind, right_defaults, vector):
    """The ``ops`` function of join *kind*, as ``f(left, right, predicate)``."""
    return {
        OpKind.INNER: ops.join,
        OpKind.LEFT_OUTER: lambda l, r, p: ops.left_outerjoin(l, r, p, right_defaults),
        OpKind.FULL_OUTER: lambda l, r, p: ops.full_outerjoin(l, r, p, None, right_defaults),
        OpKind.LEFT_SEMI: ops.semijoin,
        OpKind.LEFT_ANTI: ops.antijoin,
        OpKind.GROUPJOIN: lambda l, r, p: ops.groupjoin(l, r, p, vector),
    }[kind]


def same_joins(left, right, width, taken, slow=False):
    """Every join kind over the first *width* columns of two tables,
    with and without a residual, with and without a limit: the executor
    emits the operator's rows in the operator's order — :func:`bucketed`'s,
    and unless *slow* the whole-input operator's too.  Returns
    ``{(kind, has residual): the pairing path the join took}``."""
    database = {"L": left, "R": right}
    keys = left.attributes[:width], right.attributes[:width]
    residual = BinOp("<=", Attr(left.attributes[-1]), Attr(right.attributes[-1]))
    vector = AggVector(
        [AggItem("n", count_star()), AggItem("s", sum_(Attr(right.attributes[-1])))]
    )
    defaults = {right.attributes[-1]: 0}
    relations = tagged(left.to_relation(), LEFT_TAG), tagged(right.to_relation(), RIGHT_TAG)
    paths = {}
    for kind in JOIN_KINDS:
        operator = operator_of(kind, defaults, vector)
        for predicate in (None, residual):
            join = PhysHashJoin(
                kind,
                *keys,
                predicate,
                PhysScan("L", left.attributes),
                PhysScan("R", right.attributes),
                right_defaults=tuple(defaults.items()),
                groupjoin_vector=vector if kind is OpKind.GROUPJOIN else None,
            )
            conjuncts = equalities(*keys) + ([] if predicate is None else [predicate])
            condition = conjunction(conjuncts)
            want = typed(bucketed(operator, *keys)(*relations, condition), join.attributes)
            if not slow:
                assert typed(operator(*relations, condition), join.attributes) == want
            for plan, limit in ((join, None), (PhysLimit(3, join), 3)):
                taken.clear()
                assert typed(execute_physical(plan, database).to_relation()) == want[:limit], (
                    join.label()
                )
                (path,) = taken.paths  # one join, one path — the same under a limit
                assert paths.setdefault((kind, predicate is not None), path) == path
    return paths


def check_joins(seed, pool, width, left_rows, right_rows, taken, slow):
    rng = random.Random(f"join:{seed}:{pool}:{width}:{left_rows}:{right_rows}")
    small = [1, 2, 3, NULL]
    left, right = (
        ColumnTable(
            prefix.upper(),
            _named(prefix, draw(rng, POOLS[pool], rows, width) + draw(rng, small, rows, 1)),
        )
        for prefix, rows in (("l", left_rows), ("r", right_rows))
    )
    same_joins(left, right, width, taken, slow)


@pytest.mark.parametrize("check", [check_pairs, check_groups, check_joins])
def test_kernels_agree_in_order(check, taken):
    for case in cases(range(3), SMALL):
        check(*case, taken, False)


@pytest.mark.slow
@pytest.mark.parametrize("check", [check_pairs, check_groups, check_joins])
def test_kernels_agree_in_order_exhaustive(check, taken):
    for case in cases(range(3, 13), LARGE):
        check(*case, taken, True)


def test_keys_without_exact_lanes_pair_on_codes(taken):
    """Strings, mixed types, NaN objects and ints beyond 2^53 have no
    exact lanes: one dictionary over both sides codes them, a NULL or a
    NaN pairs with nothing — not even the same NaN object on the other
    side of a self-join — and every join takes a counted path."""
    nan, other_nan = float("nan"), float("nan")
    for odd in (["a", 1], [nan, 1.0], [2**53 + 1, 1], [1, 10**400]):
        assert Column(odd).key_lanes() is None
    assert Column([2**53 - 1, -(2**53) + 1]).key_lanes() is not None
    big = 2**53
    for left_values, right_values, pairs in (
        (["a", "b", NULL, "a", ""], ["b", "a", "", NULL, "c"], ([0, 1, 3, 4], [1, 0, 1, 2])),
        (
            [1, "1", 1.0, True, NULL, "a"],
            ["1", 1, NULL, "a", 2.5],
            ([0, 1, 2, 3, 5], [1, 0, 1, 1, 3]),
        ),
        ([nan, 1.0, other_nan, nan, 2.5], [nan, 2.5, other_nan, 1], ([1, 4], [3, 1])),
        ([big, big + 1, 3, float(big)], [big + 1, big, 3.0], ([0, 1, 2, 3], [1, 0, 2, 1])),
    ):
        left = batch("l", [left_values, [i % 2 for i in range(len(left_values))]])
        right = batch("r", [right_values, [i % 3 for i in range(len(right_values))]])
        taken.clear()
        assert same_pairs(left, right, ("l.0",), ("r.0",)) == pairs
        same_pairs(left, right, left.attributes, right.attributes)  # beside an exact lane
        same_pairs(left, left, ("l.0",), ("l.0",))  # a self-join
        same_pairs(right, right, right.attributes, right.attributes)
        assert len(taken.paths) == 4
        same_joins(
            ColumnTable("L", _named("l", [left_values, [1] * len(left_values)])),
            ColumnTable("R", _named("r", [right_values, [2] * len(right_values)])),
            1,
            taken,
        )
        same_groups(left, ("l.0",))
        same_groups(right, right.attributes)


def index(rows):
    return np.asarray(rows, dtype=np.intp)


def test_group_keys_arriving_through_takes():
    """A late take groups by a gather of its parent's codes: plain and
    composed takes, ``Batch.head``'s ``range``, and an outer join's pads —
    NULL, a default the dictionary already holds, one it does not."""
    base = batch("t", [["a", "b", NULL, "a", "", "b"], [1, "x", 1.0, NULL, "x", True]])
    attrs = base.attributes
    taken = base.take(index([5, 3, 3, 0, 2, 1, 4]))
    for child in (taken, taken.take(index([6, 0, 0, 2, 5])), base.head(4), taken.head(3)):
        for group_attrs in (attrs[:1], attrs[1:], attrs):
            same_groups(child, group_attrs)
    slots = index([0, -1, 2, 3, -1, 1, -1])
    for pad in (NULL, "a", "zz", 0, float("nan")):
        columns = {a: base.column(a).take_padded(slots, pad) for a in attrs}
        padded = Batch(attrs, columns, len(slots))
        groups = [same_groups(padded, group_attrs) for group_attrs in (attrs[:1], attrs[1:], attrs)]
        if pad == "zz":  # a fresh entry: the padded rows are a group of their own
            assert groups[0] == [[0, 3], [1, 4, 6], [2], [5]]
        if pad == "a":  # the dictionary's own entry: they join its group
            assert groups[0] == [[0, 1, 3, 4, 6], [2], [5]]
        # and once more over a take of the padded rows
        same_groups(padded.take(index([6, 5, 4, 3, 2, 1, 0, 0])), attrs)


def test_group_keys_a_dictionary_has_to_get_right():
    nan, other_nan = float("nan"), float("nan")
    for values, groups in (
        ([NULL, NULL, NULL], [[0, 1, 2]]),  # all NULL: one group
        ([], []),  # an empty batch: no group
        ([nan, 1.0, nan, nan], [[0, 2, 3], [1]]),  # one NaN object is one key
        ([nan, other_nan, nan], [[0, 2], [1]]),  # two NaN objects are two
        ([2**53, 2**53 + 1, 2**53, float(2**53)], [[0, 2, 3], [1]]),
        ([1, True, 1.0, "1", NULL, 0, False, -0.0], [[0, 1, 2], [3], [4], [5, 6, 7]]),
    ):
        child = batch("t", [values, list(range(len(values)))])
        assert same_groups(child, ("t.0",)) == groups
        same_groups(child, child.attributes)


def test_outer_join_pads_group_like_values():
    """Group by a string column an outer join padded — with NULL on the
    left keys, with a default on the right payload — end to end."""
    left = ColumnTable("L", {"l.k": [1, 2, 3, 4, NULL], "l.s": ["x", "y", "x", NULL, "y"]})
    right = ColumnTable("R", {"r.k": [2, 2, 5, NULL], "r.s": ["y", "none", "x", "q"]})
    join = JoinNode(
        OpKind.FULL_OUTER,
        BinOp("=", Attr("l.k"), Attr("r.k")),
        ScanNode("L", left.attributes),
        ScanNode("R", right.attributes),
        right_defaults=(("r.s", "none"),),
    )
    vector = AggVector([AggItem("n", count_star())])
    for group_attrs in (("r.s",), ("l.s",), ("l.s", "r.s"), ("l.s", "r.k")):
        rows = run_both(GroupByNode(group_attrs, vector, join), {"L": left, "R": right})
    assert rows[0] == [("str", "x"), ("Null", NULL), ("int", 2)]


ROWS = 16  # of every range-bound case below; _dense_width(16) is 1088


def range_columns(rng, rows=ROWS):
    """Numeric key columns on either side of the dense-range bound:
    ``name → (values, sorts)``, *sorts* being how many times grouping by
    that column alone has to fall back to ``np.unique``."""
    bound = _dense_width(rows)

    def spread(pool):
        return pool + [rng.choice(pool) for _ in range(rows - len(pool))]

    columns = {
        "dense": (spread([3, 40, -5, 7, 7, 12]), 0),
        "negative": (spread([-1000, -3, -999, -500, -3]), 0),
        "zeros": (spread([-0.0, 0.0, 0, False]), 0),  # one key, four spellings
        "integral floats": (spread([1.0, 2, 3.0, True, 2.0]), 0),
        "nulls": (spread([NULL, 5, 6, NULL, 1000]), 0),  # NULL rides the lane as 0.0
        "fractions": (spread([0.5, 1.5, 0.5, 2.25, 1]), 1),
        "sparse": (spread([0, 10**15, 5, 10**15]), 1),
        "infinite": (spread([float("inf"), 1.0, float("-inf"), 1.0]), 1),
    }
    # the widest dense code space is *bound*: the span, NULL's slot, and one
    for over in (-3, -2, -1, 0, 1):
        span = bound + over
        columns[f"span = bound{over:+d}"] = (spread([7, 7 + span, 8, 7]), int(span + 2 > bound))
    return columns


def test_dense_and_sorted_factorisation_agree(monkeypatch):
    """A key lane coded by subtraction and one coded by a sort give the
    same groups in the same order and the same pairs — on both sides of
    the bound, alone and combined with a second column."""
    rng = random.Random("ranges")
    columns = range_columns(rng)
    names = list(columns)
    child = batch("t", [columns[name][0] for name in names])
    other = batch("u", [rng.sample(columns[name][0], ROWS) for name in names])
    sorts = []
    sorted_codes = columnar._sorted_codes

    def counted(keys):
        sorts.append(len(keys))
        return sorted_codes(keys)

    monkeypatch.setattr(columnar, "_sorted_codes", counted)
    for i, name in enumerate(names):
        sorts.clear()
        groups = same_groups(child, (f"t.{i}",))
        assert len(sorts) == columns[name][1], name
        assert sorted(row for members in groups for row in members) == list(range(ROWS))
        same_pairs(child, other, (f"t.{i}",), (f"u.{i}",))
        for j in range(len(names)):
            same_groups(child, (f"t.{i}", f"t.{j}"))
            same_pairs(child, other, (f"t.{i}", f"t.{j}"), (f"u.{i}", f"u.{j}"))
    zeros, dense, wide = names.index("zeros"), names.index("dense"), names.index("span = bound-2")
    assert same_groups(child, (f"t.{zeros}",)) == [list(range(ROWS))]
    # a product of widths under the bound is kept as it is, one past it sorted
    for pair, expected_sorts in (((zeros, dense), 0), ((dense, wide), 1), ((wide, wide), 1)):
        sorts.clear()
        same_groups(child, tuple(f"t.{i}" for i in pair))
        assert len(sorts) == expected_sorts, pair


def test_a_groupjoin_folds_only_the_runs_that_have_rows():
    """The groupjoin's runs include empty ones — trailing ones too, whose
    start is the end of the pair vector — and they fold to ``count`` 0
    and NULL."""
    left = ColumnTable("L", {"l.k": [2, 7, 1, 2, 9, NULL, 8]})
    right = ColumnTable("R", {"r.k": [1, 2, 2, NULL], "r.v": [5, 1.0, 1, 4]})
    vector = AggVector(
        [
            AggItem("n", count_star()),
            AggItem("s", sum_(Attr("r.k"))),
            AggItem("low", AggCall(AggKind.MIN, Attr("r.v"))),
            AggItem("high", AggCall(AggKind.MAX, Attr("r.v"))),
        ]
    )
    rows = run_both(groupjoin(left, right, vector), {"L": left, "R": right})
    none = [("int", 0), ("Null", NULL), ("Null", NULL), ("Null", NULL)]
    assert [row[1:] for row in rows] == [
        [("int", 2), ("int", 4), ("float", 1.0), ("float", 1.0)],  # first of 1.0, 1
        none,
        [("int", 1), ("int", 1), ("int", 5), ("int", 5)],
        [("int", 2), ("int", 4), ("float", 1.0), ("float", 1.0)],
        none,
        none,
        none,
    ]


def groupjoin(left, right, vector):
    return JoinNode(
        OpKind.GROUPJOIN,
        BinOp("=", Attr("l.k"), Attr("r.k")),
        ScanNode("L", left.attributes),
        ScanNode("R", right.attributes),
        groupjoin_vector=vector,
    )


# -- only the pairs a join needs ---------------------------------------------

#: ``_sorted_pairs``' three ways, told apart by what one call of it calls:
#: (lookups, sorts)
PAIRING_PATHS = {(1, 0): "lookup-right", (1, 1): "lookup-left", (0, 1): "runs"}


class Taken:
    """What the kernels did: per hash join the pairing path it took, per
    ``_ordered`` call the width of the key space it sorted."""

    def __init__(self):
        self.paths, self.sorts = [], []

    def clear(self):
        self.paths.clear()
        self.sorts.clear()


@pytest.fixture
def taken(monkeypatch):
    """The paths counted by monkeypatch, so that a join which pairs
    without one, or a case which silently falls to the general path,
    fails."""
    log, calls = Taken(), Counter()
    lookup, ordered = columnar._lookup_pairs, columnar._ordered
    member, pairs = columnar._member_rows, columnar._sorted_pairs

    def counted_lookup(*args):
        calls["lookups"] += 1
        return lookup(*args)

    def counted_ordered(keys, width):
        calls["sorts"] += 1
        log.sorts.append(width)
        return ordered(keys, width)

    def counted_member(*args):
        log.paths.append("membership")
        return member(*args)

    def counted_pairs(*args):
        calls.clear()
        out = pairs(*args)
        log.paths.append(PAIRING_PATHS[calls["lookups"], calls["sorts"]])
        return out

    monkeypatch.setattr(columnar, "_lookup_pairs", counted_lookup)
    monkeypatch.setattr(columnar, "_ordered", counted_ordered)
    monkeypatch.setattr(columnar, "_member_rows", counted_member)
    monkeypatch.setattr(columnar, "_sorted_pairs", counted_pairs)
    return log


def pairing_path(left_keys, right_keys):
    """What ``_sorted_pairs`` has to do for these key columns, told from
    the python values: a side is unique when no key without a NULL
    repeats on it (``1 == 1.0 == True``, as a dict has it)."""

    def unique(columns):
        keys = [key for key in zip(*columns) if not any(v is NULL for v in key)]
        return len(set(keys)) == len(keys)

    if unique(right_keys):
        return "lookup-right"
    return "lookup-left" if unique(left_keys) else "runs"


#: which side(s) hold no key twice → the path of a join of two non-empty sides
SHAPES = {"right": "lookup-right", "left": "lookup-left", "both": "lookup-right", "neither": "runs"}


def keyed_side(rng, unique, rows, width, domain):
    """*width* key columns and a payload column of *rows* rows over the
    key tuples of *domain* — no tuple twice (*unique*) or few of them
    many times — in mixed int / float spelling, and then a quarter of
    the rows get a NULL into one key column: on a unique side NULL is
    the one key that repeats."""
    if unique:
        keys = rng.sample(domain, rows)
    else:
        hot = rng.sample(domain, max(2, rows // 3))
        keys = [rng.choice(hot) for _ in range(rows)]
    columns = [
        [v if rng.random() < 0.7 else float(v) for v in column] for column in zip(*keys)
    ] or [[] for _ in range(width)]
    for row in rng.sample(range(rows), rows // 4):
        columns[rng.randrange(width)][row] = NULL
    return columns + draw(rng, [1, 2, 3, NULL], rows, 1)


def check_unique_sides(seed, sizes, taken, slow):
    """Unique right, left, both, neither x one- and two-column keys: the
    pairs, and every join kind with and without a residual and a limit,
    order-exact — and each on the path its keys call for."""
    seen = Counter()
    for shape, width, (left_rows, right_rows) in product(SHAPES, (1, 2), sizes):
        rng = random.Random(f"unique:{seed}:{shape}:{width}:{left_rows}:{right_rows}")
        most = max(left_rows, right_rows)
        # two columns of 40 values each: their product leaves the dense
        # bound, so the joint codes come out of _combined's sort
        domain = (
            [(v,) for v in range(-2, 2 * most + 60)]
            if width == 1
            else list(product(range(0, 200, 5), repeat=2))
        )
        left = keyed_side(rng, shape in ("left", "both"), left_rows, width, domain)
        right = keyed_side(rng, shape in ("right", "both"), right_rows, width, domain)
        path = pairing_path(left[:width], right[:width])
        if min(left_rows, right_rows) >= 3:  # enough rows to repeat a key
            assert path == SHAPES[shape]
        taken.clear()
        same_pairs(
            batch("l", left), batch("r", right),
            tuple(f"l.{i}" for i in range(width)), tuple(f"r.{i}" for i in range(width)),
            slow,
        )
        assert taken.paths == [path]
        ran = same_joins(
            ColumnTable("L", _named("l", left)), ColumnTable("R", _named("r", right)),
            width, taken, slow,
        )
        for (kind, has_residual), join_path in ran.items():
            membership = kind in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI) and not has_residual
            assert join_path == ("membership" if membership else path), (shape, kind, has_residual)
            seen[join_path] += 1
    assert set(seen) == {"membership", "lookup-right", "lookup-left", "runs"}


SIDES = [(0, 0), (0, 5), (5, 0), (12, 9), (40, 40)]


def test_a_join_builds_only_the_pairs_its_kind_reads(taken):
    for seed in range(2):
        check_unique_sides(seed, SIDES, taken, False)


@pytest.mark.slow
def test_a_join_builds_only_the_pairs_its_kind_reads_exhaustive(taken):
    for seed in range(2, 12):
        check_unique_sides(seed, LARGE, taken, True)


def test_null_keys_neither_pair_nor_repeat(taken):
    """NULL rides the lanes as 0.0 and so shares 0's code: it must not
    pair with 0, and two NULLs do not make a side repeat a key."""
    keyed = batch("k", [[0, NULL, 5, NULL, 7]])
    probing = batch("p", [[NULL, 0, 0.0, 5, NULL, 9, False]])
    assert same_pairs(probing, keyed, ("p.0",), ("k.0",)) == ([1, 2, 3, 6], [0, 0, 2, 0])
    assert same_pairs(keyed, probing, ("k.0",), ("p.0",)) == ([0, 0, 0, 2], [1, 2, 6, 3])
    assert taken.paths == ["lookup-right", "lookup-left"]


def test_a_key_unique_only_jointly_is_looked_up(taken):
    """Either column of the right key repeats; the pair of them does not."""
    right = batch("r", [[1, 1, 2, 2, NULL, 1], [1, 2, 1, 2.0, 1, NULL]])
    left = batch("l", [[2, 1, 2, 3, 1, NULL, 2], [2, 1, 2, 1, 1, 2, NULL]])
    pairs = same_pairs(left, right, left.attributes, right.attributes)
    assert pairs == ([0, 1, 2, 4], [3, 0, 3, 0])
    assert taken.paths == ["lookup-right"]
    same_pairs(right, left, right.attributes, left.attributes)
    same_pairs(left, left, left.attributes, left.attributes)
    assert taken.paths[1:] == ["lookup-left", "runs"]


def test_a_groupjoin_over_a_unique_right_side(taken):
    """Runs of length <= 1 — the trailing left rows without a partner
    being empty runs at the end of the pair vector."""
    left = ColumnTable("L", {"l.k": [2, 7, 1, 2, 9, NULL, 8]})
    right = ColumnTable("R", {"r.k": [1, NULL, 2, NULL], "r.v": [5, 3, 1.0, 4]})
    vector = AggVector(
        [
            AggItem("n", count_star()),
            AggItem("s", sum_(Attr("r.k"))),
            AggItem("low", AggCall(AggKind.MIN, Attr("r.v"))),
        ]
    )
    rows = run_both(groupjoin(left, right, vector), {"L": left, "R": right})
    assert taken.paths == ["lookup-right"]
    none = [("int", 0), ("Null", NULL), ("Null", NULL)]
    two = [("int", 1), ("int", 2), ("float", 1.0)]
    assert [row[1:] for row in rows] == [
        two, none, [("int", 1), ("int", 1), ("int", 5)], two, none, none, none,
    ]


def test_an_anti_join_of_null_keys_keeps_every_row(taken):
    left = ColumnTable("L", {"l.k": [NULL, NULL, NULL, NULL], "l.v": [1, 2, 3, 4]})
    right = ColumnTable("R", {"r.k": [1, 0, NULL]})
    for kind, kept in ((OpKind.LEFT_ANTI, [1, 2, 3, 4]), (OpKind.LEFT_SEMI, [])):
        join = JoinNode(
            kind, BinOp("=", Attr("l.k"), Attr("r.k")),
            ScanNode("L", left.attributes), ScanNode("R", right.attributes),
        )
        rows = run_both(join, {"L": left, "R": right})
        assert [row[1][1] for row in rows] == kept
    assert taken.paths == ["membership", "membership"]


def check_sort_widths(seed, width, taken):
    """Every sort the kernels are left with, over a key space exactly
    *width* wide and with keys that repeat — a key sorted as 16 bits
    that needs 17 comes back as another key — order-exact."""
    rng = random.Random(f"sorts:{seed}:{width}")
    # a grouping of *width* groups: its (rank, row) sort
    values = list(range(width)) + [rng.randrange(width) for _ in range(width // 2)]
    rng.shuffle(values)
    taken.clear()
    same_groups(batch("t", [values]), ("t.0",), slow=True)
    assert taken.sorts == [width]
    # a many-to-many pairing over *width* codes: keys 0 .. width - 2 and
    # NULL's slot, dense — the right rows' (code, row) sort
    rows = width // 6
    assert width <= _dense_width(2 * rows)
    hot = [0, width - 2] + [rng.randrange(width - 1) for _ in range(rows // 8)]
    left, right = ([rng.choice(hot) for _ in range(rows)] for _ in range(2))
    right[:4] = [width - 2, 0, width - 2, 0]
    taken.clear()
    same_pairs(batch("l", [left]), batch("r", [right]), ("l.0",), ("r.0",), slow=True)
    assert (taken.paths, taken.sorts) == (["runs"], [width])
    # a unique left side of *width* rows: the matched right rows' sort by owner
    left = rng.sample(range(width), width)
    hot = left[-(width // 16):] + left[:8]
    right = [rng.choice(hot) for _ in range(width // 4)]
    taken.clear()
    same_pairs(batch("l", [left]), batch("r", [right]), ("l.0",), ("r.0",), slow=True)
    assert (taken.paths, taken.sorts) == (["lookup-left"], [width])


#: the widths on either side of the switch, each test adding one far beyond it
BOUNDARY = [RADIX_WIDTH - 1, RADIX_WIDTH, RADIX_WIDTH + 1]


@pytest.mark.parametrize("width", BOUNDARY + [3 * RADIX_WIDTH // 2])
def test_sorts_on_either_side_of_sixteen_bits(width, taken):
    check_sort_widths(0, width, taken)


@pytest.mark.slow
@pytest.mark.parametrize("width", BOUNDARY + [5 * RADIX_WIDTH])
def test_sorts_on_either_side_of_sixteen_bits_exhaustive(width, taken):
    for seed in range(1, 6):
        check_sort_widths(seed, width, taken)
