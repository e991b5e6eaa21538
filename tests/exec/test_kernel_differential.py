"""Order-exact gate for the array and the python pairing / grouping kernels.

Under numpy ``_group_rows`` always works on codes (exact lanes
factorised, key codes otherwise) and ``_hash_pairs`` does wherever the
key columns have exact lanes; a numpy-less process buckets python
values.  ``limit`` truncates their emission order, so the two must
return the *same pairs in the same order* and the same ``(firsts,
runs)`` — the runs expanded to member lists — not just the same row
set.  Seeded batches mix ints, integral and non-integral floats (``1``
vs ``1.0``, ``-0.0``), bools, NULLs and strings, duplicate-heavy and
empty; hand-built ones bring the group keys a dictionary has to get
right (pads, prefixes, NaN objects, ints beyond 2^53) and the numeric
keys that sit on either side of the dense-range bound, where
``_factorised`` / ``_combined`` switch from subtraction to a sort.  The
tier-1 run is a few hundred small cases; ``--runslow`` repeats it over
more seeds and larger inputs.
"""

import os
import random
from contextlib import contextmanager

import pytest

from repro.aggregates.calls import AggCall, AggKind, count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp
from repro.algebra.values import NULL
from repro.exec.arrays import FORCE_FALLBACK_ENV, HAVE_NUMPY, numpy_module
from repro.data.tables import ColumnTable
from repro.exec import columnar
from repro.exec.columnar import (
    _dense_width,
    _group_rows,
    _hash_pairs,
    _key_lanes,
    execute_physical,
)
from repro.exec.columns import Batch, Column
from repro.exec.physical import PhysGroupAgg, PhysHashJoin, PhysLimit, PhysScan
from repro.rewrites.pushdown import OpKind

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: value pools; every key of a case is drawn from one of them
NUMERIC = [0, 1, 1.0, 2, 2.5, -0.0, 0.0, 3, True, False, -7, 1e3, NULL, NULL]
STRINGS = ["a", "b", "", "a", NULL]
MIXED = NUMERIC + STRINGS
POOLS = {"numeric": NUMERIC, "strings": STRINGS, "mixed": MIXED}

JOIN_KINDS = [
    OpKind.INNER,
    OpKind.LEFT_OUTER,
    OpKind.FULL_OUTER,
    OpKind.LEFT_SEMI,
    OpKind.LEFT_ANTI,
    OpKind.GROUPJOIN,
]


def _python_loop_entered(value):
    raise AssertionError(f"_group_rows bucketed {value!r} in python under numpy")


@contextmanager
def kernels(name):
    """Run the block on the array kernels ("array") or the python ones.

    On the array kernels the grouping loop's ``group_key`` raises: under
    numpy no grouping may reach it, whatever the key columns hold.
    """
    before = os.environ.pop(FORCE_FALLBACK_ENV, None)
    group_key = columnar.group_key
    if name == "python":
        os.environ[FORCE_FALLBACK_ENV] = "1"
    else:
        columnar.group_key = _python_loop_entered
    try:
        yield numpy_module()
    finally:
        columnar.group_key = group_key
        os.environ.pop(FORCE_FALLBACK_ENV, None)
        if before is not None:
            os.environ[FORCE_FALLBACK_ENV] = before


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


def typed(result):
    """Rows in order, every value with its type: ``1`` is not ``1.0`` here."""
    return [
        [(type(row[a]).__name__, row[a]) for a in result.attributes]
        for row in result.to_relation().rows
    ]


def check_pairs(seed, pool, width, left_rows, right_rows):
    rng = random.Random(f"{seed}:{pool}:{width}:{left_rows}:{right_rows}")
    left = batch("l", draw(rng, POOLS[pool], left_rows, width + 1))
    right = batch("r", draw(rng, POOLS[pool], right_rows, width + 1))
    same_pairs(left, right, left.attributes[:width], right.attributes[:width])


def expanded(runs):
    """Runs as member lists — and they must tile their row vector."""
    order, starts, ends = (plain(part) for part in runs)
    assert starts == ([0] + ends[:-1] if ends else [])
    assert (ends[-1] if ends else 0) == len(order)
    return [order[start:end] for start, end in zip(starts, ends)]


def same_groups(child, group_attrs):
    """``_group_rows`` on codes == ``_group_rows`` on python buckets."""
    with kernels("array") as xp:
        firsts, runs = _group_rows(child, group_attrs, xp)
    with kernels("python") as xp:
        expected_firsts, expected_runs = _group_rows(child, group_attrs, xp)
    assert plain(firsts) == plain(expected_firsts)
    groups = expanded(runs)
    assert groups == expanded(expected_runs)
    assert plain(firsts) == [members[0] for members in groups]
    return groups


def same_pairs(left, right, left_keys, right_keys):
    with kernels("array") as xp:
        array = _hash_pairs(left, right, left_keys, right_keys, xp)
    with kernels("python") as xp:
        python = _hash_pairs(left, right, left_keys, right_keys, xp)
    pairs = (plain(array[0]), plain(array[1]))
    assert pairs == (plain(python[0]), plain(python[1]))
    return pairs


def check_groups(seed, pool, width, rows, _unused):
    rng = random.Random(f"{seed}:{pool}:{width}:{rows}")
    child = batch("t", draw(rng, POOLS[pool], rows, width + 1))
    same_groups(child, child.attributes[:width])


def check_joins(seed, pool, width, left_rows, right_rows):
    """Every join kind, with and without a residual, with and without a
    limit: the same rows in the same order from both kernels."""
    rng = random.Random(f"join:{seed}:{pool}:{width}:{left_rows}:{right_rows}")
    small = [1, 2, 3, NULL]
    left, right = (
        ColumnTable(
            prefix.upper(),
            _named(prefix, draw(rng, POOLS[pool], rows, width) + draw(rng, small, rows, 1)),
        )
        for prefix, rows in (("l", left_rows), ("r", right_rows))
    )
    database = {"L": left, "R": right}
    residual = BinOp("<=", Attr(left.attributes[-1]), Attr(right.attributes[-1]))
    vector = AggVector(
        [AggItem("n", count_star()), AggItem("s", sum_(Attr(right.attributes[-1])))]
    )
    for kind in JOIN_KINDS:
        for predicate in (None, residual):
            join = PhysHashJoin(
                kind,
                left.attributes[:width],
                right.attributes[:width],
                predicate,
                PhysScan("L", left.attributes),
                PhysScan("R", right.attributes),
                right_defaults=((right.attributes[-1], 0),),
                groupjoin_vector=vector if kind is OpKind.GROUPJOIN else None,
            )
            for plan in (join, PhysLimit(3, join)):
                with kernels("array"):
                    array = typed(execute_physical(plan, database))
                with kernels("python"):
                    python = typed(execute_physical(plan, database))
                assert array == python, (kind, predicate, plan.label())


@pytest.mark.parametrize("check", [check_pairs, check_groups, check_joins])
def test_kernels_agree_in_order(check):
    for case in cases(range(3), SMALL):
        check(*case)


@pytest.mark.slow
@pytest.mark.parametrize("check", [check_pairs, check_groups, check_joins])
def test_kernels_agree_in_order_exhaustive(check):
    for case in cases(range(3, 13), LARGE):
        check(*case)


def test_the_array_kernels_are_the_ones_compared():
    """Numeric keys have exact lanes on every key column; strings, a NaN
    and an int beyond 2^53 have not — and are grouped by their key codes,
    never by the python loop (which raises inside ``kernels("array")``)."""
    with kernels("array") as xp:
        exact = batch("t", [[1, 2.5, NULL, True, -0.0], [3, 3, 3, 3, 3]])
        assert _key_lanes(list(exact.columns.values()), xp) is not None
        for odd in (["a", 1], [float("nan"), 1.0], [2**53 + 1, 1], [1, 10**400]):
            assert _key_lanes([Column(odd)], xp) is None
            assert len(_group_rows(batch("t", [odd]), ("t.0",), xp)[0]) == 2
        assert Column([2**53 - 1, -(2**53) + 1]).key_lanes(xp) is not None
        with pytest.raises(AssertionError, match="in python under numpy"):
            _group_rows(batch("t", [["a", "b"]]), ("t.0",), None)
    with kernels("python") as xp:
        assert xp is None


def _index(rows):
    import numpy  # the module is skipped without it

    return numpy.asarray(rows, dtype=numpy.intp)


def test_group_keys_arriving_through_takes():
    """A late take groups by a gather of its parent's codes: plain and
    composed takes, ``Batch.head``'s ``range``, and an outer join's pads —
    NULL, a default the dictionary already holds, one it does not."""
    base = batch("t", [["a", "b", NULL, "a", "", "b"], [1, "x", 1.0, NULL, "x", True]])
    attrs = base.attributes
    taken = base.take(_index([5, 3, 3, 0, 2, 1, 4]))
    for child in (taken, taken.take(_index([6, 0, 0, 2, 5])), base.head(4), taken.head(3)):
        for group_attrs in (attrs[:1], attrs[1:], attrs):
            same_groups(child, group_attrs)
    slots = _index([0, -1, 2, 3, -1, 1, -1])
    for pad in (NULL, "a", "zz", 0, float("nan")):
        columns = {a: base.column(a).take_padded(slots, pad) for a in attrs}
        padded = Batch(attrs, columns, len(slots))
        groups = [same_groups(padded, group_attrs) for group_attrs in (attrs[:1], attrs[1:], attrs)]
        if pad == "zz":  # a fresh entry: the padded rows are a group of their own
            assert groups[0] == [[0, 3], [1, 4, 6], [2], [5]]
        if pad == "a":  # the dictionary's own entry: they join its group
            assert groups[0] == [[0, 1, 3, 4, 6], [2], [5]]
        # and once more over a take of the padded rows
        same_groups(padded.take(_index([6, 5, 4, 3, 2, 1, 0, 0])), attrs)


def test_group_keys_a_dictionary_has_to_get_right():
    nan, other_nan = float("nan"), float("nan")
    for values, expected in (
        ([NULL, NULL, NULL], [[0, 1, 2]]),  # all NULL: one group
        ([], []),  # an empty batch: no group
        ([nan, 1.0, nan, nan], [[0, 2, 3], [1]]),  # one NaN object is one key
        ([nan, other_nan, nan], [[0, 2], [1]]),  # two NaN objects are two
        ([2**53, 2**53 + 1, 2**53, float(2**53)], [[0, 2, 3], [1]]),
        ([1, True, 1.0, "1", NULL, 0, False, -0.0], [[0, 1, 2], [3], [4], [5, 6, 7]]),
    ):
        child = batch("t", [values, list(range(len(values)))])
        assert same_groups(child, ("t.0",)) == expected
        same_groups(child, child.attributes)


def test_outer_join_pads_group_like_values():
    """Group by a string column an outer join padded — with NULL on the
    left keys, with a default on the right payload — end to end."""
    left = ColumnTable("L", {"l.k": [1, 2, 3, 4, NULL], "l.s": ["x", "y", "x", NULL, "y"]})
    right = ColumnTable("R", {"r.k": [2, 2, 5, NULL], "r.s": ["y", "none", "x", "q"]})
    database = {"L": left, "R": right}
    join = PhysHashJoin(
        OpKind.FULL_OUTER,
        ("l.k",),
        ("r.k",),
        None,
        PhysScan("L", left.attributes),
        PhysScan("R", right.attributes),
        right_defaults=(("r.s", "none"),),
    )
    vector = AggVector([AggItem("n", count_star())])
    for group_attrs in (("r.s",), ("l.s",), ("l.s", "r.s"), ("l.s", "r.k")):
        plan = PhysGroupAgg(group_attrs, vector, (), join)
        with kernels("array"):
            array = typed(execute_physical(plan, database))
        with kernels("python"):
            python = typed(execute_physical(plan, database))
        assert array == python
    assert array[0] == [("str", "x"), ("Null", NULL), ("int", 2)]


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

    def counted(keys, xp):
        sorts.append(len(keys))
        return sorted_codes(keys, xp)

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
    for pair, expected in (((zeros, dense), 0), ((dense, wide), 1), ((wide, wide), 1)):
        sorts.clear()
        same_groups(child, tuple(f"t.{i}" for i in pair))
        assert len(sorts) == expected, pair


def test_a_groupjoin_folds_only_the_runs_that_have_rows():
    """The groupjoin's runs include empty ones — trailing ones too, whose
    start is the end of the pair vector — and both kernels fold them to
    ``count`` 0 and NULL."""
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
    join = PhysHashJoin(
        OpKind.GROUPJOIN,
        ("l.k",),
        ("r.k",),
        None,
        PhysScan("L", left.attributes),
        PhysScan("R", right.attributes),
        groupjoin_vector=vector,
    )
    database = {"L": left, "R": right}
    with kernels("array"):
        array = typed(execute_physical(join, database))
    with kernels("python"):
        python = typed(execute_physical(join, database))
    assert array == python
    none = [("int", 0), ("Null", NULL), ("Null", NULL), ("Null", NULL)]
    assert [row[1:] for row in array] == [
        [("int", 2), ("int", 4), ("float", 1.0), ("float", 1.0)],  # first of 1.0, 1
        none,
        [("int", 1), ("int", 1), ("int", 5), ("int", 5)],
        [("int", 2), ("int", 4), ("float", 1.0), ("float", 1.0)],
        none,
        none,
        none,
    ]
