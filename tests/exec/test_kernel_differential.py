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

The seeded pools are duplicate-heavy, so in them a join almost never
has a side without a repeated key, and the end-to-end benchmark sends no
residual, no groupjoin and no two-column unique key: the second half of
the file builds sides that are unique on the right, the left, both and
neither, and pins the sorts on either side of 16 bits.  There the path
the array kernels took — membership test, lookup, run expansion; radix
or wide sort — is counted by monkeypatch (the ``taken`` fixture), so a
case that silently falls to the general path fails.  The python kernels
have one path and are the order oracle for all of them.
"""

import os
import random
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from repro.aggregates.calls import AggCall, AggKind, count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp
from repro.algebra.values import NULL
from repro.exec.arrays import FORCE_FALLBACK_ENV, HAVE_NUMPY, numpy_module
from repro.data.tables import ColumnTable
from repro.exec import columnar
from repro.exec.columnar import (
    RADIX_WIDTH,
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


def run_both(plan, database):
    """*plan*'s rows from the array kernels — and the python ones give
    the same, in the same order, with the same types."""
    with kernels("array"):
        array = typed(execute_physical(plan, database))
    with kernels("python"):
        python = typed(execute_physical(plan, database))
    assert array == python, plan.label()
    return array


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


def same_joins(left, right, width, taken=None):
    """Every join kind over the first *width* columns of two tables,
    with and without a residual, with and without a limit: the same rows
    in the same order from both kernels.  With *taken* (the fixture),
    ``{(kind, has residual): the pairing path of the array kernels}``."""
    database = {"L": left, "R": right}
    residual = BinOp("<=", Attr(left.attributes[-1]), Attr(right.attributes[-1]))
    vector = AggVector(
        [AggItem("n", count_star()), AggItem("s", sum_(Attr(right.attributes[-1])))]
    )
    paths = {}
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
                if taken is not None:
                    taken.clear()
                run_both(plan, database)
                if taken is not None:
                    (path,) = taken.paths  # one join, one path — the same under a limit
                    assert paths.setdefault((kind, predicate is not None), path) == path
    return paths


def check_joins(seed, pool, width, left_rows, right_rows):
    rng = random.Random(f"join:{seed}:{pool}:{width}:{left_rows}:{right_rows}")
    small = [1, 2, 3, NULL]
    left, right = (
        ColumnTable(
            prefix.upper(),
            _named(prefix, draw(rng, POOLS[pool], rows, width) + draw(rng, small, rows, 1)),
        )
        for prefix, rows in (("l", left_rows), ("r", right_rows))
    )
    same_joins(left, right, width)


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
        array = run_both(PhysGroupAgg(group_attrs, vector, (), join), database)
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
    array = run_both(join, {"L": left, "R": right})
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


# -- only the pairs a join needs ---------------------------------------------

#: ``_sorted_pairs``' three ways, told apart by what one call of it calls:
#: (lookups, sorts)
PAIRING_PATHS = {(1, 0): "lookup-right", (1, 1): "lookup-left", (0, 1): "runs"}


class Taken:
    """What the array kernels did: per hash join the pairing path it
    took, per ``_ordered`` call the width of the key space it sorted."""

    def __init__(self):
        self.paths, self.sorts = [], []

    def clear(self):
        self.paths.clear()
        self.sorts.clear()


@pytest.fixture
def taken(monkeypatch):
    """The paths counted by monkeypatch, so that a case which silently
    falls to the general path fails."""
    log, calls = Taken(), Counter()
    lookup, ordered = columnar._lookup_pairs, columnar._ordered
    member, pairs = columnar._member_rows, columnar._sorted_pairs

    def counted_lookup(*args):
        calls["lookups"] += 1
        return lookup(*args)

    def counted_ordered(keys, width, xp):
        calls["sorts"] += 1
        log.sorts.append(width)
        return ordered(keys, width, xp)

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


def check_unique_sides(seed, sizes, taken):
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
        )
        assert taken.paths == [path]
        ran = same_joins(
            ColumnTable("L", _named("l", left)), ColumnTable("R", _named("r", right)), width, taken
        )
        for (kind, has_residual), join_path in ran.items():
            membership = kind in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI) and not has_residual
            assert join_path == ("membership" if membership else path), (shape, kind, has_residual)
            seen[join_path] += 1
    assert set(seen) == {"membership", "lookup-right", "lookup-left", "runs"}


SIDES = [(0, 0), (0, 5), (5, 0), (12, 9), (40, 40)]


def test_a_join_builds_only_the_pairs_its_kind_reads(taken):
    for seed in range(2):
        check_unique_sides(seed, SIDES, taken)


@pytest.mark.slow
def test_a_join_builds_only_the_pairs_its_kind_reads_exhaustive(taken):
    for seed in range(2, 12):
        check_unique_sides(seed, LARGE, taken)


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
    join = PhysHashJoin(
        OpKind.GROUPJOIN,
        ("l.k",),
        ("r.k",),
        None,
        PhysScan("L", left.attributes),
        PhysScan("R", right.attributes),
        groupjoin_vector=vector,
    )
    rows = run_both(join, {"L": left, "R": right})
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
        join = PhysHashJoin(
            kind, ("l.k",), ("r.k",), None,
            PhysScan("L", left.attributes), PhysScan("R", right.attributes),
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
    same_groups(batch("t", [values]), ("t.0",))
    assert taken.sorts == [width]
    # a many-to-many pairing over *width* codes: keys 0 .. width - 2 and
    # NULL's slot, dense — the right rows' (code, row) sort
    rows = width // 6
    assert width <= _dense_width(2 * rows)
    hot = [0, width - 2] + [rng.randrange(width - 1) for _ in range(rows // 8)]
    left, right = ([rng.choice(hot) for _ in range(rows)] for _ in range(2))
    right[:4] = [width - 2, 0, width - 2, 0]
    taken.clear()
    same_pairs(batch("l", [left]), batch("r", [right]), ("l.0",), ("r.0",))
    assert (taken.paths, taken.sorts) == (["runs"], [width])
    # a unique left side of *width* rows: the matched right rows' sort by owner
    left = rng.sample(range(width), width)
    hot = left[-(width // 16):] + left[:8]
    right = [rng.choice(hot) for _ in range(width // 4)]
    taken.clear()
    same_pairs(batch("l", [left]), batch("r", [right]), ("l.0",), ("r.0",))
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
