"""Order-exact gate for the two pairing / grouping kernels.

``_hash_pairs`` and ``_group_rows`` choose between an array kernel and a
python kernel by what the key columns hold; ``limit`` truncates their
emission order, so the two must return the *same pairs in the same
order* and the same ``(firsts, groups)`` — not just the same row set.
Seeded batches mix ints, integral and non-integral floats (``1`` vs
``1.0``, ``-0.0``), bools, NULLs and strings, duplicate-heavy and empty.
The tier-1 run is a few hundred small cases; ``--runslow`` repeats it
over more seeds and larger inputs.
"""

import os
import random
from contextlib import contextmanager

import pytest

from repro.aggregates.calls import count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp
from repro.algebra.values import NULL
from repro.exec.arrays import FORCE_FALLBACK_ENV, HAVE_NUMPY, numpy_module
from repro.data.tables import ColumnTable
from repro.exec.columnar import _group_rows, _hash_pairs, _key_lanes, execute_physical
from repro.exec.columns import Column
from repro.exec.physical import PhysHashJoin, PhysLimit, PhysScan
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


@contextmanager
def kernels(name):
    """Run the block on the array kernels ("array") or the python ones."""
    before = os.environ.pop(FORCE_FALLBACK_ENV, None)
    if name == "python":
        os.environ[FORCE_FALLBACK_ENV] = "1"
    try:
        yield numpy_module()
    finally:
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
    left_keys, right_keys = left.attributes[:width], right.attributes[:width]
    with kernels("array") as xp:
        array = _hash_pairs(left, right, left_keys, right_keys, xp)
    with kernels("python") as xp:
        python = _hash_pairs(left, right, left_keys, right_keys, xp)
    assert (plain(array[0]), plain(array[1])) == (plain(python[0]), plain(python[1]))


def check_groups(seed, pool, width, rows, _unused):
    rng = random.Random(f"{seed}:{pool}:{width}:{rows}")
    child = batch("t", draw(rng, POOLS[pool], rows, width + 1))
    with kernels("array") as xp:
        firsts, groups = _group_rows(child, child.attributes[:width], xp)
    with kernels("python") as xp:
        expected_firsts, expected_groups = _group_rows(child, child.attributes[:width], xp)
    assert plain(firsts) == plain(expected_firsts)
    assert [plain(g) for g in groups] == [plain(g) for g in expected_groups]


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
    """Numeric keys really take the array kernels (exact lanes on every
    key column); strings, a NaN and an int beyond 2^53 really do not."""
    with kernels("array") as xp:
        exact = batch("t", [[1, 2.5, NULL, True, -0.0], [3, 3, 3, 3, 3]])
        assert _key_lanes(list(exact.columns.values()), xp) is not None
        for odd in (["a", 1], [float("nan"), 1.0], [2**53 + 1, 1], [1, 10**400]):
            assert _key_lanes([Column(odd)], xp) is None
        assert Column([2**53 - 1, -(2**53) + 1]).key_lanes(xp) is not None
    with kernels("python") as xp:
        assert xp is None
