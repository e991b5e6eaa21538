"""Columnar executor: physical operator trees over column batches.

The performance backend behind ``run_plan(..., executor="columnar")``.
Operators pass **index vectors over shared columns**: a filter, a join
or a limit computes which rows of its input survive and in what
order, and hands that vector to :meth:`Batch.take`, which gathers
nothing — a column is materialised when an expression, a key or the
result's reader (``run_columns`` / ``run_plan`` in :mod:`repro.exec`)
reads it (:mod:`repro.exec.columns`).
Predicates and arithmetic ride the vectorized evaluator, and aggregation
evaluates each argument expression *once* per input batch.

Pairing (:func:`_hash_pairs`) and grouping (:func:`_group_rows`) work
on **one small integer code per row**, equal on two rows iff their keys
are equal, and never on the key values themselves:

* a key column with *exact* float64 lanes (numeric, no NaN, no int at
  or beyond ±2^53) is factorised (:func:`_factorised`): by subtraction
  — ``value - min`` — when the lane is integral and spans a range no
  wider than a few times the row count, which is what TPC-H keys, dates
  and quantities do; by one sort otherwise;
* any other key column of a grouping — strings, mixed types, a NaN, an
  int float64 cannot tell from its neighbour — brings its *key codes*
  (:meth:`Column.key_codes`): the dictionary is built once per column
  that owns values (once per process for a table's base column) and a
  late take gathers its parent's codes, so a request pays an array
  gather where it used to pay a python loop;
* any other key column of a join is coded by one dictionary over both
  sides' values, and an entry that can equal nothing — NULL, or a value
  not equal to itself (a NaN) — masks its rows out, judged once per
  entry (:func:`_pairing_codes`);
* several columns combine into one code by plain products while the
  code space stays that dense, by a sort once it does not
  (:func:`_combined`); a grouping ranks each code by the first row that
  holds it and sorts the rows by ``(rank, row)`` once.  No per-row
  python.

A hash join computes only what its kind reads, and decides that from
the codes — no plan field, no flag from the optimizer, no option:

* a semi or an anti join without a residual reads *which left rows have
  a partner* and nothing else, so it builds no pairs: a width-sized
  boolean table marks the right side's codes and every left row reads
  its own entry (:func:`_member_rows`);
* where no code occurs twice on the right — a primary key, the output
  of a grouping on the join attributes: the joins eager aggregation
  creates — every left row *looks its one partner up*: one scatter
  ``slot[code] = row``, one gather ``slot[probe]``
  (:func:`_lookup_pairs`), no sort; where no code occurs twice on the
  left the right rows look their owner up and one stable sort by owner
  makes the pairs left-major;
* only a many-to-many join sorts the right rows by code once and lets
  every left row read its code's run (``bincount`` / ``cumsum`` /
  ``repeat``).

Uniqueness is *observed* — the ``bincount`` of the right codes, which
the run expansion needs anyway, holds no 2 — not promised by the
optimizer: a key the planner derived wrongly can never become a wrong
pairing.  The sorts that remain (a grouping's, a many-to-many join's,
the sort by owner) go through :func:`_ordered`, which sorts keys that
fit 16 bits as ``uint16`` — numpy's stable sort is a radix sort there —
and ``(key, row)`` otherwise.

What a grouping hands on is one shape, :class:`Runs`: a row vector laid
out group after group, groups in order of first occurrence, members in
input order, plus where each run starts and ends.  The groupjoin's
partner lists are runs of the pair vector (a left row without a partner
being an empty run) and an aggregation without GROUP BY is one run of
every row, so there is one :func:`_aggregate_columns` for all three.
No pairing and no grouping loops over rows, whatever it keys on.

Row-set equality with the interpreter is a hard guarantee (the
differential suite enforces it), so emission mirrors the reference
semantics of :mod:`repro.algebra.operators` exactly:

* joins emit left-major, partners in right-input order — ``limit``
  truncates that order, so it is part of the contract; a semi / anti
  join emits the left rows it keeps in left-input order, whether it
  read them off pairs or off the membership table,
* an unmatched left row of a left/full outerjoin emits its padded row
  immediately after its (absent) matches; unmatched right rows of a
  full outerjoin append at the end in right-input order,
* rows with a NULL or NaN join key never pair — neither makes an
  equality conjunct TRUE; in a grouping NULL is a key value like any
  other, and a NaN object is equal to itself,
* groups come in order of first occurrence, and every aggregate is
  ``AggCall.evaluate``'s value *and type*.  ``count``,
  ``min`` / ``max`` over exact lanes and ``sum`` over a column of ints
  are ``ufunc.reduceat`` over the runs (:func:`_array_fold`) — a
  ``min`` is then a late take of the first row that attains it, so
  ``min([1.0, 1])`` stays ``1.0``, and an int sum is int64 only where
  no run can leave 2^62.  ``sum`` / ``avg`` over floats stay python's
  own ``sum`` in member order, mapped over the runs' slices with no
  call per group (:func:`_python_fold`), so float rounding matches the
  interpreter bit for bit on every python version; strings, ``min`` /
  ``max`` over inexact lanes and DISTINCT are folded there too, one
  :func:`_evaluate_call` a run.
"""

from __future__ import annotations

from itertools import compress
from operator import truediv
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.aggregates.calls import AggKind
from repro.aggregates.vector import AggVector
from repro.algebra.values import NULL, SqlValue, group_key
from repro.exec.columns import Batch, Column, _codes_of_values
from repro.exec.physical import (
    PhysFilter,
    PhysGroupAgg,
    PhysHashJoin,
    PhysLimit,
    PhysMap,
    PhysNLJoin,
    PhysOp,
    PhysProject,
    PhysScan,
)
from repro.exec.vectoreval import eval_expr, eval_tri
from repro.rewrites.pushdown import OpKind

# after repro.exec.columns, which names the missing extra
import numpy as np


def execute_physical(op: PhysOp, database: Mapping[str, object]) -> Batch:
    """Evaluate a physical operator tree bottom-up into a batch."""
    if isinstance(op, PhysScan):
        source = database[op.relation]
        batch = Batch.from_source(source)
        if set(batch.attributes) != set(op.attributes):
            raise ValueError(
                f"scan of {op.relation!r} expects attributes {op.attributes}, "
                f"database provides {batch.attributes}"
            )
        return batch
    if isinstance(op, PhysFilter):
        child = execute_physical(op.child, database)
        keep = eval_tri(op.predicate, child).true_indices()
        if len(keep) == child.length:
            return child
        return child.take(keep)
    if isinstance(op, PhysProject):
        return execute_physical(op.child, database).project(op.attributes)
    if isinstance(op, PhysMap):
        child = execute_physical(op.child, database)
        return child.extended([(name, eval_expr(expr, child)) for name, expr in op.extensions])
    if isinstance(op, PhysHashJoin):
        left = execute_physical(op.left, database)
        right = execute_physical(op.right, database)
        if op.residual is None and op.op in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI):
            coded = _pairing_codes(left, right, op.left_keys, op.right_keys)
            return left.take(_member_rows(*coded, op.op is OpKind.LEFT_SEMI))
        pairs_l, pairs_r = _hash_pairs(left, right, op.left_keys, op.right_keys)
        pairs_l, pairs_r = _filter_pairs(op.residual, left, right, pairs_l, pairs_r)
        return _emit_join(op, left, right, pairs_l, pairs_r)
    if isinstance(op, PhysNLJoin):
        left = execute_physical(op.left, database)
        right = execute_physical(op.right, database)
        pairs_l, pairs_r = _cross_pairs(left.length, right.length)
        pairs_l, pairs_r = _filter_pairs(op.predicate, left, right, pairs_l, pairs_r)
        return _emit_join(op, left, right, pairs_l, pairs_r)
    if isinstance(op, PhysGroupAgg):
        return _group_agg(op, execute_physical(op.child, database))
    if isinstance(op, PhysLimit):
        return execute_physical(op.child, database).head(op.count)
    raise TypeError(f"unknown physical operator {op!r}")


class Runs(NamedTuple):
    """The groups of an aggregation, as runs of one row vector: group
    *g* holds the rows ``order[starts[g]:ends[g]]``, in input order.

    The runs tile *order* — ``starts[0] == 0``, ``starts[g + 1] ==
    ends[g]``, the last one ends where *order* does — and an empty run
    is a group without rows (a groupjoin's left row without a partner).
    """

    order: object
    starts: object
    ends: object


def _dense_width(rows: int) -> int:
    """The widest code space that counts as *dense* for *rows* rows: a
    table indexed by code then costs no more than a few passes over the
    rows, and a product of two such widths stays far inside int64."""
    return 4 * rows + 1024


def _sorted_codes(keys):
    """``(codes, width)`` of any key array, by one sort."""
    uniques, codes = np.unique(keys, return_inverse=True)
    return codes, len(uniques)


def _factorised(data, valid):
    """``(codes, width)`` of one key column's exact lanes: codes in
    ``[0, width)``, NULL (off *valid*) being code 0.

    Integral lanes that span a dense range — TPC-H keys, dates,
    quantities — are coded ``value - min + 1``: two reductions and a
    compare.  Anything else (a fraction, a sparse key) is coded by one
    sort.  Nobody reads more from a code than equal-iff-equal, so which
    of the two ran changes no pair and no group.
    """
    if len(data):
        low = data.min()
        span = data.max() - low  # inf or nan when an infinity is a key
        if span + 2 <= _dense_width(len(data)) and bool((data == np.floor(data)).all()):
            # integers less than 2^53 apart: the subtraction is exact
            codes = (data - low).astype(np.intp) + 1
            if valid is not None:
                codes[~valid] = 0
            return codes, int(span) + 2
    codes, width = _sorted_codes(data)
    if valid is not None:
        codes = np.where(valid, codes + 1, 0)
    return codes, width + 1


def _combined(columns: Sequence[tuple], rows: int):
    """``(codes, width)``: one integer per row over several ``(codes,
    width)`` key columns, two rows getting the same code iff they agree
    on every column.

    The combination is the plain product ``code * width + next`` while
    the code space stays dense for *rows* rows, and is factorised again
    by one sort once it is not — so the result is never wider than
    :func:`_dense_width` and no product leaves int64.
    """
    bound = _dense_width(rows)
    codes, width = None, 1
    for column_codes, column_width in columns:
        codes = column_codes if codes is None else codes * column_width + column_codes
        width *= column_width
        if width > bound:
            codes, width = _sorted_codes(codes)
    return codes, width


def _grouping_codes(column: Column):
    """``(codes, width)`` of one grouping column: its exact lanes
    factorised, or — it has none — its key codes as they are."""
    lanes = column.key_lanes()
    if lanes is not None:
        return _factorised(*lanes)
    codes, table = column.key_codes()
    return codes, len(table)


#: The widest key space whose keys fit 16 bits: numpy's stable sort of
#: such keys is a radix sort, several times its comparison sort of
#: wider ones.
RADIX_WIDTH = 1 << 16


def _ordered(keys, width: int):
    """The positions of *keys* — integers in ``[0, width)`` — in key
    order, equal keys in input order.

    ``(key, position)`` is unique, so any sort of it is a stable sort of
    the keys — and numpy's default sort is several times its stable one,
    except where the stable one is a radix sort."""
    if width <= RADIX_WIDTH:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys * len(keys) + np.arange(len(keys)))


def _all_valid(masks: Sequence):
    """The rows that are valid under every mask, as one mask (None: "no
    NULL", as for each of *masks*)."""
    valid = None
    for mask in masks:
        if mask is not None:
            valid = mask if valid is None else valid & mask
    return valid


def _keyed_rows(codes, valid):
    """``(rows, keys)``: the rows whose key can pair, and their codes."""
    if valid is None:
        return np.arange(len(codes)), codes
    rows = valid.nonzero()[0]
    return rows, codes[rows]


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _pairing_codes(
    left: Batch,
    right: Batch,
    left_keys: Tuple[str, ...],
    right_keys: Tuple[str, ...],
):
    """``(lcodes, lvalid, rcodes, rvalid, width)`` — a code per row over
    one code space for both sides, and per side the mask of the rows
    whose key can pair (None: all of them).

    A key whose two columns have exact lanes is factorised over
    ``left ++ right``; a NULL rides along as 0.0 and is told apart by
    the masks alone.  Any other key is coded by one dictionary over both
    sides' values (:func:`_codes_of_values`) — dict equality is SQL
    equality for every value equal to itself — and an entry that can
    equal nothing, NULL or a value not equal to itself (a NaN, which the
    dictionary matches by identity), masks its rows out: judged once per
    entry, not per row.
    """
    split = left.length
    columns, lvalids, rvalids = [], [], []
    for lkey, rkey in zip(left_keys, right_keys):
        lcolumn, rcolumn = left.column(lkey), right.column(rkey)
        llanes, rlanes = lcolumn.key_lanes(), rcolumn.key_lanes()
        if llanes is not None and rlanes is not None:
            columns.append(_factorised(np.concatenate((llanes[0], rlanes[0])), None))
            lvalids.append(llanes[1])
            rvalids.append(rlanes[1])
            continue
        codes, table = _codes_of_values(lcolumn.values + rcolumn.values)
        pairs = np.fromiter((v is not NULL and v == v for v in table), dtype=bool, count=len(table))
        columns.append((codes, max(len(table), 1)))  # a code space is never empty
        if not pairs.all():
            valid = pairs[codes]
            lvalids.append(valid[:split])
            rvalids.append(valid[split:])
    codes, width = _combined(columns, split + right.length)
    return codes[:split], _all_valid(lvalids), codes[split:], _all_valid(rvalids), width


def _member_rows(lcodes, lvalid, rcodes, rvalid, width: int, wanted: bool):
    """The left rows whose key occurs on the right (*wanted*) or does
    not (not *wanted*), in input order: all a semi or an anti join
    without a residual reads of its pairs, so none are built.  A key
    that cannot pair occurs nowhere — a semi join drops the row, an
    anti join keeps it."""
    occurs = np.zeros(width, dtype=bool)
    occurs[rcodes if rvalid is None else rcodes[rvalid]] = True
    hit = occurs[lcodes]
    if lvalid is not None:
        hit &= lvalid
    return (hit if wanted else ~hit).nonzero()[0]


def _hash_pairs(
    left: Batch,
    right: Batch,
    left_keys: Tuple[str, ...],
    right_keys: Tuple[str, ...],
):
    """Candidate (left, right) index pairs under the equi-keys, as two
    index vectors: left-major, right partners in right-input order."""
    return _sorted_pairs(*_pairing_codes(left, right, left_keys, right_keys))


def _sorted_pairs(lcodes, lvalid, rcodes, rvalid, width: int):
    """The equi-join pairs of two key-code arrays over one code space of
    *width* codes, *lvalid* / *rvalid* masking the rows whose key can
    pair: left-major, partners in right-input order.

    How many right rows hold each code says what there is to do.  No
    code twice on the right: every left row looks its one partner up
    (:func:`_lookup_pairs`), in input order already.  No code twice on
    the left: every right row looks its one owner up, and one stable
    sort by owner makes the pairs left-major.  Otherwise the right rows
    are sorted by code once — the rows of one code staying in input
    order — and every left row, in input order, reads its code's run of
    them.  Uniqueness is observed on the codes, not promised by the
    plan: a side that is not unique is never treated as if it were.
    """
    left_rows, probes = _keyed_rows(lcodes, lvalid)
    right_rows, right_keys = _keyed_rows(rcodes, rvalid)
    per_code = np.bincount(right_keys, minlength=width)
    if per_code.max() <= 1:
        return _lookup_pairs(right_rows, right_keys, left_rows, probes, width)
    if np.bincount(probes, minlength=width).max() <= 1:
        pairs_r, pairs_l = _lookup_pairs(left_rows, probes, right_rows, right_keys, width)
        by_owner = _ordered(pairs_l, len(lcodes))
        return pairs_l[by_owner], pairs_r[by_owner]
    right_rows = right_rows[_ordered(right_keys, width)]
    run_start = np.cumsum(per_code) - per_code
    counts = per_code[probes]
    pairs_l = np.repeat(left_rows, counts)
    # the k-th pair of a left row reads sorted position run_start + k
    first_pair = np.cumsum(counts) - counts
    positions = np.arange(len(pairs_l)) + np.repeat(run_start[probes] - first_pair, counts)
    return pairs_l, right_rows[positions]


def _lookup_pairs(rows, keys, probing_rows, probes, width: int):
    """``(probing rows, their partners)`` where no two of *rows* share a
    key: one scatter files each row under its code, one gather reads
    every probe's slot, and an empty slot is a probing row left out.
    Probing rows stay in input order."""
    slot = np.full(width, -1, dtype=np.intp)
    slot[keys] = rows
    partners = slot[probes]
    matched = partners >= 0
    return probing_rows[matched], partners[matched]


def _cross_pairs(left_length: int, right_length: int):
    """Every (left, right) pair, left-major."""
    return (
        np.repeat(np.arange(left_length), right_length),
        np.tile(np.arange(right_length), left_length),
    )


def _pair_batch(left: Batch, right: Batch, pairs_l, pairs_r) -> Batch:
    return Batch.concat_schemas(left.take(pairs_l), right.take(pairs_r))


def _filter_pairs(residual, left: Batch, right: Batch, pairs_l, pairs_r):
    """The pairs on which *residual* is TRUE, order kept.  The pair batch
    takes late, so only the columns the residual reads are gathered."""
    if residual is None or not len(pairs_l):
        return pairs_l, pairs_r
    keep = eval_tri(residual, _pair_batch(left, right, pairs_l, pairs_r)).true_indices()
    return pairs_l[keep], pairs_r[keep]


def _occurring(length: int, rows, wanted: bool):
    """The rows of a *length*-row input that occur in the pair vector
    *rows* (*wanted*) or that do not (not *wanted*), in input order."""
    flags = np.zeros(length, dtype=bool)
    flags[rows] = True
    return (flags if wanted else ~flags).nonzero()[0]


def _partners(left_length: int, pairs_l, pairs_r) -> Runs:
    """Per left row, its right partners in pair order (groupjoin
    members).  Pairs are left-major, so a left row's partners are one
    run of *pairs_r* — an empty one for a row without any."""
    counts = np.bincount(pairs_l, minlength=left_length)
    ends = np.cumsum(counts)
    return Runs(pairs_r, ends - counts, ends)


def _outer_slots(kind: OpKind, left_length: int, right_length: int, pairs_l, pairs_r):
    """Outer-join output as one slot vector per side; ``-1`` means "pad".

    A left row's pairs come first, in pair order; a left row without any
    gets one padded slot in their place.  A full outerjoin appends the
    unmatched right rows in right-input order.
    """
    counts = np.bincount(pairs_l, minlength=left_length)
    slots = np.maximum(counts, 1)
    out_l = np.repeat(np.arange(left_length), slots)
    out_r = np.full(len(out_l), -1, dtype=np.intp)
    # pairs are left-major: pair p of left row i lands at i's first slot
    # plus p's rank among i's pairs
    shift = (np.cumsum(slots) - slots) - (np.cumsum(counts) - counts)
    out_r[np.arange(len(pairs_l)) + shift[pairs_l]] = pairs_r
    if kind is OpKind.FULL_OUTER:
        unmatched = _occurring(right_length, pairs_r, False)
        out_l = np.concatenate((out_l, np.full(len(unmatched), -1, dtype=np.intp)))
        out_r = np.concatenate((out_r, unmatched))
    return out_l, out_r


def _emit_join(op, left: Batch, right: Batch, pairs_l, pairs_r) -> Batch:
    """Materialise the join output from matched pairs (left-major order)."""
    kind: OpKind = op.op
    if kind is OpKind.INNER:
        return _pair_batch(left, right, pairs_l, pairs_r)

    if kind in (OpKind.LEFT_SEMI, OpKind.LEFT_ANTI):
        return left.take(_occurring(left.length, pairs_l, kind is OpKind.LEFT_SEMI))

    if kind is OpKind.GROUPJOIN:
        assert op.groupjoin_vector is not None
        partners = _partners(left.length, pairs_l, pairs_r)
        return left.extended(_aggregate_columns(op.groupjoin_vector, right, partners))

    if kind not in (OpKind.LEFT_OUTER, OpKind.FULL_OUTER):
        raise AssertionError(f"unhandled join kind {kind}")
    out_l, out_r = _outer_slots(kind, left.length, right.length, pairs_l, pairs_r)
    columns: Dict[str, Column] = {}
    for side, slots, defaults in (
        (left, out_l, dict(op.left_defaults)),
        (right, out_r, dict(op.right_defaults)),
    ):
        composed: dict = {}
        for attr in side.attributes:
            columns[attr] = side.column(attr).take_padded(
                slots, defaults.get(attr, NULL), composed
            )
    return Batch(left.attributes + right.attributes, columns, len(out_l))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _aggregate_columns(vector: AggVector, source: Batch, runs: Runs) -> List[Tuple[str, Column]]:
    """One output column per aggregate, argument expressions evaluated once."""
    out: List[Tuple[str, Column]] = []
    for item in vector:
        call = item.call
        if call.kind is AggKind.COUNT_STAR:
            out.append((item.name, Column((runs.ends - runs.starts).tolist())))
            continue
        argument = eval_expr(call.arg, source)
        column = None if call.distinct else _array_fold(call.kind, argument, runs)
        if column is None:
            column = _python_fold(call.kind, call.distinct, argument, runs)
        out.append((item.name, column))
    return out


def _array_fold(kind: AggKind, column: Column, runs: Runs) -> Optional[Column]:
    """*kind* folded over every run with ``ufunc.reduceat`` where that is
    exact by construction, else None (:func:`_python_fold` takes it).

    ``count`` counts the valid rows.  ``min`` / ``max`` reduce exact
    lanes and then *take* the first row of each run that attains the
    result, so the value, its type and its spelling are the argument
    column's own (``min([1.0, 1])`` is ``1.0``).  ``sum`` adds int64
    where the column holds nothing but ints and no run can leave 2^62.
    Float sums are python's: its ``sum`` is not plain left-to-right
    addition on every version, and the interpreter's is what we owe.

    ``reduceat`` returns the *next* run's first element for an empty run
    and refuses an index at the end of the array, so only the non-empty
    runs are folded — they tile the rows, each one's start being the end
    of the one before — and the results scattered.
    """
    if kind is AggKind.AVG or (kind is AggKind.SUM and not column.int_only()):
        return None
    lanes = column.lanes() if kind is AggKind.COUNT else column.key_lanes()
    if lanes is None:
        return None
    data, valid = lanes
    order, starts, ends = runs
    lengths = ends - starts
    filled = lengths.nonzero()[0]
    cuts = starts[filled]
    if valid is not None:
        valid = valid[order]
    if kind in (AggKind.COUNT, AggKind.SUM):
        counts = lengths
        if valid is not None:
            counts = np.zeros(len(lengths), dtype=np.intp)
            counts[filled] = np.add.reduceat(valid.astype(np.intp), cuts)
        if kind is AggKind.COUNT:
            return Column(counts.tolist())
        if not len(filled) or max(data.max(), -data.min()) * int(lengths.max()) >= 2.0**62:
            return None
        lane = data[order]
        if valid is not None:
            lane = np.where(valid, lane, 0.0)
        sums = np.zeros(len(lengths), dtype=np.int64)
        sums[filled] = np.add.reduceat(lane.astype(np.int64), cuts)
        totals = sums.tolist()
        for run in (counts == 0).nonzero()[0].tolist():
            totals[run] = NULL
        return Column(totals)
    ufunc, worst = (np.minimum, np.inf) if kind is AggKind.MIN else (np.maximum, -np.inf)
    lane = data[order]
    if valid is not None:
        lane = np.where(valid, lane, worst)
    hit = lane == np.repeat(ufunc.reduceat(lane, cuts), lengths[filled])
    if valid is not None:
        hit &= valid
    # the first hit at or after each run's start; past its end: no valid row
    hits = np.append(hit.nonzero()[0], len(lane))
    first_hit = hits[np.searchsorted(hits, cuts)]
    found = first_hit < ends[filled]
    if len(filled) == len(lengths) and bool(found.all()):
        return column.take(order[first_hit])
    rows = np.full(len(lengths), -1, dtype=np.intp)
    rows[filled[found]] = order[first_hit[found]]
    return column.take_padded(rows, NULL)


def _python_fold(kind: AggKind, distinct: bool, column: Column, runs: Runs) -> Column:
    """*kind* over every run in python: the argument's values gathered
    once in run order, their NULLs dropped by one ``compress`` (the
    runs' bounds moved with them), and each run one slice.

    A non-DISTINCT ``sum`` / ``avg`` over numbers is python's own
    ``sum`` mapped over the slices — in member order, so float results
    are the interpreter's bit for bit, and with no call per group; an
    empty run is NULL.  DISTINCT, ``min`` / ``max`` over inexact lanes
    and strings take :func:`_evaluate_call` once a run.
    """
    order, starts, ends = runs
    values = column.take(order).values
    lanes = column.lanes()
    if lanes is None or lanes[1] is not None:
        if lanes is None:
            keep = np.fromiter((value is not NULL for value in values), bool, len(values))
        else:
            keep = lanes[1][order]
        bounds = np.concatenate(([0], np.cumsum(keep)))
        values = list(compress(values, keep.tolist()))
        starts, ends = bounds[starts], bounds[ends]
    members = map(values.__getitem__, map(slice, starts.tolist(), ends.tolist()))
    if distinct or lanes is None or kind not in (AggKind.SUM, AggKind.AVG):
        return Column([_evaluate_call(kind, distinct, run) for run in members])
    totals = list(map(sum, members))
    counts = ends - starts
    if kind is AggKind.AVG:
        totals = list(map(truediv, totals, np.maximum(counts, 1).tolist()))
    for run in (counts == 0).nonzero()[0].tolist():
        totals[run] = NULL
    return Column(totals)


def _evaluate_call(kind: AggKind, distinct: bool, values: List[SqlValue]) -> SqlValue:
    """``AggCall.evaluate`` over a group's non-NULL argument values."""
    if distinct:
        seen = set()
        unique: List[SqlValue] = []
        for v in values:
            key = group_key(v)
            if key not in seen:
                seen.add(key)
                unique.append(v)
        values = unique
    if kind is AggKind.COUNT:
        return len(values)
    if not values:
        return NULL
    if kind is AggKind.SUM:
        return sum(values)
    if kind is AggKind.MIN:
        return min(values)
    if kind is AggKind.MAX:
        return max(values)
    if kind is AggKind.AVG:
        return sum(values) / len(values)
    raise AssertionError(f"unhandled aggregate kind {kind}")


def _group_rows(child: Batch, group_attrs: Tuple[str, ...]):
    """``(firsts, runs)``: per group its first row, and the groups as
    :class:`Runs` — members in input order, groups in order of first
    occurrence.

    Every grouping column brings a code per row — exact lanes
    factorised, key codes otherwise (:func:`_grouping_codes`); each code
    is ranked by the first row that holds it, and one sort of
    ``(rank, row)`` lays the runs out.
    """
    rows = child.length
    if not rows:
        none = np.zeros(0, dtype=np.intp)
        return none, Runs(none, none, none)
    if not group_attrs:  # one group of everything
        one = np.zeros(1, dtype=np.intp)
        return one, Runs(np.arange(rows), one, one + rows)
    codes, width = _combined([_grouping_codes(child.column(a)) for a in group_attrs], rows)
    row_ids = np.arange(rows)
    first = np.full(width, rows)
    # a repeated index keeps its last assignment: the smallest row
    first[codes[::-1]] = row_ids[::-1]
    present = (first < rows).nonzero()[0]
    by_first = present[np.argsort(first[present])]
    rank = np.empty(width, dtype=np.intp)
    rank[by_first] = np.arange(len(by_first))
    ranks = rank[codes]
    counts = np.bincount(ranks)
    ends = np.cumsum(counts)
    order = _ordered(ranks, len(by_first))
    return first[by_first], Runs(order, ends - counts, ends)


def _group_agg(op: PhysGroupAgg, child: Batch) -> Batch:
    firsts, runs = _group_rows(child, op.group_attrs)
    columns = {attr: child.column(attr).take(firsts) for attr in op.group_attrs}
    grouped = Batch(op.group_attrs, columns, len(firsts))
    grouped = grouped.extended(_aggregate_columns(op.vector, child, runs))

    if not op.post:
        return grouped
    existing = set(grouped.attributes)
    new_cols = [(name, expr) for name, expr in op.post if name not in existing]
    if new_cols:
        grouped = grouped.extended([(name, eval_expr(expr, grouped)) for name, expr in new_cols])
    return grouped.project(op.attributes)
