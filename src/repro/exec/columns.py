"""Column batches: the unit of work of the columnar executor.

A :class:`Column` is one attribute's values for a batch of rows.  It
has up to four representations, each derived from another only when
something reads it:

* ``values`` — a plain python list with the
  :data:`~repro.algebra.values.NULL` sentinel in place,
* ``lanes`` — for numeric columns, a ``float64`` data array plus a
  validity mask (``None`` when the column holds no NULL), which is what
  the vectorized expression evaluator and the array join / grouping
  kernels compute on,
* ``key codes`` — for any column, an ``intp`` array plus the dictionary
  ``value → code`` it was assigned by (:meth:`Column.key_codes`): two
  rows share a code iff a python dict takes their values for one key,
  which is exactly how :func:`~repro.algebra.values.group_key` tuples
  compare (``1 == 1.0 == True``, NULL an entry like any other, a NaN
  object equal to itself alone, ``2**53`` apart from ``2**53 + 1``).
  What groups a column that has no exact lanes, and what answers its
  comparison with a constant once per entry instead of once per row,
* a *late take* — ``(parent column, index vector)``: what
  :meth:`Column.take` returns.  A take of a take composes the two index
  vectors, so the parent is always a column that owns its data; values
  are gathered from the parent's python values (an int stays an int),
  lanes and key codes by one array gather of the parent's, and a column
  nothing reads is never gathered at all.  A constant
  (:func:`const_column`) is a take of a one-value column.

numpy is the execution tier's dependency, and this module — the root
every columnar and dataset path imports — is where a process without it
learns so, in one line naming the ``exec`` extra; planning never
imports it.  IEEE-754 doubles make elementwise ``+ - * /`` and the six
comparisons on lanes bit-identical to the python-float semantics of
:func:`~repro.algebra.values.sql_arith` /
:func:`~repro.algebra.values.sql_compare`, which is what lets the
executor promise the interpreter's rows.  The one deliberate
divergence: python ints are arbitrary precision, float64 lanes are not,
so integer *arithmetic* beyond 2^53 loses exactness.

Lanes are *exact* when comparing them compares the values: no NaN (one
python NaN is not another) and no int at or beyond ±2^53 (where float64
stops telling neighbours apart).  Only exact lanes may key a join or a
grouping, decide a comparison or be folded into a ``min`` / ``max`` —
:meth:`Column.key_lanes`.  A second verdict rides with them, *int-only*
(:meth:`Column.int_only`): every non-NULL value is a python int, so an
int64 sum of the lanes is the int python's ``sum`` would return.  Both
are read off a value list once, when its lanes are built, and a late
take inherits its parent's.

Columns are immutable once built and may be shared: by the batches of
one execution, and — for a :class:`~repro.data.tables.ColumnTable`'s
base columns — by every request of the process, which is what makes a
base column's lanes and its dictionary a once-per-process cost.

A :class:`Batch` is an ordered schema over columns of equal length —
the columnar analogue of :class:`~repro.algebra.relation.Relation`, with
conversions both ways at the executor boundary.  A result leaves the
executor column-major — its columns' value lists, read once, which is
what ``/execute`` replies from (:func:`repro.exec.run_columns`) — or
as rows: :meth:`Batch.to_relation`, for :func:`repro.exec.run_plan`'s
callers, is the only place ``Row`` objects are built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError as missing:  # pragma: no cover - exercised in a subprocess test
    raise ImportError("columnar execution needs numpy: pip install 'repro[exec]'") from missing

from repro.algebra.relation import Relation
from repro.algebra.rows import Row
from repro.algebra.values import NULL, SqlValue

#: ``Column._pad`` of a take whose index vector holds no ``-1``.
_NO_PAD = object()

#: the python types a float64 lane can hold (bool rides as 0.0 / 1.0).
_LANE_TYPES = frozenset((int, float, bool, type(NULL)))

#: of those, the ones python adds up to an int (``sum([True, 2]) == 3``).
_INT_TYPES = frozenset((int, bool, type(NULL)))

#: ints strictly inside ±2^53 convert to float64 without collisions.
_EXACT_INT_BOUND = float(2**53)


def _compose(index, indices, padded: bool):
    """``index[indices]``; with *padded*, ``-1`` in *indices* stays ``-1``."""
    if isinstance(indices, range):  # Batch.head: a prefix, no gather
        return index[indices.start : indices.stop : indices.step]
    vector = np.asarray(index)[indices]  # fancy indexing copies, so the fix-up below is safe
    if padded:
        vector[indices < 0] = -1
    return vector


def _lanes_of_values(values: List[SqlValue]):
    """``((data, valid), exact, int_only)`` of a value list, or three
    times False when it is not numeric (or holds an int float64 cannot
    represent)."""
    kinds = set(map(type, values))
    if not kinds <= _LANE_TYPES:
        return False, False, False
    try:
        if type(NULL) in kinds:
            valid = np.asarray([v is not NULL for v in values], dtype=bool)
            data = np.asarray([0.0 if v is NULL else v for v in values], dtype=np.float64)
        else:
            valid = None
            data = np.asarray(values, dtype=np.float64)
    except OverflowError:
        return False, False, False
    exact = not (float in kinds and bool(np.isnan(data).any())) and not (
        int in kinds and bool((np.abs(data) >= _EXACT_INT_BOUND).any())
    )
    return (data, valid), exact, kinds <= _INT_TYPES


def _codes_of_values(values: List[SqlValue]):
    """``(codes, table)`` of a value list: the dictionary in order of
    first occurrence, and each row's code looked up in it — two passes
    at C speed, no python per row."""
    table = dict.fromkeys(values)
    table = dict(zip(table, range(len(table))))
    codes = np.fromiter(map(table.__getitem__, values), dtype=np.intp, count=len(values))
    return codes, table


class Column:
    """One attribute's values: a value list, float64 lanes, key codes,
    or a late take."""

    __slots__ = (
        "_values", "_lanes", "_exact", "_int_only", "_codes", "_length", "_parent", "_index",
        "_pad",
    )

    def __init__(self, values: Optional[List[SqlValue]] = None, lanes=None):
        if values is None and lanes is None:
            raise ValueError("a column needs values or lanes")
        self._values = values
        #: (data float64 array, valid bool array | None) | None (not
        #: computed) | False (computed: column is not numeric)
        self._lanes = lanes
        #: whether the lanes are exact; None until somebody asks
        self._exact: Optional[bool] = None
        #: whether every non-NULL value is a python int (or bool): set
        #: with the lanes of a value list; computed lanes hold floats
        self._int_only = False
        #: (codes intp array, dict value -> code) | None (not computed)
        self._codes = None
        self._length = len(values) if values is not None else int(lanes[0].shape[0])
        self._parent: Optional["Column"] = None
        self._index = None
        self._pad = _NO_PAD

    @classmethod
    def _late(cls, parent: "Column", index, pad=_NO_PAD) -> "Column":
        column = object.__new__(cls)
        column._values = None
        column._lanes = None
        column._exact = None
        column._int_only = False
        column._codes = None
        column._length = len(index)
        column._parent = parent
        column._index = index
        column._pad = pad
        return column

    def __len__(self) -> int:
        return self._length

    @property
    def values(self) -> List[SqlValue]:
        """The python value list (gathered or read off the lanes on demand)."""
        if self._values is None:
            if self._parent is not None:
                source = self._parent.values
                if self._pad is _NO_PAD and len(source) == 1:
                    # every index is 0: a constant (const_column)
                    self._values = source * self._length
                else:
                    index = self._index
                    if not isinstance(index, range):
                        index = index.tolist()
                    if self._pad is _NO_PAD:
                        self._values = list(map(source.__getitem__, index))
                    else:
                        pad = self._pad
                        self._values = [pad if i < 0 else source[i] for i in index]
            else:
                data, valid = self._lanes
                out = data.tolist()
                if valid is not None and not bool(valid.all()):
                    for i in (~valid).nonzero()[0].tolist():
                        out[i] = NULL
                self._values = out
        return self._values

    def lanes(self):
        """``(data, valid)`` float64/bool lanes, or None if non-numeric.

        ``valid`` is None for a column without NULLs.  The numeric check
        and conversion run once per column — once per process for a
        table's base column.
        """
        if self._lanes is None:
            if self._parent is not None:
                lanes, exact, int_only = self._gathered_lanes()
            else:
                lanes, exact, int_only = _lanes_of_values(self._values)
            # the verdicts first: a concurrent reader that sees the lanes
            # must see them too
            self._exact = exact
            self._int_only = int_only
            self._lanes = lanes
        return self._lanes if self._lanes is not False else None

    def key_lanes(self):
        """The lanes if they are exact — fit to key a join or a grouping —
        else None: non-numeric, a NaN, or an int at or beyond ±2^53."""
        lanes = self.lanes()
        if lanes is None:
            return None
        if self._exact is None:  # computed lanes hold floats: only NaN is inexact
            self._exact = not bool(np.isnan(lanes[0]).any())
        return lanes if self._exact else None

    def int_only(self) -> bool:
        """Whether the column has lanes and every non-NULL value is a
        python int (bools count: ``sum`` adds them up to one) — an int64
        sum over exact lanes is then python's own, type included."""
        return self.lanes() is not None and self._int_only

    def _gathered_lanes(self):
        parent = self._parent
        lanes = parent.lanes()
        if lanes is None:
            return False, False, False
        data, valid = lanes
        index, pad = self._index, self._pad
        if pad is _NO_PAD:
            return (
                (data[index], None if valid is None else valid[index]),
                parent._exact,
                parent._int_only,
            )
        if type(pad) not in _LANE_TYPES:
            return False, False, False
        int_only = parent._int_only and type(pad) in _INT_TYPES
        # take_padded never pads an empty parent, so -1 reads the last
        # row and the fix-up overwrites it
        missing = np.asarray(index) < 0
        data = data[index]
        if pad is NULL:
            data[missing] = 0.0
            valid = ~missing if valid is None else valid[index] & ~missing
            return (data, valid), parent._exact, int_only
        try:
            data[missing] = pad
        except OverflowError:
            return False, False, False
        if valid is not None:
            valid = valid[index] | missing
        exact = parent._exact
        if pad != pad or (type(pad) is int and abs(pad) >= _EXACT_INT_BOUND):
            exact = False
        return (data, valid), exact, int_only

    def key_codes(self):
        """``(codes, table)``: one ``intp`` code per row and the
        dictionary ``value → code`` that assigned them.

        Two rows share a code iff the dictionary takes their values for
        one key — the equality of :func:`group_key` tuples.  A column
        that owns its values builds the dictionary from them, once (once
        per process for a table's base column); a late take gathers its
        parent's codes and shares its parent's dictionary, so entries of
        the table need not occur in the codes.  A pad value takes its
        entry's code, or a fresh one in a copy of the table.
        """
        if self._codes is None:
            if self._parent is None:
                self._codes = _codes_of_values(self.values)
            else:
                self._codes = self._gathered_codes()
        return self._codes

    def _gathered_codes(self):
        codes, table = self._parent.key_codes()
        index, pad = self._index, self._pad
        codes = codes[index]
        if pad is not _NO_PAD:
            pad_code = table.get(pad)
            if pad_code is None:
                pad_code = len(table)
                table = {**table, pad: pad_code}
            # as for lanes: -1 read the last row, the fix-up overwrites it
            codes[np.asarray(index) < 0] = pad_code
        return codes, table

    def take(self, indices, composed: Optional[dict] = None) -> "Column":
        """Late gather by row index (no padding — see ``take_padded``).

        *indices* is an index vector: an integer array, or a ``range``
        (a prefix).  *composed* lets the columns of one batch that share
        an earlier take compose it once.
        """
        if self._parent is None:
            return Column._late(self, indices)
        return Column._late(
            self._parent, self._composed(indices, False, composed), self._pad
        )

    def take_padded(self, indices, pad: SqlValue, composed: Optional[dict] = None) -> "Column":
        """Late gather; index ``-1`` yields *pad* (outerjoin fill)."""
        if self._length == 0:  # nothing to gather: every index is -1
            return const_column(pad, len(indices))
        if self._parent is None:
            return Column._late(self, indices, pad)
        if self._pad is not _NO_PAD and self._pad is not pad:
            # two different fills cannot share one index vector
            return Column._late(Column(self.values), indices, pad)
        return Column._late(self._parent, self._composed(indices, True, composed), pad)

    def _composed(self, indices, padded: bool, composed: Optional[dict]):
        if composed is None:
            return _compose(self._index, indices, padded)
        vector = composed.get(id(self._index))
        if vector is None:
            vector = composed[id(self._index)] = _compose(self._index, indices, padded)
        return vector


def const_column(value: SqlValue, length: int) -> Column:
    """*length* copies of *value*: a late take of a one-value column
    through a stride-0 index vector.  No list of *length* is built unless
    something reads the values, and the lanes are one gather of one
    float, not a conversion of *length* objects."""
    return Column([value]).take(np.broadcast_to(np.intp(0), (length,)))


class Batch:
    """An ordered schema over equal-length columns."""

    __slots__ = ("attributes", "columns", "length")

    def __init__(self, attributes: Sequence[str], columns: Dict[str, Column], length: int):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.columns = columns
        self.length = length

    # -- conversions --------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation) -> "Batch":
        columns = {
            attr: Column([row[attr] for row in relation.rows])
            for attr in relation.attributes
        }
        return cls(relation.attributes, columns, len(relation.rows))

    @classmethod
    def from_source(cls, source) -> "Batch":
        """Adapt a scan source: a Relation or anything with ``as_batch()``."""
        if isinstance(source, Relation):
            return cls.from_relation(source)
        as_batch = getattr(source, "as_batch", None)
        if as_batch is not None:
            return as_batch()
        raise TypeError(f"cannot scan {type(source).__name__} as a column batch")

    def to_relation(self) -> Relation:
        value_lists = [self.columns[attr].values for attr in self.attributes]
        rows = [
            Row(dict(zip(self.attributes, values)))
            for values in zip(*value_lists)
        ] if self.attributes else [Row() for _ in range(self.length)]
        return Relation(self.attributes, rows)

    # -- structural operators ------------------------------------------------
    def column(self, attr: str) -> Column:
        return self.columns[attr]

    def take(self, indices) -> "Batch":
        """Late gather of every column by one index vector."""
        composed: dict = {}
        columns = {attr: col.take(indices, composed) for attr, col in self.columns.items()}
        return Batch(self.attributes, columns, len(indices))

    def head(self, count: int) -> "Batch":
        if count >= self.length:
            return self
        return self.take(range(count))

    def project(self, attrs: Sequence[str]) -> "Batch":
        attrs = tuple(attrs)
        return Batch(attrs, {a: self.columns[a] for a in attrs}, self.length)

    def extended(self, new_columns: Sequence[Tuple[str, Column]]) -> "Batch":
        overlap = [name for name, _ in new_columns if name in self.columns]
        if overlap:
            raise ValueError(f"map would overwrite existing attributes: {set(overlap)}")
        columns = dict(self.columns)
        for name, col in new_columns:
            columns[name] = col
        attrs = self.attributes + tuple(name for name, _ in new_columns)
        return Batch(attrs, columns, self.length)

    @classmethod
    def concat_schemas(cls, left: "Batch", right: "Batch") -> "Batch":
        """Horizontal concatenation of two equal-length disjoint batches."""
        overlap = set(left.attributes) & set(right.attributes)
        if overlap:
            raise ValueError(f"cannot concatenate batches with overlapping attributes: {overlap}")
        if left.length != right.length:
            raise ValueError("horizontal concat requires equal lengths")
        columns = dict(left.columns)
        columns.update(right.columns)
        return cls(left.attributes + right.attributes, columns, left.length)

    def __repr__(self) -> str:
        return f"Batch({list(self.attributes)}, {self.length} rows)"
