"""Columnar-native tables and datasets for the execution tier.

A :class:`ColumnTable` holds one base table column-major under *bare*
column names (``"n_name"``).  Query plans reference *qualified*
attributes (``"ns.n_name"``), so a table serves scans through cheap
:meth:`ColumnTable.view` objects that re-label the shared value lists —
no copying per alias, no row materialisation until an interpreter-backed
execution asks for one.

A :class:`Dataset` is a named collection of tables plus the resolution
logic from a query's :class:`~repro.query.spec.RelationInfo` entries to
scan sources (by ``source_table``, by name, or — for hand-built aliased
queries — by column-set matching), and the bridge into the optimizer:
:meth:`Dataset.register_stats` prices the cost model with *measured*
row counts and distinct counts instead of spec-derived estimates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.relation import Relation
from repro.algebra.rows import Row
from repro.algebra.values import NULL, SqlValue, group_key
from repro.exec.columns import Batch, Column
from repro.sql.catalog import Catalog, TableStats


class ColumnTable:
    """One base table, column-major, with cached row-view conversion.

    The table keeps one :class:`~repro.exec.columns.Column` per value
    list, and every :meth:`view` and every :meth:`as_batch` — so every
    request — hands out that same object: whatever a column caches (its
    float64 lanes and its key-code dictionary, once an expression or a
    join / grouping key asks for them) is computed once per process.  The precondition is that **a
    table's value lists are immutable once built**: nothing may append
    to, reorder or overwrite them.  (``/stats_update`` changes catalog
    statistics, never data.)
    """

    __slots__ = ("name", "attributes", "_columns", "length", "_relation")

    def __init__(self, name: str, columns: Mapping[str, Union[List[SqlValue], Column]]):
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(columns)
        #: a value list is wrapped once, here; a Column (``view``) is shared
        self._columns: Dict[str, Column] = {
            attr: values if isinstance(values, Column) else Column(values)
            for attr, values in columns.items()
        }
        lengths = {len(column) for column in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns for table {name!r}: lengths {sorted(lengths)}")
        self.length = lengths.pop() if lengths else 0
        self._relation: Optional[Relation] = None

    @classmethod
    def from_relation(cls, name: str, relation: Relation) -> "ColumnTable":
        columns = {
            attr: [row[attr] for row in relation.rows] for attr in relation.attributes
        }
        return cls(name, columns)

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> List[SqlValue]:
        return self._columns[name].values

    # -- executor adapters ---------------------------------------------------
    def as_batch(self) -> Batch:
        return Batch(self.attributes, dict(self._columns), self.length)

    def to_relation(self) -> Relation:
        if self._relation is None:
            value_lists = [self._columns[attr].values for attr in self.attributes]
            rows = [
                Row(dict(zip(self.attributes, values))) for values in zip(*value_lists)
            ]
            self._relation = Relation(self.attributes, rows)
        return self._relation

    def view(self, attributes: Sequence[str]) -> "ColumnTable":
        """Re-label columns under qualified names, sharing the columns.

        Each attribute resolves to the bare column after its last ``"."``
        (``"ns.n_name"`` → ``"n_name"``); unqualified names resolve as
        themselves.
        """
        columns: Dict[str, Column] = {}
        for attr in attributes:
            bare = attr.rsplit(".", 1)[-1]
            source = self._columns.get(attr, self._columns.get(bare))
            if source is None:
                raise KeyError(
                    f"table {self.name!r} has no column for attribute {attr!r} "
                    f"(columns: {', '.join(self.attributes)})"
                )
            columns[attr] = source
        return ColumnTable(self.name, columns)

    # -- statistics ----------------------------------------------------------
    def stats(self, keys: Tuple = ()) -> TableStats:
        """Measured statistics: true cardinality and distinct counts."""
        distinct = {
            attr: float(len({group_key(v) for v in column.values}))
            for attr, column in self._columns.items()
        }
        return TableStats(
            self.name,
            self.attributes,
            float(self.length),
            distinct,
            tuple(keys),
        )

    def null_fraction(self, column: str) -> float:
        values = self._columns[column].values
        if not values:
            return 0.0
        return sum(1 for v in values if v is NULL) / len(values)

    def __repr__(self) -> str:
        return f"ColumnTable({self.name!r}, {len(self.attributes)} cols, {self.length} rows)"


class Dataset:
    """Named tables + query-relation resolution + catalog registration."""

    def __init__(self, tables: Mapping[str, ColumnTable], name: str = "dataset"):
        self.name = name
        self.tables: Dict[str, ColumnTable] = {
            table_name.lower(): table for table_name, table in tables.items()
        }

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.tables

    def table(self, name: str) -> ColumnTable:
        return self.tables[name.lower()]

    def register_stats(self, catalog: Catalog, keys: Optional[Mapping[str, Tuple]] = None) -> None:
        """Register every table's *measured* statistics with *catalog*."""
        keys = keys or {}
        for table in self.tables.values():
            catalog.register(table.stats(keys=tuple(keys.get(table.name.lower(), ()))))

    def resolve(self, rel) -> ColumnTable:
        """The base table backing a query :class:`RelationInfo`."""
        source = rel.source_table.lower()
        if source in self.tables:
            return self.tables[source]
        if rel.name.lower() in self.tables:
            return self.tables[rel.name.lower()]
        # Hand-built aliased relations (name == alias, no source): match
        # by bare column set, the same way tpch.queries._table_of does.
        wanted = sorted(a.rsplit(".", 1)[-1] for a in rel.attributes)
        for table in self.tables.values():
            if sorted(table.attributes) == wanted:
                return table
        raise KeyError(
            f"dataset {self.name!r} has no table for relation {rel.name!r} "
            f"(source {rel.source_table!r})"
        )

    def database_for(self, query) -> Dict[str, ColumnTable]:
        """A scan-source mapping for every relation of *query*."""
        return {rel.name: self.resolve(rel).view(rel.attributes) for rel in query.relations}

    def total_rows(self) -> int:
        return sum(table.length for table in self.tables.values())

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {len(self.tables)} tables, {self.total_rows()} rows)"
