"""Catalogs: table statistics the SQL binder resolves names against."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple


def check_scale_factor(scale_factor: float) -> None:
    """Reject a TPC-H scale factor that is not a finite number > 0: SF 0,
    a negative SF or NaN price every plan at 0 or nonsense, SF ∞
    overflows the statistics."""
    if not (math.isfinite(scale_factor) and scale_factor > 0):
        raise ValueError(f"scale_factor must be finite and > 0, got {scale_factor}")


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table (unqualified column names)."""

    name: str
    columns: Tuple[str, ...]
    cardinality: float
    distinct: Mapping[str, float] = field(default_factory=dict)
    keys: Tuple[FrozenSet[str], ...] = ()

    def distinct_count(self, column: str) -> float:
        return max(1.0, min(self.distinct.get(column, self.cardinality), self.cardinality))


@dataclass(frozen=True)
class StatsDelta:
    """One statistics drift event: a table's stats moved old → new.

    Returned by :meth:`Catalog.update_stats`, so its caller can react
    *proportionally* — a serving core marks the entries that scan the
    table stale for re-costing instead of dropping them (the
    stale-while-revalidate path), and reports how far the numbers moved.
    """

    relation: str
    old: TableStats
    new: TableStats

    @property
    def cardinality_ratio(self) -> float:
        """new/old row count (1.0 = unchanged; guards old == 0)."""
        if self.old.cardinality <= 0:
            return float("inf") if self.new.cardinality > 0 else 1.0
        return self.new.cardinality / self.old.cardinality

    def payload(self) -> dict:
        """A JSON-ready old → new summary (for /stats and logs)."""
        return {
            "relation": self.relation,
            "old_cardinality": self.old.cardinality,
            "new_cardinality": self.new.cardinality,
            "cardinality_ratio": self.cardinality_ratio,
            "distinct_changed": sorted(
                column
                for column in self.new.columns
                if self.old.distinct_count(column) != self.new.distinct_count(column)
            ),
        }


class Catalog:
    """A set of tables the binder can resolve.

    Nothing is told when statistics change: a plan cache keys every plan
    by the statistics it was costed under
    (:func:`~repro.service.fingerprint.cardinality_snapshot`), so a plan
    priced under old numbers is a miss, not a hit.
    """

    def __init__(self):
        self._tables: Dict[str, TableStats] = {}

    def register(self, stats: TableStats) -> None:
        self._tables[stats.name.lower()] = stats

    def update_stats(self, table: str, stats: TableStats) -> StatsDelta:
        """Drift an existing table's statistics and return the delta.

        Unlike :meth:`register`, the table must already exist, and the
        caller learns exactly how its numbers moved (old → new) — what a
        serving core needs to mark its entries stale and re-cost them
        instead of cold-starting (``ServingCore.stats_update``).

        Raises ``KeyError`` for unknown tables and ``ValueError`` when
        *stats* names a different table.
        """
        old = self._tables.get(table.lower())
        if old is None:
            raise KeyError(f"unknown table {table!r} (register it first)")
        if stats.name.lower() != table.lower():
            raise ValueError(
                f"stats are for table {stats.name!r}, not {table!r}"
            )
        self._tables[table.lower()] = stats
        return StatsDelta(relation=old.name, old=old, new=stats)

    def lookup(self, name: str) -> Optional[TableStats]:
        return self._tables.get(name.lower())

    def tables(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tables))

    @classmethod
    def from_tpch(cls, scale_factor: float = 1.0) -> "Catalog":
        """The eight TPC-H tables with SF-scaled statistics; *scale_factor*
        must be finite and > 0."""
        from repro.tpch.schema import TABLES
        from repro.tpch.stats import scaled_distinct

        check_scale_factor(scale_factor)
        catalog = cls()
        for table in TABLES.values():
            distinct = {
                column: scaled_distinct(table.name, column, scale_factor)
                for column in table.columns
            }
            catalog.register(
                TableStats(
                    name=table.name,
                    columns=table.columns,
                    cardinality=table.cardinality(scale_factor),
                    distinct=distinct,
                    keys=(frozenset(table.primary_key),),
                )
            )
        return catalog
