"""Catalogs: table statistics the SQL binder resolves names against."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple


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

    Emitted by :meth:`Catalog.update_stats` to delta subscribers so they
    can react *proportionally* — a plan cache marks affected entries
    stale for re-costing instead of dropping them wholesale (the
    stale-while-revalidate path), and a monitor can log how far the
    numbers moved.
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

    Registering (or re-registering with fresh statistics) a table notifies
    subscribers — the hook :class:`repro.service.cache.PlanCache` uses to
    evict plans whose statistics went stale.
    """

    def __init__(self):
        self._tables: Dict[str, TableStats] = {}
        self._listeners: List[Callable[[str], object]] = []
        self._delta_listeners: List[Callable[[StatsDelta], object]] = []

    def subscribe(self, callback: Callable[[str], object]) -> Callable[[], None]:
        """Call *callback(table_name)* whenever a table (re)registers.

        Returns an unsubscribe handle; calling it detaches the callback
        (idempotent), releasing the catalog's reference to it.
        """
        return self._attach(self._listeners, callback)

    def subscribe_deltas(
        self, callback: Callable[[StatsDelta], object]
    ) -> Callable[[], None]:
        """Call *callback(delta)* whenever :meth:`update_stats` drifts a
        table's statistics.  Deltas carry the old AND new stats, so a
        subscriber can react proportionally (mark-stale + re-cost) where
        the name-only :meth:`subscribe` channel can only invalidate.

        Returns an unsubscribe handle like :meth:`subscribe`.
        """
        return self._attach(self._delta_listeners, callback)

    @staticmethod
    def _attach(listeners: List, callback) -> Callable[[], None]:
        listeners.append(callback)
        detached = False

        def unsubscribe() -> None:
            # One-shot: a second call must not detach another subscription
            # that registered an equal callback.
            nonlocal detached
            if detached:
                return
            detached = True
            listeners.remove(callback)

        return unsubscribe

    def register(self, stats: TableStats) -> None:
        self._tables[stats.name.lower()] = stats
        for callback in list(self._listeners):
            try:
                callback(stats.name)
            except Exception:
                # A misbehaving subscriber must not fail table registration
                # or starve the remaining subscribers.
                continue

    def update_stats(self, table: str, stats: TableStats) -> StatsDelta:
        """Drift an existing table's statistics, emitting a typed delta.

        The successor to the re-register idiom for statistics refreshes:
        where :meth:`register` announces "this table changed, drop
        everything" to name subscribers, ``update_stats`` requires the
        table to already exist and tells delta subscribers exactly how
        its numbers moved (old → new), which is what lifecycle-aware
        caches need to mark entries stale and re-cost instead of
        cold-starting.  Name subscribers are deliberately NOT notified —
        wholesale invalidation is exactly what this path replaces.

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
        delta = StatsDelta(relation=old.name, old=old, new=stats)
        for callback in list(self._delta_listeners):
            try:
                callback(delta)
            except Exception:
                # A misbehaving subscriber must not abort the update or
                # starve the remaining subscribers.
                continue
        return delta

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
