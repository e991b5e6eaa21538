"""Plan execution: one logical plan, two interchangeable backends.

``run_plan(plan, database, executor=..., limit=...)`` is the seam:

* ``"interpreter"`` — the recursive tuple-at-a-time reference backend
  (:mod:`repro.exec.interpreter`, stdlib-only, the executable spec),
* ``"columnar"`` — the vectorized physical-operator backend
  (:mod:`repro.exec.physical` lowering + :mod:`repro.exec.columnar`),
  row-set identical to the interpreter by the differential test suite.

*database* maps relation name to a :class:`~repro.algebra.relation.Relation`
or to any columnar source exposing ``as_batch()``/``to_relation()``
(:class:`repro.data.tables.ColumnTable` views) — each backend adapts
the other's native format at the scan boundary.

``run_columns`` (same arguments) is the same run column-major —
attributes plus one value list each — which is what ``/execute``
replies from: the columnar backend then builds no row at all.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.algebra.relation import Relation
from repro.algebra.values import SqlValue
from repro.exec.interpreter import Database, execute
from repro.plans.nodes import PlanNode

#: the registered executor backends, default first.
EXECUTORS: Tuple[str, ...] = ("interpreter", "columnar")

DEFAULT_EXECUTOR = "interpreter"


class _RelationAdapter(Mapping):
    """Lazy Relation view of a mixed Relation/ColumnTable database."""

    __slots__ = ("_source",)

    def __init__(self, source: Mapping[str, object]):
        self._source = source

    def __getitem__(self, key: str) -> Relation:
        value = self._source[key]
        if isinstance(value, Relation):
            return value
        to_relation = getattr(value, "to_relation", None)
        if to_relation is not None:
            return to_relation()
        raise TypeError(f"cannot execute against {type(value).__name__} source {key!r}")

    def __iter__(self):
        return iter(self._source)

    def __len__(self) -> int:
        return len(self._source)


def _execute(plan: PlanNode, database: Mapping[str, object], executor: str, limit: Optional[int]):
    """The backend's own result: a :class:`Relation` from the
    interpreter, a column :class:`~repro.exec.columns.Batch` from the
    columnar backend.

    *limit*, when given, truncates the result to its first rows (the
    columnar backend truncates via a physical limit operator; the
    interpreter truncates the materialised result — both see the same
    rows because every operator's emission order is deterministic).
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if executor == "interpreter":
        result = execute(plan, _RelationAdapter(database))
        if limit is not None and len(result.rows) > limit:
            return Relation(result.attributes, result.rows[:limit])
        return result
    if executor == "columnar":
        from repro.exec.columnar import execute_physical
        from repro.exec.physical import PhysLimit, lower

        physical = lower(plan)
        if limit is not None:
            physical = PhysLimit(limit, physical)
        return execute_physical(physical, database)
    raise ValueError(f"unknown executor {executor!r} (registered: {', '.join(EXECUTORS)})")


def run_plan(
    plan: PlanNode,
    database: Mapping[str, object],
    executor: str = DEFAULT_EXECUTOR,
    limit: Optional[int] = None,
) -> Relation:
    """Execute *plan* against *database* with the chosen backend, to its
    first *limit* rows when *limit* is given."""
    result = _execute(plan, database, executor, limit)
    return result if isinstance(result, Relation) else result.to_relation()


def run_columns(
    plan: PlanNode,
    database: Mapping[str, object],
    executor: str = DEFAULT_EXECUTOR,
    limit: Optional[int] = None,
) -> Tuple[Tuple[str, ...], List[List[SqlValue]]]:
    """:func:`run_plan`'s result column-major: its attributes and one
    value list per attribute (NULL in place), rows in emission order.

    The columnar backend hands its columns' own value lists over, with
    no row built; read them, never write (a base table's column may be
    among them).
    """
    result = _execute(plan, database, executor, limit)
    if isinstance(result, Relation):
        rows = result.rows
        return result.attributes, [[row[a] for row in rows] for a in result.attributes]
    return result.attributes, [result.column(a).values for a in result.attributes]


def load_backend(executor: str) -> None:
    """Import *executor*'s modules now instead of inside the first plan it
    runs.  The columnar backend and its array library load lazily, so
    that planning-only users never pay for them; a process that will
    execute calls this while it boots."""
    if executor == "columnar":
        import repro.exec.columnar  # noqa: F401


__all__ = [
    "execute", "run_plan", "run_columns", "load_backend", "Database", "EXECUTORS", "DEFAULT_EXECUTOR",
]
