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
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.algebra.relation import Relation
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


def run_plan(
    plan: PlanNode,
    database: Mapping[str, object],
    executor: str = DEFAULT_EXECUTOR,
    limit: Optional[int] = None,
) -> Relation:
    """Execute *plan* against *database* with the chosen backend.

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
        return execute_physical(physical, database).to_relation()
    raise ValueError(f"unknown executor {executor!r} (registered: {', '.join(EXECUTORS)})")


def load_backend(executor: str) -> None:
    """Import *executor*'s modules now instead of inside the first plan it
    runs.  The columnar backend and its array library load lazily, so
    that planning-only users never pay for them; a process that will
    execute calls this while it boots."""
    if executor == "columnar":
        import repro.exec.columnar  # noqa: F401


__all__ = ["execute", "run_plan", "load_backend", "Database", "EXECUTORS", "DEFAULT_EXECUTOR"]
