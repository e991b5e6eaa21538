"""The ``both`` fixture: run a plan on the columnar executor and the
interpreter, assert row-set equality, return the columnar result — once
for each way a scan source reaches the executor.

* ``relation`` — a :class:`Relation`, converted row by row at the scan;
* ``table`` — a :class:`ColumnTable`, whose base columns (and the lanes
  and key-code dictionaries cached on them) every scan shares;
* ``taken`` — the same rows as late takes of longer base columns that
  hold them shuffled and once more reversed, so every operator reads
  lanes, key codes and values through an index vector.

The interpreter always sees the relation's own rows.
"""

import random

import pytest

from repro.algebra.relation import Relation
from repro.exec import run_plan

SOURCES = ("relation", "table", "taken")


class TakenTable:
    """*relation*'s rows, as a scan source, through one late take."""

    def __init__(self, name, relation):
        from repro.data.tables import ColumnTable

        rows = relation.rows
        order = random.Random(len(rows)).sample(range(len(rows)), len(rows))
        stored = [rows[i] for i in order] + rows[::-1]
        self.table = ColumnTable(
            name, {a: [row[a] for row in stored] for a in relation.attributes}
        )
        self.index = sorted(range(len(order)), key=order.__getitem__)  # order's inverse
        self.relation = relation

    def as_batch(self):
        import numpy as np

        return self.table.as_batch().take(np.asarray(self.index, dtype=np.intp))

    def to_relation(self):
        return self.relation


def adapted(database, source):
    """*database* with every :class:`Relation` served as *source*."""
    if source == "relation":
        return database
    from repro.data.tables import ColumnTable

    convert = ColumnTable.from_relation if source == "table" else TakenTable
    return {
        name: convert(name, value) if isinstance(value, Relation) else value
        for name, value in database.items()
    }


@pytest.fixture(params=SOURCES)
def both(request):
    def run(plan, database, limit=None):
        database = adapted(database, request.param)
        columnar = run_plan(plan, database, executor="columnar", limit=limit)
        interpreter = run_plan(plan, database, executor="interpreter", limit=limit)
        assert columnar == interpreter
        return columnar

    return run
