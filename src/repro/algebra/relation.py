"""Relations: named schemas plus bags of rows.

A :class:`Relation` is a *bag* (multiset) of :class:`~repro.algebra.rows.Row`
objects over a fixed attribute list.  Equality is bag equality, which is what
all correctness tests in this repository compare.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.algebra.rows import Row
from repro.algebra.values import SqlValue


class Relation:
    """An ordered-schema, unordered-content bag of rows."""

    __slots__ = ("attributes", "rows")

    def __init__(self, attributes: Sequence[str], rows: Iterable[Row] = ()):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.rows: List[Row] = list(rows)
        expected = set(self.attributes)
        for row in self.rows:
            if set(row.keys()) != expected:
                raise ValueError(
                    f"row schema {sorted(row.keys())} does not match relation schema {sorted(expected)}"
                )

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_tuples(
        cls, attributes: Sequence[str], tuples: Iterable[Sequence[SqlValue]]
    ) -> "Relation":
        """Build a relation from positional value tuples (test convenience)."""
        attrs = tuple(attributes)
        rows = [Row(dict(zip(attrs, values, strict=True))) for values in tuples]
        return cls(attrs, rows)

    # -- bag protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.attributes) != set(other.attributes):
            return False
        return Counter(self.rows) == Counter(other.rows)

    def __hash__(self) -> int:  # pragma: no cover - relations are not dict keys
        raise TypeError("Relation is unhashable")

    def counter(self) -> Counter:
        """Multiset view of the rows."""
        return Counter(self.rows)

    def is_duplicate_free(self) -> bool:
        """True when no row occurs more than once."""
        return all(count == 1 for count in self.counter().values())

    # -- presentation -------------------------------------------------------
    def __repr__(self) -> str:
        return f"Relation({list(self.attributes)}, {len(self.rows)} rows)"

    def pretty(self, sort: bool = True) -> str:
        """ASCII table rendering (NULL shown as ``-`` like in the paper)."""
        headers = list(self.attributes)
        body = [[_fmt(row[a]) for a in headers] for row in self.rows]
        if sort:
            body.sort()
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)


def _fmt(value: SqlValue) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
