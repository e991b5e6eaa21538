"""Array-backend seam for the columnar executor.

numpy is an *accelerator*, never a dependency.  Every columnar code path
has a pure-python fallback, selected automatically when numpy is missing or
forced with ``REPRO_EXEC_FORCE_FALLBACK=1`` (the differential test suite
runs both ways).

Numeric columns are lowered to ``float64`` lanes.  IEEE-754 doubles make
elementwise ``+ - * /`` and the six comparisons bit-identical to the
python-float semantics of :func:`repro.algebra.values.sql_arith` /
:func:`~repro.algebra.values.sql_compare`, which is what lets the
columnar backend promise row-set equality with the interpreter.  The one
deliberate divergence: python ints are arbitrary precision, float64
lanes are not — integer *arithmetic* beyond 2^53 would lose exactness.
Join and grouping *keys*, *comparisons* and *aggregates* never do: a
column records whether its lanes are exact (no NaN, every int strictly
inside ±2^53 — :meth:`repro.exec.columns.Column.key_lanes`) and only
exact lanes key a join or a grouping, decide a comparison or are folded
by ``reduceat``; anything else goes by the python values, through the
column's dictionary (:meth:`~repro.exec.columns.Column.key_codes`) or
row by row.  An integer ``sum`` is exact wherever it ends up: a column
of nothing but ints (:meth:`~repro.exec.columns.Column.int_only`) is
added in int64 when no group can leave 2^62 — exact lanes bound every
term by 2^53, so that is a bound on the group size — and as python ints
otherwise, so a sum may pass 2^53 and 2^63 and stay an exact ``int``.
A *float* sum is never vectorized: float addition is not associative,
``reduceat`` does not promise an order, and python's own ``sum`` —
which the interpreter calls — is compensated summation from 3.12 on and
plain left-to-right addition before, so the only float sum equal to the
interpreter's on every supported version is that same ``sum`` over the
same values in the same order.
Query results compare through :func:`~repro.algebra.values.group_key`
(integral floats normalise to int), so within the exact range the
backends stay row-set identical.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via the numpy-less fallback suite
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

#: environment switch forcing the pure-python path (tests, debugging).
FORCE_FALLBACK_ENV = "REPRO_EXEC_FORCE_FALLBACK"


def numpy_module():
    """The numpy module when the accelerated path is active, else None."""
    if _np is None:
        return None
    if os.environ.get(FORCE_FALLBACK_ENV, "").strip() not in ("", "0"):
        return None
    return _np
