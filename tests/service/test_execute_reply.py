"""``/execute`` replies from the run's columns: the rows are the row path's.

:meth:`ServingCore.run` builds its row arrays from the value lists of
:func:`repro.exec.run_columns` — no ``Row``, no ``Relation``.  The
answer owed is what reading :func:`repro.exec.run_plan`'s relation row
by row gives (NULL spelled ``None``): the same columns and the same
rows in the same order, value for value and type for type, under every
limit.  The statements are the paper's four TPC-H queries and the
``exec`` family of the SQL generator (one to three tables; outer joins,
EXISTS / IN) at SF 0.01, plus the edges a generated statement may miss.
"""

import random
import time

import pytest

from repro.algebra.values import NULL
from repro.exec import run_plan
from repro.service.config import ServingConfig
from repro.service.core import DEFAULT_EXECUTE_LIMIT, RequestError, ServingCore
from repro.workload.generator import SqlWorkloadConfig, generate_sql_query
from test_served_copies import TPCH_SQL  # Ex / Q3 / Q5 / Q10

#: the SQL generator's settings of the ``exec`` statement family
EXEC_FAMILY = SqlWorkloadConfig(min_tables=1, max_tables=3)

#: nations 5..24 find no region of their own key: the join pads r_name
PADDED_SQL = (
    "SELECT n.n_name, r.r_name, count(*) AS c FROM nation n "
    "LEFT JOIN region r ON n.n_nationkey = r.r_regionkey GROUP BY n.n_name, r.r_name"
)
NO_ROW_SQL = (
    "SELECT n.n_name, count(*) AS c FROM nation n WHERE n.n_nationkey < 0 GROUP BY n.n_name"
)

LIMITS = (10, DEFAULT_EXECUTE_LIMIT, None)


@pytest.fixture(scope="module")
def core():
    return ServingCore(ServingConfig(dataset="tpch-sf0.01", cache_capacity=64))


def typed(rows):
    """Each value with its type; floats by their bits (``-0.0``, NaN)."""
    return [
        [(type(v).__name__, v.hex() if type(v) is float else v) for v in row] for row in rows
    ]


def row_path(core, planned, executor, limit):
    """``(columns, rows)`` read the way the reply used to be built: off
    ``run_plan``'s relation, one ``Row`` at a time."""
    result, _config, query = planned
    relation = run_plan(
        result.plan.node, core.dataset.database_for(query), executor=executor, limit=limit
    )
    columns = list(relation.attributes)
    rows = [[None if row[c] is NULL else row[c] for c in columns] for row in relation]
    return columns, rows


def check(core, sql, limits=LIMITS, executor="columnar"):
    """Every reply of *sql* under *limits* against the row path; the replies."""
    planned = core.plan({"sql": sql})
    replies = []
    for limit in limits:
        reply = core.run(planned, executor, limit, time.perf_counter())
        assert not isinstance(reply, RequestError), reply.message
        columns, rows = row_path(core, planned, executor, limit)
        assert reply["columns"] == columns
        assert typed(reply["rows"]) == typed(rows)
        assert reply["row_count"] == len(rows)
        replies.append(reply)
    return replies


def generated(seeds):
    return [generate_sql_query(random.Random(seed), EXEC_FAMILY) for seed in seeds]


def test_the_tpch_queries(core):
    for sql in TPCH_SQL:
        check(core, sql)


def test_the_exec_family(core):
    for sql in generated(range(200)):
        check(core, sql)


@pytest.mark.slow
def test_the_exec_family_exhaustive(core):
    for sql in generated(range(1000)):
        check(core, sql)


@pytest.mark.parametrize("executor", ["columnar", "interpreter"])
def test_an_outer_join_pads_none(core, executor):
    (reply,) = check(core, PADDED_SQL, (None,), executor)
    names = [row[1] for row in reply["rows"]]
    assert None in names and "ASIA" in names


@pytest.mark.parametrize("executor", ["columnar", "interpreter"])
def test_limit_zero_and_no_row_keep_their_columns(core, executor):
    (capped,) = check(core, PADDED_SQL, (0,), executor)
    (empty,) = check(core, NO_ROW_SQL, (None,), executor)
    assert capped["rows"] == empty["rows"] == [] and capped["row_count"] == 0
    assert capped["columns"] == ["n.n_name", "r.r_name", "c"]
    assert empty["columns"] == ["n.n_name", "c"]
