"""numpy is required to execute on columns, not to plan.

A subprocess blocks ``import numpy`` (``sys.modules["numpy"] = None``)
before it imports the package.  Planning — ``optimize`` and a serving
core without a dataset — must work there, and so must the interpreter;
``executor="columnar"`` and a serving core booted with a dataset must
fail with the one line that names the ``exec`` extra.  This is the
stdlib-only guard: every other test runs with numpy installed.
"""

import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = r"""
import sys

sys.modules["numpy"] = None

from repro.exec import run_plan
from repro.optimizer import optimize
from repro.query.canonical import canonical_plan
from repro.service.config import ServingConfig
from repro.service.core import ServingCore
from repro.tpch.queries import TPCH_QUERIES, micro_database

query = TPCH_QUERIES["Q3"](1.0)
plan = optimize(query).plan.node
database = micro_database(query)
rows = run_plan(plan, database, executor="interpreter")
assert rows == run_plan(canonical_plan(query), database, executor="interpreter")
reply = ServingCore(ServingConfig()).optimize(
    {"sql": "SELECT ns.n_name, count(*) AS cnt FROM nation ns JOIN supplier s "
            "ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"}
)
assert reply["cost"] > 0
for attempt in (
    lambda: run_plan(plan, database, executor="columnar"),
    lambda: ServingCore(ServingConfig(dataset="tpch-sf0.001")),
):
    try:
        attempt()
    except ImportError as error:
        print(error)
    else:
        raise AssertionError("executed on columns without numpy")
"""


def test_planning_and_the_interpreter_need_no_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == [
        "columnar execution needs numpy: pip install 'repro[exec]'"
    ] * 2
