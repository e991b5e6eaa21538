"""``--regen-golden``: rebuild ``pool.json`` from the reference engine.

The pool is both the candidate set the seeded draws pick from and the
answer key: every cost / ccp count in it comes from ``engine="reference"``
(the executable spec), never from the engine the benchmark times.  The
``work`` numbers (plans the reference engine built) and, for the
``exec`` family, the execution times recorded here are used only to
sort candidates into strata — they are not compared with anything.
"""

from __future__ import annotations

import json
import platform
import random
import signal
import time
from contextlib import contextmanager

from repro.data import dataset_from_spec
from repro.exec import run_plan
from repro.optimizer import OptimizerConfig, optimize
from repro.query.canonical import canonical_plan
from repro.sql import Catalog, parse_query
from repro.tpch.queries import TPCH_QUERIES
from repro.workload import generate_query, topology_query

import workloads
from calibrate import cpu_speed

RANDOM_CANDIDATES = {"eager": 400, "single": 200}
SQL_CANDIDATES = {"plan": 1400, "exec": 700}
MAX_RELATIONS = 6  # a 7-relation statement plans for up to a second
EXEC_BUDGET_SECONDS = 1.0  # per run, optimized and canonical
EXEC_MS_RANGE = (0.5, 60.0)
SERVER_STRATEGY = "ea-prune"  # the serving tiers' default


def _reference(query, strategy: str) -> list:
    result = optimize(
        query,
        config=OptimizerConfig(strategy=strategy, cache_capacity=None),
        engine="reference",
    )
    return [result.cost, result.ccp_count, result.plans_built]


class _Timeout(Exception):
    pass


@contextmanager
def _time_limit(seconds: float):
    def fire(_signum, _frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _plan_group(group: str) -> dict:
    spec = workloads.PLAN_GROUPS[group]
    fixed = {}
    for topology, n in spec["topologies"]:
        fixed[f"{topology}-{n}"] = {
            s: _reference(topology_query(topology, n), s) for s in spec["strategies"]
        }
    for name in spec["tpch"]:
        fixed[f"tpch-{name}"] = {
            s: _reference(TPCH_QUERIES[name](), s) for s in spec["strategies"]
        }
    entries = []
    for candidate in range(RANDOM_CANDIDATES[group]):
        entry = {"seed": candidate}
        for strategy in spec["strategies"]:
            query = generate_query(spec["random_n"], random.Random(candidate))
            entry[strategy] = _reference(query, strategy)
        entries.append(entry)
    return {"fixed": fixed, "random": entries}


def _sql_family(family: str, catalog: Catalog, dataset) -> list:
    entries = []
    for candidate in range(SQL_CANDIDATES[family]):
        sql = workloads.family_sql(family, candidate)
        query = parse_query(sql, catalog)
        if len(query.relations) > MAX_RELATIONS:
            continue
        cost, _ccps, work = _reference(query, SERVER_STRATEGY)
        entry = {
            "seed": candidate,
            "digest": workloads.sql_digest(sql),
            "relations": len(query.relations),
            "cost": cost,
            "work": work,
        }
        if family == "exec":
            plan = optimize(
                query, config=OptimizerConfig(strategy=SERVER_STRATEGY, cache_capacity=None)
            ).plan.node
            database = dataset.database_for(query)
            try:
                # fastest of three, scaled to nominal speed: the strata are
                # only as good as these times (see calibrate.py)
                exec_ms = float("inf")
                for _ in range(3):
                    with _time_limit(EXEC_BUDGET_SECONDS):
                        started = time.perf_counter()
                        run_plan(plan, database, executor="columnar")
                        elapsed = time.perf_counter() - started
                    exec_ms = min(exec_ms, elapsed * cpu_speed() * 1e3)
                with _time_limit(EXEC_BUDGET_SECONDS):
                    rows = len(run_plan(canonical_plan(query), database, executor="columnar"))
            except _Timeout:
                continue
            # an empty result checks nothing; a runaway one is all of a round
            if rows == 0 or not EXEC_MS_RANGE[0] <= exec_ms <= EXEC_MS_RANGE[1]:
                continue
            entry.update(rows=rows, exec_ms=round(exec_ms, 2))
        entries.append(entry)
    return entries


def regenerate() -> None:
    catalog = Catalog.from_tpch()
    dataset = dataset_from_spec("tpch-sf0.01")
    tpch = {}
    for name, sql in workloads.TPCH_SQL.items():
        query = parse_query(sql, catalog)
        tpch[name] = [_reference(query, SERVER_STRATEGY)[0], len(query.relations)]
    pool = {
        "schema": "e2e-pool/v1",
        "written_from": "engine=reference; python " + platform.python_version(),
        "plan": {group: _plan_group(group) for group in workloads.PLAN_GROUPS},
        "sql": {
            "tpch": tpch,
            "plan": _sql_family("plan", catalog, dataset),
            "exec": _sql_family("exec", catalog, dataset),
        },
    }
    workloads.POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    print(
        f"wrote {workloads.POOL_PATH}: "
        + ", ".join(f"{k} {len(v)}" for k, v in pool["sql"].items())
        + "; "
        + ", ".join(f"{g} {len(v['random'])}" for g, v in pool["plan"].items())
    )
