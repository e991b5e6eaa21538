"""A cache hit hands out the copy the last hit of that spelling was handed.

``PlanCache.serve_entry`` keeps, per entry and requesting naming, the
pair *(stored result the copy was made from, rebound + ``as_cache_hit``
copy)* and serves the copy again while the entry still holds that very
result; ``PlanInfo.rendered`` keeps the JSON tree beside the plan and
``PlanInfo.rendered_json`` its text.  These
tests hold the memo to the unmemoised path it replaces: what a hit
returns, that nothing outlives the result it was made from, and that
none of it reaches a pickle.
"""

import dataclasses
import pickle
import random
import re

import pytest

from repro.optimizer import OptimizerConfig, optimize
from repro.plans.render import plan_to_dict
from repro.service import PlanCache
from repro.service.batch import Miss
from repro.service.cache import (
    FRESH,
    SERVED_SPELLINGS,
    SNAPSHOT_VERSION,
    STALE,
)
from repro.service.config import ServingConfig
from repro.service.core import ServingCore
from repro.service.fingerprint import plan_key
from repro.service.rebind import query_binding, rebind_result
from repro.sql import Catalog, parse_query
from repro.workload.generator import SQL_LINKS, generate_sql_workload

#: Ex / Q3 / Q5 / Q10 in the SQL front end's dialect (dates are day numbers).
TPCH_SQL = (
    "SELECT ns.n_name, nc.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey "
    "FULL JOIN nation nc ON ns.n_nationkey = nc.n_nationkey "
    "JOIN customer c ON nc.n_nationkey = c.c_nationkey "
    "GROUP BY ns.n_name, nc.n_name",
    "SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority, "
    "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 1169 "
    "AND l.l_shipdate > 1169 "
    "GROUP BY l.l_orderkey, o.o_orderdate, o.o_shippriority",
    "SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN region r ON n.n_regionkey = r.r_regionkey "
    "WHERE c.c_nationkey = s.s_nationkey AND r.r_name = 'ASIA' "
    "AND o.o_orderdate >= 731 AND o.o_orderdate < 1096 "
    "GROUP BY n.n_name",
    "SELECT c.c_custkey, c.c_name, c.c_acctbal, n.n_name, "
    "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "WHERE o.o_orderdate >= 639 AND o.o_orderdate < 731 "
    "AND l.l_returnflag = 'R' "
    "GROUP BY c.c_custkey, c.c_name, c.c_acctbal, n.n_name",
)
SQL = TPCH_SQL[0]

_TABLES = sorted({name for link in SQL_LINKS for name in (link[0], link[2])})
_ALIAS = re.compile(r"\b(?:%s) ([a-z][a-z0-9]*)\b" % "|".join(_TABLES))

CONFIG = OptimizerConfig()


def respell(sql: str, suffix: str = "x") -> str:
    """*sql* with every table alias renamed — another spelling of the
    same problem (keywords are upper case, so a lower-case word after a
    table name is its alias)."""
    for alias in set(_ALIAS.findall(sql)):
        sql = re.sub(rf"\b{alias}\b", alias + suffix, sql)
    return sql


@pytest.fixture(scope="module")
def catalog():
    return Catalog.from_tpch()


@pytest.fixture(scope="module")
def planned(catalog):
    """``SQL`` parsed, keyed and planned once: (query, key, exact, result)."""
    query = parse_query(SQL, catalog)
    key, exact = plan_key(query, CONFIG)
    return query, key, exact, optimize(query, config=CONFIG)


def variant(result, tag: int):
    """Another result for the same problem, told apart by ``plans_built``."""
    return dataclasses.replace(result, plan=dataclasses.replace(result.plan), plans_built=tag)


def stored(planned, capacity=8):
    query, key, exact, result = planned
    cache = PlanCache(capacity=capacity)
    cache.store(key, query, result, sql=SQL, exact_snapshot=exact)
    return cache


def hit(cache, planned, spelling=None, catalog=None):
    query, key, exact, _result = planned
    if spelling is not None:
        query = parse_query(spelling, catalog)
    return cache.serve_entry(key, query, exact)


# -- (a) differential ------------------------------------------------------------


def statements():
    generated = generate_sql_workload(16, random.Random(27))
    return list(dict.fromkeys(generated)) + list(TPCH_SQL)


@pytest.mark.parametrize("sql", statements())
def test_every_hit_equals_the_unmemoised_path(catalog, sql):
    source = parse_query(sql, catalog)
    key, exact = plan_key(source, CONFIG)
    result = optimize(source, config=CONFIG)
    cache = PlanCache(capacity=8)
    cache.store(key, source, result, sql=sql, exact_snapshot=exact)
    firsts = []
    for spelling in (sql, respell(sql)):
        query = parse_query(spelling, catalog)
        assert plan_key(query, CONFIG) == (key, exact)
        fresh = rebind_result(result, query_binding(source), query).as_cache_hit()
        hits = [cache.serve_entry(key, query, exact) for _ in range(3)]
        assert [state for _served, state in hits] == [FRESH] * 3
        first = hits[0][0]
        assert first == fresh and first.cache_hit and first.elapsed_seconds == 0.0
        assert first.plan.rendered() == plan_to_dict(fresh.plan.node)
        assert first.plan.rendered() is first.plan.rendered()
        assert plan_to_dict(first.plan.node) is not first.plan.rendered()  # the free one: fresh
        assert hits[1][0] is first and hits[2][0] is first
        firsts.append(first)
    if respell(sql) != sql:
        assert firsts[0] is not firsts[1]  # (c): a copy per naming
    assert cache.stats.hits == 6 and cache.stats.misses == 0


def test_the_core_serves_the_same_reply_from_the_memo(catalog):
    core = ServingCore(ServingConfig())
    for sql in (SQL, respell(SQL)):
        replies = [core.optimize({"sql": sql}) for _ in range(4)]
        query = parse_query(sql, catalog)
        for reply in replies[1:]:
            assert reply["cache_hit"] is True
            assert reply["plan"] == plan_to_dict(core.plan({"sql": sql})[0].plan.node)
            assert list(reply) == list(replies[-1])  # key order too
            assert query.relations[0].name in str(reply["plan"])
        # what a caller does to the reply it was handed is its own business
        replies[1]["shard"] = 7
        del replies[1]["cost"]
        again = core.optimize({"sql": sql})
        assert "shard" not in again and again["cost"] == replies[2]["cost"]
    batch = core.batch_items({"include_plans": True}, [(0, SQL), (1, respell(SQL))])
    assert [item["plan"] for item in batch] == [
        plan_to_dict(core.plan({"sql": sql})[0].plan.node) for sql in (SQL, respell(SQL))
    ]


# -- (b) lifecycle: a copy never outlives the result it was made from ------------------


class TestLifecycle:
    def test_put_over_the_key(self, planned):
        query, key, exact, result = planned
        cache = stored(planned)
        before = hit(cache, planned)[0]
        cache.store(key, query, variant(result, 7), sql=SQL, exact_snapshot=exact)
        after = hit(cache, planned)[0]
        assert (before.plans_built, after.plans_built) == (result.plans_built, 7)
        assert hit(cache, planned)[0] is after

    @pytest.mark.parametrize("migrate", [False, True])
    def test_refresh(self, planned, catalog, migrate):
        _query, key, exact, result = planned
        cache = stored(planned)
        for spelling in (SQL, respell(SQL)):
            assert hit(cache, planned, spelling, catalog)[0].plans_built == result.plans_built
        cache.mark_stale("nation")
        (claim,) = cache.claim_stale()
        new_key = dataclasses.replace(key, snapshot="moved") if migrate else None
        assert cache.refresh(claim.key, variant(result, 7), exact_snapshot=exact, new_key=new_key)
        landed = new_key if migrate else key
        assert cache._entries[landed].served == {}  # the replaced result's copies are dropped
        probe = (planned[0], landed, exact, None)
        for spelling in (SQL, respell(SQL)):
            served, state = hit(cache, probe, spelling, catalog)
            assert (served.plans_built, state) == (7, FRESH)
            assert hit(cache, probe, spelling, catalog)[0] is served
        if migrate:
            assert hit(cache, planned) is None

    def test_stale_hits_report_their_state_and_are_counted(self, planned):
        _query, key, _exact, _result = planned
        cache = stored(planned)
        first = hit(cache, planned)
        assert first[1] == FRESH
        cache.mark_stale("supplier")
        assert hit(cache, planned) == (first[0], STALE)
        cache.claim_stale()  # a claim changes no state
        served, state = hit(cache, planned)
        assert served is first[0] and state == STALE  # same result, so the same copy
        assert cache.stats.stale_hits == 2 and cache.stats.hits == 3
        assert cache._entries[key].hits == 3

    def test_a_drifted_exact_snapshot_still_marks_the_entry_on_a_memo_hit(self, planned):
        query, key, exact, _result = planned
        cache = stored(planned)
        first = hit(cache, planned)[0]
        served, state = cache.serve_entry(key, query, exact + "-drifted")
        assert served is first and state == STALE
        assert cache.stats.marked_stale == 1 and cache.stats.stale_hits == 1

    def test_drop_then_store_again(self, planned):
        query, key, exact, result = planned
        cache = stored(planned)
        before = hit(cache, planned)[0]
        assert cache.drop(key) is True and hit(cache, planned) is None
        cache.store(key, query, variant(result, 7), sql=SQL, exact_snapshot=exact)
        after = hit(cache, planned)[0]
        assert after is not before and after.plans_built == 7

    def test_eviction_then_store_again(self, planned):
        query, key, exact, result = planned
        cache = stored(planned, capacity=1)
        before = hit(cache, planned)[0]
        other = dataclasses.replace(key, fingerprint="other")
        cache.store(other, query, result, exact_snapshot=exact)
        assert cache.stats.evictions == 1 and hit(cache, planned) is None
        cache.store(key, query, variant(result, 7), sql=SQL, exact_snapshot=exact)
        after = hit(cache, planned)[0]
        assert after is not before and after.plans_built == 7

    def test_snapshot_round_trip(self, planned, tmp_path):
        _query, key, _exact, result = planned
        cache = stored(planned)
        before = hit(cache, planned)[0]
        path = tmp_path / "cache.snapshot"
        cache.save_snapshot(path, catalog_fingerprint="fp")
        loaded = PlanCache(capacity=8)
        assert loaded.load_snapshot(path, catalog_fingerprint="fp") == 1
        assert loaded._entries[key].served == {}
        after = hit(loaded, planned)[0]
        assert after == before and after is not before
        assert after.plan is loaded._entries[key].result.plan is not result.plan
        assert hit(loaded, planned)[0] is after

    def test_counters_and_lru_order_are_what_they_were_without_the_memo(self, planned):
        query, key, exact, result = planned
        cache = stored(planned, capacity=3)
        second = dataclasses.replace(key, fingerprint="second")
        third = dataclasses.replace(key, fingerprint="third")
        for other in (second, third):
            cache.store(other, query, result, exact_snapshot=exact)
        for probed in (key, second, key, key, third, second, key):
            assert cache.serve_entry(probed, query, exact) is not None
        assert cache.serve_entry(dataclasses.replace(key, fingerprint="absent"), query) is None
        assert (cache.stats.hits, cache.stats.misses) == (7, 1)
        assert [cache._entries[k].hits for k in (key, second, third)] == [4, 2, 1]
        assert cache.keys() == (third, second, key)  # least recently served first
        cache.store(dataclasses.replace(key, fingerprint="fourth"), query, result)
        assert third not in cache and key in cache


# -- (c) one copy per naming, a bounded number of namings -------------------------------


def test_a_ninth_spelling_is_served_right_but_not_kept(planned, catalog):
    query, key, _exact, result = planned
    cache = stored(planned)
    spellings = [SQL] + [respell(SQL, f"v{n}") for n in range(SERVED_SPELLINGS)]
    assert len(set(spellings)) == SERVED_SPELLINGS + 1
    for spelling in spellings:
        served = hit(cache, planned, spelling, catalog)[0]
        asked = parse_query(spelling, catalog)
        assert served == rebind_result(result, query_binding(query), asked).as_cache_hit()
        assert asked.relations[0].name in str(served.plan.rendered())
    kept = cache._entries[key].served
    assert len(kept) == SERVED_SPELLINGS
    ninth = [hit(cache, planned, spellings[-1], catalog)[0] for _ in range(2)]
    assert ninth[0] == ninth[1] and ninth[0] is not ninth[1]  # rebound per hit, as before
    assert len(kept) == SERVED_SPELLINGS
    eighth = [hit(cache, planned, spellings[-2], catalog)[0] for _ in range(2)]
    assert eighth[0] is eighth[1]


# -- (d) nothing of it is pickled ------------------------------------------------------


def test_a_snapshot_written_after_hits_is_the_one_written_before_them(planned, catalog, tmp_path):
    assert SNAPSHOT_VERSION == 2
    cache = stored(planned)
    before, after = tmp_path / "before", tmp_path / "after"
    cache.save_snapshot(before, catalog_fingerprint="fp")
    for spelling in (SQL, respell(SQL), SQL):
        served = hit(cache, planned, spelling, catalog)[0]
        served.plan.rendered()
    assert "_rendered" in planned[3].plan.__dict__  # the same-names copy shares the stored plan
    cache.save_snapshot(after, catalog_fingerprint="fp")
    assert before.read_bytes() == after.read_bytes()


def test_no_rendered_tree_crosses_a_process_boundary(planned):
    result = planned[3]
    result.plan.rendered()
    result.plan.rendered_json()
    assert {"_rendered", "_rendered_json"} <= set(result.plan.__dict__)
    clone = pickle.loads(pickle.dumps(result)).plan.__dict__
    assert "_rendered" not in clone and "_rendered_json" not in clone
    core = ServingCore(ServingConfig())
    miss = core.probe({"sql": SQL})
    assert type(miss) is Miss
    shipped = pickle.dumps(miss)
    assert b"_rendered" not in shipped and b"served" not in shipped
    assert result.plan.rendered_json() not in pickle.dumps(result)
    assert pickle.loads(shipped).key == miss.key
