"""The serving core without sockets or processes: dict in → dict or
:class:`RequestError` out.

Every shard of the serving tier answers through a
:class:`repro.service.core.ServingCore`, so what a request *means* — hit,
miss, stale-served, degraded, 504, every 4xx — is pinned here once,
in-process.  The HTTP-level contract (status codes on the wire, the
``/stats`` shape on one shard and on two) lives in
``tests/serving/test_contract.py``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asyncserver.app import check_route
from repro.service import batch as batch_module
from repro.service import core as core_module
from repro.service.batch import WorkerOutcome, plan_miss, plan_wave
from repro.service.config import ServingConfig
from repro.service.core import (
    DEFAULT_EXECUTE_LIMIT,
    Miss,
    RequestError,
    ServingCore,
    batch_queries,
    merge_stats,
    parse_body,
)
from repro.service.fingerprint import plan_key

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)
SQL_SMALL = "SELECT count(*) AS cnt FROM region GROUP BY r_name"
JOIN_SQL = (
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey GROUP BY r.r_name"
)
ORDERS_SQL = (
    "SELECT c.c_name, count(*) AS cnt FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c.c_name"
)
BAD_TABLE = "SELECT count(*) FROM nowhere GROUP BY x"
# Six relations: enough ccps that the DP loop runs past its first
# deadline check under a zero-ish budget.
BIG_SQL = (
    "SELECT count(*) AS cnt "
    "FROM lineitem, orders, customer, supplier, nation, region "
    "WHERE lineitem.l_orderkey = orders.o_orderkey "
    "AND orders.o_custkey = customer.c_custkey "
    "AND lineitem.l_suppkey = supplier.s_suppkey "
    "AND supplier.s_nationkey = nation.n_nationkey "
    "AND nation.n_regionkey = region.r_regionkey"
)
DEEP_SQL = (
    "SELECT count(*) AS c FROM nation n WHERE "
    + "(" * 2000 + "n.n_nationkey = 1" + ")" * 2000
    + " GROUP BY n.n_name"
)
SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_core(**settings_) -> ServingCore:
    settings_.setdefault("cache_capacity", 16)
    return ServingCore(ServingConfig(**settings_))


@pytest.fixture()
def core():
    return make_core()


@pytest.fixture(scope="module")
def data_core():
    """One core with the deterministic SF 0.001 dataset (never drifted)."""
    return make_core(dataset="tpch-sf0.001", cache_capacity=64)


def error_of(call, *args, **kwargs) -> RequestError:
    with pytest.raises(RequestError) as excinfo:
        call(*args, **kwargs)
    return excinfo.value


class TestOptimizeAndExplain:
    def test_miss_then_hit(self, core):
        cold = core.optimize({"sql": SQL})
        assert cold["cache_hit"] is False and cold["degraded"] is False
        assert cold["strategy"] == "ea-prune" and cold["cost_model"] == "cout"
        assert cold["cost"] > 0 and cold["ccp_count"] >= 1
        assert cold["plan"]["op"] in ("groupby", "project", "map")
        warm = core.optimize({"sql": SQL})
        assert warm["cache_hit"] is True and warm["elapsed_seconds"] == 0.0
        assert warm["cost"] == cold["cost"]
        plans = core.stats()["plans"]
        assert (plans["served"], plans["cache_hits"], plans["cache_misses"]) == (2, 1, 1)
        assert plans["hit_rate"] == 0.5
        assert plans["by_strategy"] == {"ea-prune": 2}

    def test_renamed_isomorphic_query_hits_and_speaks_the_new_names(self, core):
        core.optimize({"sql": SQL})
        body = core.optimize({"sql": SQL_RENAMED})
        assert body["cache_hit"] is True
        assert "n2" in json.dumps(body["plan"])

    def test_include_plan_false_omits_tree(self, core):
        assert "plan" not in core.optimize({"sql": SQL, "include_plan": False})

    def test_overrides_key_their_own_entries(self, core):
        core.optimize({"sql": SQL})
        other = core.optimize({"sql": SQL, "strategy": "dphyp"})
        assert other["strategy"] == "dphyp" and other["cache_hit"] is False

    def test_null_override_means_absent(self, core):
        core.optimize({"sql": SQL})
        body = core.optimize(
            {"sql": SQL, "strategy": None, "factor": None, "cost_model": None}
        )
        assert body["cache_hit"] is True and body["strategy"] == "ea-prune"

    def test_explain_renders_text(self, core):
        body = core.explain({"sql": SQL})
        assert "⋈" in body["explain"] and body["cost"] > 0
        assert set(body) == {"strategy", "cost", "cache_hit", "degraded", "explain"}

    @pytest.mark.parametrize(
        "body, code",
        [
            ({}, "bad_request"),
            ({"sql": ""}, "bad_request"),
            ({"sql": "   "}, "bad_request"),
            ({"sql": 7}, "bad_request"),
            ({"sql": ["SELECT"]}, "bad_request"),
            ({"sql": BAD_TABLE}, "parse_error"),
            ({"sql": "SELECT count(*) FROM nation n ORDER BY n.n_name"}, "parse_error"),
            ({"sql": DEEP_SQL}, "parse_error"),  # RecursionError, were it not caught
            ({"sql": SQL, "strategy": "nonsense"}, "bad_config"),
            ({"sql": SQL, "strategy": 5}, "bad_config"),
            ({"sql": SQL, "strategy": ["dphyp"]}, "bad_config"),
            ({"sql": SQL, "factor": 0.5}, "bad_config"),
            ({"sql": SQL, "factor": "big"}, "bad_config"),
            ({"sql": SQL, "cost_model": "nonsense"}, "bad_config"),
            ({"sql": SQL, "cost_model": {"name": "cout"}}, "bad_config"),
        ],
    )
    def test_bad_bodies_are_400(self, core, body, code):
        for call in (core.optimize, core.explain):
            error = error_of(call, body)
            assert (error.status, error.code) == (400, code)
            assert error.to_body() == {"error": {"code": code, "message": error.message}}
        assert core.stats()["plans"]["failures"] == 0  # client errors are not failures


class TestProbeCompleteShare:
    """:meth:`ServingCore.plan` is probe → :func:`plan_miss` → complete;
    :func:`plan_wave` (the batch driver's) shares one run per key."""

    def test_probe_hands_out_a_ticket_then_a_hit(self, core):
        stamped = core.probe({"sql": SQL}, arrived=100.0)
        assert type(stamped) is Miss
        assert stamped.sql == SQL and stamped.config is core.base_config
        assert stamped.deadline_at == 100.0 + core.request_timeout
        # (planning *that* ticket would rightly find its budget long spent)
        miss = core.probe({"sql": SQL})
        result, config, query = core.complete(miss, plan_miss(miss))
        assert result.cache_hit is False and query is miss.query
        hit = core.probe({"sql": SQL})
        assert type(hit) is tuple
        assert hit[0].cache_hit is True and hit[0].cost == result.cost and hit[2] is query

    def test_the_text_memo_composes_the_key_plan_key_states(self):
        core = make_core(snapshot_band_width=1.0)
        for body in ({"sql": SQL}, {"sql": SQL, "strategy": "h2", "factor": 1.5}):
            miss = core.probe(body)
            assert (miss.key, miss.exact) == plan_key(miss.query, miss.config)
            assert miss.exact != miss.key.snapshot  # banded key, exact beside it

    def test_a_follower_shares_its_leaders_run_under_its_own_names(self, core):
        leader, follower = core.probe({"sql": SQL}), core.probe({"sql": SQL_RENAMED})
        assert leader.key == follower.key  # same problem, other names
        runs = []

        def run(leaders):
            runs.extend(leaders)
            return map(plan_miss, leaders)

        led, shared = plan_wave([leader, follower], run)
        assert runs == [leader] and not led.shared and shared.shared
        planned = core.complete(leader, led)
        assert shared.result.cache_hit is True and shared.result.cost == planned[0].cost
        assert "n2" in json.dumps(shared.result.plan.rendered())
        assert "n2" not in json.dumps(planned[0].plan.rendered())
        plans, cache = core.stats()["plans"], core.stats()["cache"]
        assert (plans["served"], plans["cache_misses"]) == (1, 1) and cache["puts"] == 1.0

    @pytest.mark.parametrize(
        "deadline, status, code, counter",
        [(True, 504, "timeout", "timeouts"), (False, 500, "optimizer_error", "failures")],
    )
    def test_a_failed_leader_is_counted_once_and_fails_its_followers_alike(
        self, core, deadline, status, code, counter
    ):
        misses = [core.probe({"sql": sql}) for sql in (SQL, SQL_RENAMED, SQL)]
        failed = WorkerOutcome(None, "KeyError: 'x'", 0.01, deadline=deadline)
        outcomes = list(plan_wave(misses, lambda leaders: [failed]))
        assert [outcome.shared for outcome in outcomes] == [False, True, True]
        assert {(o.result, o.error, o.deadline) for o in outcomes} == {
            (None, "KeyError: 'x'", deadline)
        }
        error = error_of(core.complete, misses[0], outcomes[0])
        assert (error.status, error.code, error.message) == (status, code, "KeyError: 'x'")
        plans = core.stats()["plans"]
        assert plans[counter] == 1 and plans["timeouts"] + plans["failures"] == 1
        assert plans["served"] == 0 and core.stats()["cache"]["size"] == 0.0

    def test_optimizer_crash_is_a_counted_500(self, core, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyError("poisoned")

        monkeypatch.setattr(batch_module.driver, "optimize", boom)
        error = error_of(core.optimize, {"sql": SQL})
        assert (error.status, error.code) == (500, "optimizer_error")
        assert "KeyError" in error.message
        assert core.stats()["plans"]["failures"] == 1

    def test_an_evicted_plan_leaves_its_cost_in_the_next_ticket(self):
        core = make_core(cache_capacity=1)
        first = core.probe({"sql": BIG_SQL})
        assert first.known_cost is None
        cold = core.complete(first, plan_miss(first))[0]
        assert cold.stats["ceiling.source"] == "prepass"
        core.optimize({"sql": SQL})  # evicts it
        again = core.probe({"sql": BIG_SQL.replace("FROM lineitem,", "FROM  lineitem,")})
        assert again.known_cost == cold.cost and again.query is not first.query
        replanned = core.complete(again, plan_miss(again))[0]
        assert replanned.cache_hit is False and replanned.stats["ceiling.source"] == "remembered"
        assert "ceiling.seconds" not in replanned.stats
        assert (replanned.cost, replanned.ccp_count) == (cold.cost, cold.ccp_count)
        assert replanned.plans_built < cold.plans_built  # a tighter ceiling than H1's
        plans = core.stats()["plans"]
        assert (plans["bounded_remembered"], plans["cache_misses"]) == (1, 3)
        # A known cost that bounds nothing is planned again, not a 500 — and not counted.
        stale = core.probe({"sql": SQL})
        stale.known_cost = 1e-9
        rerun = core.complete(stale, plan_miss(stale))[0]
        assert rerun.stats["ceiling.rerun"] == 1 and rerun.cost > 1.0
        plans = core.stats()["plans"]
        assert plans["bounded_remembered"] == 1 and plans["failures"] == 0



class TestDeadlines:
    def test_blown_budget_degrades_and_is_never_stored(self):
        core = make_core(request_timeout_seconds=1e-6)
        first = core.optimize({"sql": BIG_SQL})
        assert first["degraded"] is True and first["strategy"] == "h1" and first["cost"] > 0
        again = core.optimize({"sql": BIG_SQL})
        assert again["degraded"] is True and again["cache_hit"] is False
        stats = core.stats()
        assert stats["plans"]["degraded"] == 2 and stats["cache"]["size"] == 0.0

    def test_queue_time_is_charged_against_the_budget(self, core):
        import time

        body = core.optimize({"sql": BIG_SQL}, arrived=time.monotonic() - 10_000.0)
        assert body["degraded"] is True

    def test_error_mode_is_a_counted_504(self):
        core = make_core(request_timeout_seconds=1e-6, degradation="error")
        error = error_of(core.optimize, {"sql": BIG_SQL})
        assert (error.status, error.code) == (504, "timeout")
        plans = core.stats()["plans"]
        assert plans["timeouts"] == 1 and plans["failures"] == 0

    def test_batch_items_share_one_budget_and_flag_timeouts(self):
        core = make_core(request_timeout_seconds=1e-6, degradation="error")
        items = core.batch_items({}, [(0, BIG_SQL), (1, BAD_TABLE)])
        assert items[0]["stage"] == "optimize" and items[0]["timeout"] is True
        assert items[1]["stage"] == "parse" and "timeout" not in items[1]


class TestBatchItems:
    def test_poisoned_item_is_isolated_and_order_kept(self, core):
        items = core.batch_items(
            {"include_plans": True}, [(4, SQL), (7, BAD_TABLE), (9, SQL_RENAMED), (11, None)]
        )
        assert [item["index"] for item in items] == [4, 7, 9, 11]
        assert items[0]["cache_hit"] is False and items[2]["cache_hit"] is True
        assert items[0]["cost"] == pytest.approx(items[2]["cost"])
        assert items[0]["plan"]["op"] in ("groupby", "project", "map")
        assert items[1]["stage"] == "parse" and "nowhere" in items[1]["error"]
        assert items[3]["stage"] == "parse"

    def test_bad_override_fails_the_whole_batch(self, core):
        error = error_of(core.batch_items, {"strategy": "nonsense"}, [(0, SQL), (1, SQL_SMALL)])
        assert (error.status, error.code) == (400, "bad_config")
        assert core.stats()["plans"]["served"] == 0

    def test_unparseable_items_count_as_failures(self, core):
        # ... inside a /batch only: a lone request's 400 is the client's.
        core.batch_items({}, [(0, SQL), (1, BAD_TABLE), (2, None)])
        assert core.stats()["plans"]["failures"] == 2
        error_of(core.optimize, {"sql": BAD_TABLE})
        assert core.stats()["plans"]["failures"] == 2

    @pytest.mark.parametrize("queries", [[], "not-a-list", None, {"0": SQL}])
    def test_queries_must_be_a_non_empty_list(self, queries):
        error = error_of(batch_queries, {"queries": queries})
        assert (error.status, error.code) == (400, "bad_request")


class TestExecute:
    def test_round_trip_default_executor_and_cap(self, data_core):
        body = data_core.execute({"sql": SQL})
        assert body["executor"] == "columnar" and body["limit"] == DEFAULT_EXECUTE_LIMIT
        assert body["columns"] == ["ns.n_name", "cnt"]
        assert body["row_count"] == len(body["rows"]) > 0
        assert body["execution_seconds"] >= 0.0 and body["cost"] > 0

    def test_backends_agree(self, data_core):
        columnar = data_core.execute({"sql": SQL, "limit": None})
        interpreter = data_core.execute({"sql": SQL, "executor": "interpreter", "limit": None})
        assert interpreter["executor"] == "interpreter" and columnar["limit"] is None
        assert sorted(map(tuple, columnar["rows"])) == sorted(map(tuple, interpreter["rows"]))

    def test_a_one_sided_join_predicate_survives_eager_aggregation(self):
        # Found by TestFrontendFuzz: Γ was pushed below the join without
        # the join's own attribute (KeyError → 500 on either executor).
        core = make_core(dataset="tpch-sf0.001")
        sql = SQL.replace("ns.n_nationkey = s.s_nationkey", "21 = s.s_nationkey")
        bodies = [
            core.execute({"sql": sql, "strategy": strategy, "limit": None})
            for strategy in ("dphyp", "ea-prune", "ea-all", "h1", "h2")
        ]
        rows = [sorted(map(tuple, body["rows"])) for body in bodies]
        assert rows[0] and all(other == rows[0] for other in rows[1:])

    def test_an_int_stays_an_int_through_joins_a_filter_and_a_limit(self, data_core):
        # Keys are compared on float64 lanes, but a column's values are
        # gathered from the base table's python values: no 3.0 for a 3.
        # (cnt is arithmetic over partial counts, which does run on lanes.)
        sql = (
            "SELECT o.o_custkey, c.c_nationkey, count(*) AS cnt FROM orders o "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "WHERE o.o_orderkey > 10 GROUP BY o.o_custkey, c.c_nationkey"
        )
        for limit in (5, None):
            body = data_core.execute({"sql": sql, "limit": limit})
            assert body["row_count"] > 0
            keys = [row[:2] for row in body["rows"]]
            assert all(type(value) is int for row in keys for value in row)
            assert ".0" not in json.dumps(keys)

    def test_limits(self, data_core):
        assert data_core.execute({"sql": SQL, "limit": 2})["row_count"] == 2
        empty = data_core.execute({"sql": SQL, "limit": 0})
        assert empty["rows"] == [] and empty["columns"] == ["ns.n_name", "cnt"]

    def test_a_text_is_parsed_at_most_once(self, monkeypatch):
        core = make_core(dataset="tpch-sf0.001")
        calls = []
        real = core_module.parse_query

        def counting(sql, catalog):
            calls.append(sql)
            return real(sql, catalog)

        monkeypatch.setattr(core_module, "parse_query", counting)
        assert core.execute({"sql": SQL})["cache_hit"] is False
        assert core.execute({"sql": SQL})["cache_hit"] is True
        core.optimize({"sql": SQL})
        assert calls == [SQL]

    def test_executions_are_metered(self, data_core):
        before = data_core.stats()["executions"]["count"]
        data_core.execute({"sql": SQL, "limit": 3})
        executions = data_core.stats()["executions"]
        assert executions["count"] == before + 1
        assert executions["by_executor"]["columnar"] >= 1
        assert executions["rows_returned"] >= 3 and executions["seconds_total"] > 0
        for name in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert executions[name] is not None

    @pytest.mark.parametrize("seam", ["run", "reply"])
    def test_a_failed_run_is_a_500_and_counted(self, data_core, monkeypatch, seam):
        # Running the plan and building the reply's rows from its columns
        # are one per-request isolation: either failing is a counted 500.
        import repro.exec

        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom")

        if seam == "run":
            monkeypatch.setattr(repro.exec, "run_columns", broken)
        else:
            monkeypatch.setattr(core_module, "reply_rows", broken)
        before = data_core.stats()
        error = error_of(data_core.execute, {"sql": SQL})
        assert (error.status, error.code) == (500, "execution_error")
        assert "boom" in error.message
        after = data_core.stats()
        assert after["plans"]["failures"] == before["plans"]["failures"] + 1
        assert after["executions"]["count"] == before["executions"]["count"]

    def test_a_table_the_dataset_lacks_is_a_404_in_its_own_words(self, data_core):
        from repro.data.tables import Dataset

        core = make_core()
        core.dataset = Dataset(
            {name: table for name, table in data_core.dataset.tables.items() if name != "region"},
            name="partial",
        )
        sql = "SELECT r.r_name, count(*) AS c FROM region r GROUP BY r.r_name"
        error = error_of(core.execute, {"sql": sql})
        assert (error.status, error.code) == (404, "unknown_table")
        assert error.message == "dataset 'partial' has no table for relation 'r' (source 'region')"

    def test_a_column_the_table_lacks_is_a_404_in_its_own_words(self, data_core):
        from repro.data.tables import ColumnTable, Dataset

        region = data_core.dataset.table("region")
        tables = dict(data_core.dataset.tables)
        tables["region"] = ColumnTable("region", {"r_regionkey": region.column("r_regionkey")})
        core = make_core()
        core.dataset = Dataset(tables, name="partial")
        sql = "SELECT r.r_name, count(*) AS c FROM region r GROUP BY r.r_name"
        error = error_of(core.execute, {"sql": sql})
        assert (error.status, error.code) == (404, "unknown_table")
        assert error.message == (
            "table 'region' has no column for attribute 'r.r_name' (columns: r_regionkey)"
        )

    def test_an_interpreter_default_executor_is_honoured(self):
        core = make_core(dataset="tpch-sf0.001", default_executor="interpreter")
        assert core.execute({"sql": SQL})["executor"] == "interpreter"

    @pytest.mark.parametrize(
        "extra, code",
        [
            ({"executor": "gpu"}, "bad_executor"),
            ({"executor": None}, "bad_executor"),
            ({"executor": ["columnar"]}, "bad_executor"),
            ({"limit": -1}, "bad_request"),
            ({"limit": 1.5}, "bad_request"),
            ({"limit": True}, "bad_request"),
            ({"limit": "3"}, "bad_request"),
        ],
    )
    def test_bad_knobs_are_400_before_any_planning(self, data_core, extra, code):
        served = data_core.stats()["plans"]["served"]
        error = error_of(data_core.execute, dict({"sql": SQL}, **extra))
        assert (error.status, error.code) == (400, code)
        assert data_core.stats()["plans"]["served"] == served

    def test_parse_error_is_400(self, data_core):
        assert error_of(data_core.execute, {"sql": BAD_TABLE}).code == "parse_error"

    def test_409_without_a_dataset(self, core):
        error = error_of(core.execute, {"sql": SQL})
        assert (error.status, error.code) == (409, "no_dataset")


class TestStatsUpdateAndRevalidation:
    def make(self) -> ServingCore:
        return make_core(snapshot_band_width=1.0)

    def test_drift_serves_stale_then_revalidates(self):
        core = self.make()
        before = core.optimize({"sql": SQL})
        # 1.25x keeps every statistic inside its band: same key, stale entry.
        reply = core.stats_update({"table": "supplier", "cardinality_factor": 1.25}, inline=0)
        assert reply["relation"] == "supplier" and reply["cardinality_ratio"] == 1.25
        assert reply["old_cardinality"] * 1.25 == reply["new_cardinality"]
        assert reply["marked_stale"] == 1 and reply["stale_entries"] == 1
        assert sum(reply["revalidated_inline"].values()) == 0
        assert core.stale_backlog() is True

        stale = core.optimize({"sql": SQL})  # answered now, from the stale entry
        assert stale["cache_hit"] is True and stale["cost"] == before["cost"]
        assert core.stats()["plans"]["stale_served"] == 1

        assert core.revalidate(8) is True
        assert core.stale_backlog() is False and core.revalidate(8) is False
        plans = core.stats()["plans"]
        assert plans["recosted"] + plans["replanned"] == 1
        after = core.optimize({"sql": SQL})
        assert after["cache_hit"] is True and after["cost"] > before["cost"]

    def test_inline_budget_revalidates_before_replying(self):
        core = self.make()
        core.optimize({"sql": SQL})
        reply = core.stats_update({"table": "supplier", "cardinality_factor": 4.0}, inline=8)
        inline = reply["revalidated_inline"]
        assert inline["recosted"] + inline["replanned"] == 1
        assert reply["stale_entries"] == 0

    def test_a_drift_drops_only_the_memo_entries_that_read_the_table(self):
        core = self.make()
        before_join = core.optimize({"sql": JOIN_SQL})  # nation x region
        before_orders = core.optimize({"sql": ORDERS_SQL})
        assert core.stats()["parse_memo"] == {"size": 2, "hits": 0, "misses": 2}
        core.stats_update({"table": "ORDERS", "cardinality_factor": 4.0}, inline=0)
        assert core.catalog.lookup("orders").cardinality == 4 * 1_500_000.0
        assert core.stats()["parse_memo"]["size"] == 1

        after_join = core.optimize({"sql": JOIN_SQL})
        assert core.stats()["parse_memo"] == {"size": 1, "hits": 1, "misses": 2}
        assert after_join["cache_hit"] is True
        assert (after_join["cost"], after_join["plan"]) == (
            before_join["cost"], before_join["plan"]
        )
        # ... and the text over orders is parsed again, under the new numbers
        # (x4 crosses a band: a new key, a fresh plan).
        after_orders = core.optimize({"sql": ORDERS_SQL})
        assert core.stats()["parse_memo"] == {"size": 2, "hits": 1, "misses": 3}
        assert after_orders["cache_hit"] is False
        assert after_orders["cost"] > before_orders["cost"]

    def test_untouched_tables_keep_their_plans_fresh(self):
        core = self.make()
        before = core.optimize({"sql": SQL_SMALL})
        reply = core.stats_update({"table": "orders", "cardinality_factor": 2.0}, inline=0)
        assert reply["marked_stale"] == 0
        after = core.optimize({"sql": SQL_SMALL})
        assert after["cache_hit"] is True and after["cost"] == before["cost"]
        assert core.stats()["plans"]["stale_served"] == 0

    @pytest.mark.parametrize(
        "body, status",
        [
            ({"table": "nowhere", "cardinality_factor": 2.0}, 404),
            ({"table": "supplier"}, 400),  # neither knob
            ({"table": "supplier", "cardinality_factor": 2.0, "cardinality": 5.0}, 400),
            ({"table": "supplier", "cardinality_factor": 0.0}, 400),
            ({"table": "supplier", "cardinality_factor": -3.0}, 400),
            ({"table": "supplier", "cardinality": -1.0}, 400),
            ({"table": "supplier", "cardinality": float("nan")}, 400),
            ({"table": "supplier", "cardinality_factor": float("inf")}, 400),
            ({"table": "supplier", "cardinality_factor": "lots"}, 400),
            ({"table": "supplier", "cardinality": [5]}, 400),
            ({"table": 7, "cardinality_factor": 2.0}, 400),
            ({"table": None, "cardinality_factor": 2.0}, 400),
            ({"table": "  ", "cardinality_factor": 2.0}, 400),
        ],
    )
    def test_invalid_bodies_change_nothing(self, body, status):
        core = self.make()
        assert error_of(core.stats_update, body, inline=0).status == status
        assert core.catalog.lookup("supplier").cardinality == 10000.0


class TestTransportHelpers:
    def test_routes(self):
        for path in ("/optimize", "/explain", "/batch", "/execute", "/stats_update"):
            check_route("POST", path)
            assert error_of(check_route, "GET", path).status == 405
        for path in ("/stats", "/healthz"):
            check_route("GET", path)
            assert error_of(check_route, "POST", path).status == 405
        assert error_of(check_route, "GET", "/nope").status == 404
        assert error_of(check_route, "DELETE", "/optimize").status == 405

    @pytest.mark.parametrize(
        "raw", [b"", b"this is not json", b"\xff\xfe", b"[1, 2]", b'"sql"', b"null"]
    )
    def test_non_object_bodies_are_bad_json(self, raw):
        error = error_of(parse_body, raw)
        assert (error.status, error.code) == (400, "bad_json")

    def test_object_bodies_parse(self):
        assert parse_body(b'{"sql": "x"}') == {"sql": "x"}

    def test_merge_stats_sums_and_rederives(self, data_core):
        first, second = make_core(), make_core()
        first.optimize({"sql": SQL})
        first.optimize({"sql": SQL})
        second.optimize({"sql": SQL, "strategy": "dphyp"})
        data_core.execute({"sql": SQL, "limit": 1})
        snapshots = [first.stats(), second.stats(), data_core.stats()]
        merged = merge_stats(snapshots)
        assert set(merged) == set(snapshots[0])
        for block in ("plans", "executions", "cache", "parse_memo"):
            assert set(merged[block]) == set(snapshots[0][block])
        served = sum(s["plans"]["served"] for s in snapshots)
        hits = sum(s["plans"]["cache_hits"] for s in snapshots)
        assert merged["plans"]["served"] == served
        assert merged["plans"]["hit_rate"] == hits / served
        assert merged["plans"]["by_strategy"]["dphyp"] == 1
        snapshots[0]["plans"]["bounded_remembered"] = 3
        snapshots[2]["plans"]["bounded_remembered"] = 4
        assert merge_stats(snapshots)["plans"]["bounded_remembered"] == 7
        assert merged["cache"]["capacity"] == 16.0 + 16.0 + 64.0
        lookups = merged["cache"]["hits"] + merged["cache"]["misses"]
        assert merged["cache"]["hit_rate"] == merged["cache"]["hits"] / lookups
        executions = merged["executions"]
        assert executions["count"] == snapshots[2]["executions"]["count"]
        assert executions["mean_ms"] == pytest.approx(
            executions["seconds_total"] / executions["count"] * 1000.0
        )
        assert executions["p95_ms"] == snapshots[2]["executions"]["p95_ms"]  # the worst core's

    def test_merge_of_nothing_is_still_answerable(self):
        merged = merge_stats([])
        assert merged["plans"]["hit_rate"] == 0.0 and merged["executions"]["p50_ms"] is None

    def test_the_core_loads_no_transport(self):
        """core.py is transport-free: importing it must not pull in either
        serving tier, the HTTP stack or asyncio."""
        probe = (
            "import sys, repro.service.core\n"
            "bad = [m for m in sys.modules if m.split('.')[0] in ('asyncio', 'http')"
            " or m.startswith(('repro.server', 'repro.asyncserver'))]\n"
            "assert not bad, bad"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True, env={"PYTHONPATH": SRC}, timeout=60
        )

    def test_an_executing_core_loads_its_backend_at_boot(self):
        """With a dataset the default executor's modules (numpy included)
        are imported by construction — before a serving process freezes
        its boot heap, not inside the first /execute request; without one
        the core stays numpy-free."""
        probe = (
            "import sys\n"
            "from repro.service.config import ServingConfig\n"
            "from repro.service.core import ServingCore\n"
            "ServingCore(ServingConfig())\n"
            "assert 'numpy' not in sys.modules and 'repro.exec.columnar' not in sys.modules\n"
            "ServingCore(ServingConfig(dataset='tpch-sf0.001', default_executor='interpreter'))\n"
            "assert 'repro.exec.columnar' not in sys.modules\n"
            "ServingCore(ServingConfig(dataset='tpch-sf0.001'))\n"
            "assert 'repro.exec.columnar' in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True, env={"PYTHONPATH": SRC}, timeout=60
        )


class TestServingConfig:
    """A server's settings are rejected at construction, not at first use."""

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"port": 70000}, "port"),
            ({"strategy": "nonsense"}, "unknown strategy"),
            ({"cache_capacity": None}, "cache_capacity"),
            ({"cache_capacity": 0}, "cache_capacity"),
            ({"dataset": "nonsense-spec"}, "dataset spec"),
            ({"dataset": "tpch-sf2"}, "scale"),
            ({"default_executor": "gpu"}, "default_executor"),
            ({"scale_factor": float("nan")}, "scale_factor"),
            ({"scale_factor": float("inf")}, "scale_factor"),
            ({"request_timeout_seconds": 0}, "request_timeout_seconds"),
            ({"request_timeout_seconds": float("nan")}, "request_timeout_seconds"),
            ({"drain_grace_seconds": -1}, "drain_grace_seconds"),
            ({"drain_grace_seconds": float("nan")}, "drain_grace_seconds"),
            ({"shards": 0}, "shards"),
            ({"revalidate_batch": 0}, "revalidate_batch"),
        ],
    )
    def test_bad_settings_are_rejected_at_construction(self, settings, match):
        with pytest.raises(ValueError, match=match):
            ServingConfig(**settings)


# -- frontend fuzz (ROADMAP 4e): junk in, only 2xx bodies or 4xx errors out --------

KEYWORDS = (
    "SELECT FROM WHERE GROUP BY JOIN LEFT RIGHT FULL OUTER ON AND OR NOT EXISTS IN AS "
    "count sum min max avg ( ) , . * = < > <> NULL IS ORDER HAVING LIMIT 1 'x' ; -- \x00 é"
).split(" ")
SEEDS = (SQL, SQL_RENAMED, SQL_SMALL, BAD_TABLE) + (
    "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
    "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) GROUP BY n.n_name",
    "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE c.c_custkey "
    "IN (SELECT o.o_custkey FROM orders o) GROUP BY c.c_nationkey",
    "SELECT n.n_name, sum(s.s_acctbal) AS total FROM supplier s "
    "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey GROUP BY n.n_name",
)
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("drop", "dup", "swap", "put", "wrap")),
        st.integers(0, 200),
        st.integers(0, 200),
        st.sampled_from(KEYWORDS),
    ),
    max_size=6,
)


@st.composite
def mutated_sql(draw) -> str:
    """A seed statement with a few token-level edits: tokens dropped,
    doubled, swapped, replaced by grammar words, or nested in parentheses."""
    tokens = draw(st.sampled_from(SEEDS)).replace("(", " ( ").replace(")", " ) ").split()
    for op, i, j, word in draw(MUTATIONS):
        if not tokens:
            break
        i, j = i % len(tokens), j % len(tokens)
        if op == "drop":
            del tokens[i]
        elif op == "dup":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "put":
            tokens[i] = word
        else:
            lo, hi = min(i, j), max(i, j)
            depth = 1 + (i * j) % 400  # deep enough to meet the recursion guard
            tokens[lo:hi + 1] = ["("] * depth + tokens[lo:hi + 1] + [")"] * depth
    return " ".join(tokens)


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
VALID = {
    "sql": st.sampled_from(SEEDS),
    "strategy": st.sampled_from(("ea-prune", "dphyp", "h1", "h2", "ea-all")),
    "factor": st.floats(1.0, 4.0),
    "cost_model": st.just("cout"),
    "include_plan": st.booleans(),
    "include_plans": st.booleans(),
    "executor": st.sampled_from(("columnar", "interpreter")),
    "limit": st.none() | st.integers(0, 50),
    "table": st.sampled_from(("supplier", "nation", "orders", "SUPPLIER")),
    "cardinality_factor": st.floats(0.25, 4.0),
    "cardinality": st.floats(1.0, 1e7),
}
BODIES = st.fixed_dictionaries(
    {}, optional={field: valid | JUNK for field, valid in VALID.items()}
) | st.fixed_dictionaries({"sql": mutated_sql()})
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def answers_cleanly(call, *args, **kwargs) -> None:
    """A 2xx body that serialises, or a RequestError with a 4xx status —
    never a bare exception, never a 5xx."""
    try:
        body = call(*args, **kwargs)
    except RequestError as error:
        assert 400 <= error.status < 500, (error.status, error.code, error.message)
        json.dumps(error.to_body())
    else:
        json.dumps(body)


class TestFrontendFuzz:
    @pytest.fixture(scope="class")
    def fuzz_core(self):
        # A short budget keeps mutated-but-valid monsters cheap: they degrade.
        return make_core(dataset="tpch-sf0.001", cache_capacity=32, request_timeout_seconds=0.25)

    @FUZZ
    @given(body=BODIES)
    def test_optimize_explain_execute(self, fuzz_core, body):
        answers_cleanly(fuzz_core.optimize, body)
        answers_cleanly(fuzz_core.explain, body)
        answers_cleanly(fuzz_core.execute, body)

    @FUZZ
    @given(body=BODIES, queries=st.lists(mutated_sql() | JUNK, max_size=4) | JUNK)
    def test_batch(self, fuzz_core, body, queries):
        def batch(request):
            return fuzz_core.batch_items(request, enumerate(batch_queries(request)))

        answers_cleanly(batch, dict(body, queries=queries))

    @settings(max_examples=60, deadline=None)
    @given(body=BODIES)
    def test_stats_update(self, body):
        # A fresh core per example: accepted drifts must not pile up.
        answers_cleanly(make_core(cache_capacity=4).stats_update, body, inline=2)

    @FUZZ
    @given(raw=st.binary(max_size=64) | JUNK.map(lambda value: json.dumps(value).encode()))
    def test_raw_bodies(self, raw):
        answers_cleanly(parse_body, raw)
