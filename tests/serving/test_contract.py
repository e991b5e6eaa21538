"""One HTTP contract, however the server is started.

Every shard serves from a :class:`repro.service.core.ServingCore`; this
suite holds the server to one request / response / error-code contract
by running every case against four live servers: the front started
in-process with one shard and with two, and ``python -m repro serve``
started as a process with one shard and with two shards persisting to
``--cache-dir`` (the command lines an operator types).  What a request
*means* is pinned in-process in ``tests/service/test_core.py``; what the
transport owns beyond the contract stays in ``tests/asyncserver`` (429,
drain, crash-restart, persistence, sharding, chaos).
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.asyncserver import AsyncPlanServer
from repro.server import ServerClient, ServerError
from repro.service.config import ServingConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)
SQL_COMMA = (
    "SELECT nation.n_name, count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey GROUP BY nation.n_name"
)
JOIN_SQL = (
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey GROUP BY r.r_name"
)
SQL_SMALL = "SELECT count(*) FROM region GROUP BY r_name"
#: sent only by the batch dedup case, so its first item is a miss
PART_SQL = (
    "SELECT p.p_type, count(*) AS cnt FROM part p "
    "JOIN partsupp ps ON p.p_partkey = ps.ps_partkey GROUP BY p.p_type"
)
PART_SQL_RENAMED = (
    "SELECT pt2.p_type, count(*) AS cnt FROM part pt2 "
    "JOIN partsupp ps2 ON pt2.p_partkey = ps2.ps_partkey GROUP BY pt2.p_type"
)
BAD_TABLE = "SELECT count(*) FROM nowhere GROUP BY x"
EXISTS_SQL = (
    "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
    "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
    "GROUP BY n.n_name"
)
NOT_EXISTS_SQL = EXISTS_SQL.replace("WHERE EXISTS", "WHERE NOT EXISTS")
#: five problems for a cache that holds two
CHURN_SQLS = (
    SQL,
    JOIN_SQL,
    EXISTS_SQL,
    "SELECT c.c_name, count(*) AS cnt FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c.c_name",
    "SELECT r.r_name, count(*) AS cnt FROM supplier s "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN region r ON n.n_regionkey = r.r_regionkey GROUP BY r.r_name",
)

#: transport name → shard count
TRANSPORTS = {
    "async-shards1": 1,
    "async-shards2": 2,
    "serve-shards1": 1,
    "serve-shards2-cache-dir": 2,
}

#: ``/stats`` keys outside the contract: supervision, routing and
#: per-shard detail, whose contents depend on the shard count.
TRANSPORT_OWNED = {"restarts", "supervision", "route_cache", "shard_detail"}

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: the ``serve`` flag for each setting the fixtures below use
SERVE_FLAGS = {
    "cache_capacity": "--cache-size",
    "dataset": "--dataset",
    "snapshot_band_width": "--band-width",
}


class ServeProcess:
    """``python -m repro serve --port 0 <flags>`` as a child process,
    with the ``port`` / ``url`` of an in-process server.  Leaving the
    block sends SIGTERM; the daemon must drain cleanly and exit 0."""

    def __init__(self, *flags: str) -> None:
        self.argv = [sys.executable, "-m", "repro", "serve", "--port", "0", *flags]

    def __enter__(self) -> "ServeProcess":
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True
        )
        banner = self.proc.stdout.readline()
        if "listening on http://" not in banner:
            self.proc.kill()
            self.proc.communicate(timeout=30)
            raise AssertionError(f"serve printed {banner!r}, not its banner")
        self.url = banner.split("listening on ")[1].split()[0]
        self.port = int(self.url.rsplit(":", 1)[1])
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate(timeout=30)
            raise
        assert self.proc.returncode == 0 and "drained cleanly" in out, out


def boot_all(stack: contextlib.ExitStack, snapshots: Path, **settings) -> dict:
    """Every transport, same settings, alive together."""
    flags = [f"{SERVE_FLAGS[name]}={value}" for name, value in settings.items()]
    return {
        "async-shards1": stack.enter_context(
            AsyncPlanServer(ServingConfig(port=0, shards=1, **settings))
        ),
        "async-shards2": stack.enter_context(
            AsyncPlanServer(ServingConfig(port=0, shards=2, **settings))
        ),
        "serve-shards1": stack.enter_context(ServeProcess("--shards=1", *flags)),
        "serve-shards2-cache-dir": stack.enter_context(
            ServeProcess("--shards=2", f"--cache-dir={snapshots}", *flags)
        ),
    }


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    with contextlib.ExitStack() as stack:
        yield boot_all(
            stack, tmp_path_factory.mktemp("snapshots"), cache_capacity=64, dataset="tpch-sf0.001"
        )


@pytest.fixture(scope="module")
def drift_servers(tmp_path_factory):
    """No dataset, banded keys: the servers the drift cases are allowed to
    leave with changed statistics."""
    with contextlib.ExitStack() as stack:
        yield boot_all(
            stack, tmp_path_factory.mktemp("snapshots"), cache_capacity=64, snapshot_band_width=1.0
        )


@pytest.fixture(scope="module")
def churn_servers(tmp_path_factory):
    """Caches of two plans (per shard): every working set churns."""
    with contextlib.ExitStack() as stack:
        yield boot_all(stack, tmp_path_factory.mktemp("snapshots"), cache_capacity=2)


@pytest.fixture(params=list(TRANSPORTS))
def transport(request):
    return request.param


@pytest.fixture()
def server(servers, transport):
    return servers[transport]


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


@pytest.fixture()
def drift_client(drift_servers, transport):
    with ServerClient(port=drift_servers[transport].port) as c:
        yield c


def error_of(client, method, path, body=None) -> ServerError:
    with pytest.raises(ServerError) as excinfo:
        client._request(method, path, body)
    return excinfo.value


def raw_post(server, path: str, data: bytes):
    """POST bytes that are not the client's well-formed JSON → (status, body)."""
    request = urllib.request.Request(
        server.url + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealthz:
    def test_ok_while_serving(self, client):
        body = client.healthz()
        assert body["_status"] == 200
        assert body["status"] == "ok" and body["strategy"] == "ea-prune"
        assert body["inflight"] == 0


class TestOptimize:
    def test_round_trip_with_plan_tree(self, client):
        body = client.optimize(SQL)
        assert body["strategy"] == "ea-prune" and body["cost_model"] == "cout"
        assert body["cost"] > 0 and body["ccp_count"] >= 1
        assert body["plan"]["op"] in ("groupby", "project", "map")
        assert body["degraded"] is False

    def test_cache_hit_on_repeat(self, client):
        client.optimize(SQL)
        body = client.optimize(SQL)
        assert body["cache_hit"] is True
        assert body["elapsed_seconds"] == 0.0

    def test_renamed_isomorphic_query_hits_across_spellings(self, client):
        """Rename-stable fingerprints: both spellings reach the same cache
        entry (with two shards: the same shard), which rebinds the plan
        to the new names."""
        client.optimize(SQL)
        body = client.optimize(SQL_RENAMED, include_plan=True)
        assert body["cache_hit"] is True
        assert "n2" in json.dumps(body["plan"])
        assert client.optimize(SQL_COMMA)["cache_hit"] is True

    def test_strategy_override(self, client):
        assert client.optimize(SQL, strategy="dphyp")["strategy"] == "dphyp"

    def test_null_overrides_mean_absent(self, client):
        client.optimize(SQL)
        body = client.optimize(SQL, strategy=None, factor=None, cost_model=None)
        assert body["strategy"] == "ea-prune" and body["cache_hit"] is True

    def test_include_plan_false_omits_tree(self, client):
        assert "plan" not in client.optimize(SQL, include_plan=False)

    def test_parse_error_is_400(self, client):
        error = error_of(client, "POST", "/optimize", {"sql": BAD_TABLE})
        assert (error.status, error.code) == (400, "parse_error")
        assert "nowhere" in error.message

    def test_reserved_keyword_is_a_client_error(self, client):
        error = error_of(
            client, "POST", "/optimize",
            {"sql": "SELECT count(*) FROM nation n ORDER BY n.n_name"},
        )
        assert error.status == 400
        assert "reserved but not yet supported" in str(error)

    def test_bad_config_is_400(self, client):
        error = error_of(client, "POST", "/optimize", {"sql": SQL, "strategy": "nonsense"})
        assert (error.status, error.code) == (400, "bad_config")

    @pytest.mark.parametrize("body", [{"not_sql": 1}, {"sql": ""}, {"sql": 7}, {"sql": None}])
    def test_missing_sql_is_400(self, client, body):
        error = error_of(client, "POST", "/optimize", body)
        assert (error.status, error.code) == (400, "bad_request")


class TestMixedOperators:
    """The PR-5 operator surface over the serving path (EXISTS round-trips
    with a cache key distinct from the NOT EXISTS variant)."""

    def test_exists_round_trip_serves_a_semijoin_plan(self, client):
        body = client.optimize(EXISTS_SQL, include_plan=True)
        assert body["cost"] > 0
        assert "left_semi" in json.dumps(body["plan"])

    def test_not_exists_never_hits_the_exists_entry(self, client):
        client.optimize(EXISTS_SQL)
        anti = client.optimize(NOT_EXISTS_SQL, include_plan=True)
        assert anti["cache_hit"] is False
        assert "left_anti" in json.dumps(anti["plan"])
        assert client.optimize(EXISTS_SQL)["cache_hit"] is True

    def test_right_join_and_in_subquery_round_trip(self, client):
        right = client.optimize(
            "SELECT n.n_name, count(*) AS cnt FROM supplier s "
            "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name"
        )
        assert right["cost"] > 0
        in_sub = client.optimize(
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE "
            "c.c_custkey IN (SELECT o.o_custkey FROM orders o) "
            "GROUP BY c.c_nationkey"
        )
        assert in_sub["cost"] > 0


class TestExplain:
    def test_rendered_tree(self, client):
        body = client.explain(SQL)
        assert body["cost"] > 0 and "⋈" in body["explain"]
        assert len(body["explain"].splitlines()) >= 2
        assert "nation" in body["explain"]

    def test_parse_error_is_400(self, client):
        error = error_of(client, "POST", "/explain", {"sql": BAD_TABLE})
        assert (error.status, error.code) == (400, "parse_error")
        assert "nowhere" in error.message

    def test_bad_config_is_400(self, client):
        error = error_of(client, "POST", "/explain", {"sql": SQL, "strategy": "nonsense"})
        assert (error.status, error.code) == (400, "bad_config")

    def test_missing_sql_is_400(self, client):
        error = error_of(client, "POST", "/explain", {"not_sql": 1})
        assert (error.status, error.code) == (400, "bad_request")


class TestBatch:
    def test_poisoned_item_is_isolated_and_order_kept(self, client):
        body = client.batch([SQL, SQL_SMALL, BAD_TABLE, SQL_RENAMED])
        assert (body["total"], body["succeeded"], body["failed"]) == (4, 3, 1)
        items = body["items"]
        assert [item["index"] for item in items] == [0, 1, 2, 3]
        assert "error" in items[2] and items[2]["stage"] == "parse"
        assert items[0]["cost"] == pytest.approx(items[3]["cost"])

    def test_duplicate_statements_dedup_through_cache(self, client):
        body = client.batch([JOIN_SQL, JOIN_SQL])
        assert body["succeeded"] == 2 and body["cache_hits"] >= 1
        assert body["items"][1]["cache_hit"] is True

    def test_renamed_duplicates_plan_once_under_their_own_names(self, client):
        """A statement no other case sends, its renamed twin, and itself
        again: one miss and one cache entry, and each item's plan speaks
        its own statement's names."""
        before = client.stats()
        body = client.batch([PART_SQL, PART_SQL_RENAMED, PART_SQL], include_plans=True)
        after = client.stats()
        items = body["items"]
        assert [item["cache_hit"] for item in items] == [False, True, True]
        assert "pt2" in json.dumps(items[1]["plan"])
        assert "pt2" not in json.dumps(items[2]["plan"])
        assert after["plans"]["cache_misses"] == before["plans"]["cache_misses"] + 1
        assert after["cache"]["puts"] == before["cache"]["puts"] + 1

    def test_include_plans(self, client):
        body = client.batch([SQL], include_plans=True)
        assert body["items"][0]["plan"]["op"] in ("groupby", "project", "map")

    def test_a_bad_override_fails_the_whole_batch(self, client):
        # The overrides are the request's, not an item's.
        error = error_of(
            client, "POST", "/batch", {"queries": [SQL, SQL_SMALL], "strategy": "nonsense"}
        )
        assert (error.status, error.code) == (400, "bad_config")
        assert "nonsense" in error.message

    @pytest.mark.parametrize("queries", [[], "not-a-list", None])
    def test_queries_must_be_a_non_empty_list(self, client, queries):
        error = error_of(client, "POST", "/batch", {"queries": queries})
        assert (error.status, error.code) == (400, "bad_request")


class TestHttpEdges:
    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_path_is_404(self, client, method):
        error = error_of(client, method, "/nope", {"sql": SQL} if method == "POST" else None)
        assert (error.status, error.code) == (404, "not_found")

    @pytest.mark.parametrize(
        "path", ["/optimize", "/explain", "/batch", "/execute", "/stats_update"]
    )
    def test_get_on_a_post_only_path_is_405(self, client, path):
        error = error_of(client, "GET", path)
        assert (error.status, error.code) == (405, "method_not_allowed")

    @pytest.mark.parametrize("path", ["/stats", "/healthz"])
    def test_post_on_a_get_only_path_is_405(self, client, path):
        error = error_of(client, "POST", path, {})
        assert (error.status, error.code) == (405, "method_not_allowed")

    @pytest.mark.parametrize(
        "path", ["/optimize", "/batch", "/execute", "/stats_update", "/explain"]
    )
    @pytest.mark.parametrize("data", [b"this is not json", b"[1, 2]", b'"sql"', b""])
    def test_a_body_that_is_not_a_json_object_is_bad_json(self, server, path, data):
        status, body = raw_post(server, path, data)
        assert status == 400
        assert body["error"]["code"] == "bad_json"


class TestExecute:
    def test_round_trip_default_executor(self, client):
        body = client.execute(SQL)
        assert body["executor"] == "columnar"  # the serving default
        assert body["columns"] == ["ns.n_name", "cnt"]
        assert body["row_count"] == len(body["rows"]) > 0
        assert body["execution_seconds"] >= 0.0
        assert body["cost"] > 0

    def test_backends_agree_through_http(self, client):
        columnar = client.execute(SQL, limit=None)
        interpreter = client.execute(SQL, executor="interpreter", limit=None)
        assert interpreter["executor"] == "interpreter"
        assert sorted(map(tuple, columnar["rows"])) == sorted(
            map(tuple, interpreter["rows"])
        )

    def test_limit_truncates(self, client):
        body = client.execute(SQL, limit=2)
        assert body["limit"] == 2 and body["row_count"] == 2

    def test_limit_zero_returns_schema_only(self, client):
        body = client.execute(SQL, limit=0)
        assert body["rows"] == [] and body["columns"] == ["ns.n_name", "cnt"]

    def test_absent_limit_defaults_to_cap(self, client):
        assert client.execute(JOIN_SQL)["limit"] == 1000

    def test_second_run_plans_from_cache(self, client):
        client.execute(JOIN_SQL, limit=None)
        assert client.execute(JOIN_SQL, limit=None)["cache_hit"] is True

    def test_bad_executor_is_400(self, client):
        error = error_of(client, "POST", "/execute", {"sql": SQL, "executor": "gpu"})
        assert (error.status, error.code) == (400, "bad_executor")

    @pytest.mark.parametrize("limit", [-1, 1.5, "3", True])
    def test_bad_limit_is_400(self, client, limit):
        error = error_of(client, "POST", "/execute", {"sql": SQL, "limit": limit})
        assert (error.status, error.code) == (400, "bad_request")

    def test_parse_error_is_400(self, client):
        error = error_of(client, "POST", "/execute", {"sql": BAD_TABLE})
        assert (error.status, error.code) == (400, "parse_error")

    def test_409_when_no_dataset_loaded(self, drift_client):
        error = error_of(drift_client, "POST", "/execute", {"sql": SQL})
        assert (error.status, error.code) == (409, "no_dataset")


class TestStats:
    def test_one_reporting_surface(self, client, transport):
        client.optimize(SQL)
        client.execute(SQL)
        stats = client.stats()
        assert stats["mode"] == "async"
        assert stats["shards"] == TRANSPORTS[transport]
        assert stats["draining"] is False and stats["degradation"] == "heuristic"
        assert set(stats["persistence"]) == {"loaded", "saved", "rejected"}
        assert "engine" not in stats  # one engine serves; the other is the test oracle
        assert stats["plans"]["by_strategy"].get("ea-prune", 0) >= 2
        assert stats["plans"]["served"] >= 2
        assert stats["plans"]["served"] == (
            stats["plans"]["cache_hits"] + stats["plans"]["cache_misses"]
        )
        assert stats["cache"]["capacity"] == 64.0 * stats["shards"]

    def test_requests_are_keyed_method_space_path(self, client):
        client.optimize(SQL)
        error_of(client, "GET", "/optimize")
        error_of(client, "GET", "/nope")
        requests = client.stats()["requests"]
        assert requests["POST /optimize"]["count"] >= 1
        assert requests["POST /optimize"]["p50_ms"] is not None
        assert requests["GET /optimize"]["errors_4xx"] >= 1
        assert requests["GET <other>"]["errors_4xx"] >= 1
        assert all(key.split(" ")[0] in ("GET", "POST", "<other>") for key in requests)

    def test_plans_block_has_every_counter(self, client):
        plans = client.stats()["plans"]
        assert set(plans) == {
            "served", "cache_hits", "cache_misses", "hit_rate", "failures", "degraded",
            "timeouts", "stale_served", "recosted", "replanned", "bounded_remembered",
            "by_strategy",
        }

    def test_executions_block_has_the_same_keys_everywhere(self, client):
        client.execute(SQL)
        stats = client.stats()
        executions = stats["executions"]
        assert set(executions) == {
            "count", "by_executor", "rows_returned", "seconds_total",
            "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        }
        assert executions["count"] >= 1
        assert executions["by_executor"].get("columnar", 0) >= 1
        assert executions["rows_returned"] >= 1
        assert executions["p50_ms"] is not None and executions["mean_ms"] is not None
        # /execute requests are metered under their own endpoint too.
        assert stats["requests"]["POST /execute"]["count"] >= 1


def test_an_evicted_plans_cost_bounds_its_replan(churn_servers, transport):
    """Five statements through a cache of two, three times over: from the
    second pass on a miss re-plans what the cache held and evicted, under
    the cost it left behind — counted in ``plans.bounded_remembered`` on
    every transport, with the answers unchanged."""
    with ServerClient(port=churn_servers[transport].port) as client:
        passes = [
            [client.optimize(sql, include_plan=False) for sql in CHURN_SQLS] for _ in range(3)
        ]
        stats = client.stats()
    for later in passes[1:]:
        assert [reply["cost"] for reply in later] == [reply["cost"] for reply in passes[0]]
        assert [reply["ccp_count"] for reply in later] == [
            reply["ccp_count"] for reply in passes[0]
        ]
    assert not any(reply["cache_hit"] for reply in passes[0])
    plans, cache = stats["plans"], stats["cache"]
    if stats["shards"] == 1:
        # Cyclic access over capacity + 3 never hits: both later passes re-plan all five.
        assert plans["bounded_remembered"] == 10 == plans["cache_misses"] - 5
    else:
        # One of two shards owns at least three of the five, and churns.
        assert 6 <= plans["bounded_remembered"] == plans["cache_misses"] - 5
    assert cache["known_costs"] >= 3 and cache["evictions"] >= plans["bounded_remembered"]
    assert plans["failures"] == plans["degraded"] == 0


def key_paths(value, prefix=()) -> set:
    """Every dict key path in *value* (lists are leaves: their length varies)."""
    if not isinstance(value, dict):
        return {prefix}
    return {prefix}.union(*(key_paths(child, prefix + (key,)) for key, child in value.items()))


def test_stats_schema_is_one_schema(servers):
    """Every ``/stats`` key path present on one transport is present on
    the others, transport-owned keys aside — after the same traffic."""
    paths = {}
    for name, server in servers.items():
        with ServerClient(port=server.port) as client:
            client.optimize(SQL, strategy="dphyp")
            client.explain(SQL)
            client.batch([SQL, BAD_TABLE])
            client.execute(SQL, executor="interpreter")
            error_of(client, "POST", "/execute", {"sql": SQL, "executor": "gpu"})
            error_of(client, "GET", "/batch")
            error_of(client, "POST", "/nope", {})
            client.stats()
            stats = client.stats()
        del stats["_status"]
        assert set(stats) & TRANSPORT_OWNED == TRANSPORT_OWNED, name
        paths[name] = key_paths({k: v for k, v in stats.items() if k not in TRANSPORT_OWNED})
    first, *others = TRANSPORTS
    reference = paths[first]
    for name in others:
        assert paths[name] - reference == set(), name
        assert reference - paths[name] == set(), name


class TestStatsUpdate:
    """Drift lands, dependent plans turn over, untouched ones do not."""

    def wait_for_revalidation(self, client, minimum, timeout=15.0):
        """Shards revalidate inline and in idle gaps between requests:
        poll /stats until they got there."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            stats = client.stats()
            done = stats["plans"]["recosted"] + stats["plans"]["replanned"]
            if done >= minimum and stats["cache"]["stale_entries"] == 0:
                return stats
            time.sleep(0.05)
        raise AssertionError(f"revalidation did not reach {minimum} in {timeout}s")

    def test_drift_marks_recosts_and_reprices(self, drift_client):
        before = drift_client.optimize(SQL, include_plan=False)
        assert drift_client.optimize(SQL)["cache_hit"] is True
        already = drift_client.stats()["plans"]
        body = drift_client._request(
            "POST", "/stats_update", {"table": "supplier", "cardinality_factor": 4.0}
        )
        assert body["_status"] == 200
        assert body["relation"] == "supplier" and body["cardinality_ratio"] == 4.0
        assert body["old_cardinality"] * 4.0 == body["new_cardinality"]
        assert "s_suppkey" in body["distinct_changed"]
        # The lifecycle part of the reply, on every transport.
        assert body["marked_stale"] >= 1
        assert isinstance(body["stale_entries"], int)
        assert set(body["revalidated_inline"]) == {"recosted", "replanned", "dropped", "failed"}

        stats = self.wait_for_revalidation(
            drift_client, already["recosted"] + already["replanned"] + 1
        )
        assert stats["cache"]["marked_stale"] >= 1
        after = drift_client.optimize(SQL, include_plan=False)
        assert after["cost"] > before["cost"]  # re-priced under 4x rows

    def test_absolute_cardinality_variant(self, drift_client):
        body = drift_client._request(
            "POST", "/stats_update", {"table": "customer", "cardinality": 123456.0}
        )
        assert body["new_cardinality"] == 123456.0

    def test_untouched_tables_keep_their_plans(self, drift_client):
        before = drift_client.optimize(SQL_SMALL, include_plan=False)
        drift_client._request(
            "POST", "/stats_update", {"table": "orders", "cardinality_factor": 2.0}
        )
        after = drift_client.optimize(SQL_SMALL, include_plan=False)
        assert after["cost"] == before["cost"] and after["cache_hit"] is True

    def test_unknown_table_is_404(self, drift_client):
        error = error_of(
            drift_client, "POST", "/stats_update",
            {"table": "nowhere", "cardinality_factor": 2.0},
        )
        assert (error.status, error.code) == (404, "unknown_table")

    @pytest.mark.parametrize(
        "body",
        [
            {"table": "supplier"},  # neither knob
            {"table": "supplier", "cardinality_factor": 2.0, "cardinality": 5.0},
            {"table": "supplier", "cardinality_factor": 0.0},
            {"table": "supplier", "cardinality_factor": -3.0},
            {"table": "supplier", "cardinality": -1.0},
            {"table": 7, "cardinality_factor": 2.0},
            {"table": None, "cardinality_factor": 2.0},
            {"cardinality_factor": 2.0},
        ],
    )
    def test_invalid_bodies_are_400(self, drift_client, body):
        error = error_of(drift_client, "POST", "/stats_update", body)
        assert (error.status, error.code) == (400, "bad_request")
