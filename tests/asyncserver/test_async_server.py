"""End-to-end tests for what the serving tier owns beyond the contract.

Boots real servers (event-loop front + worker subprocesses) on
ephemeral ports and drives them with the ordinary
:class:`~repro.server.client.ServerClient`.  Covers shard routing, the
merged ``/stats`` detail, the front's admission bound under a pipelined
burst, crash restart, graceful drain, and the drain → snapshot →
restart → warm-hit cycle.  Endpoint round-trips and error codes are the
contract — ``tests/serving/test_contract.py`` runs them against one and
two shards.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.asyncserver import AsyncPlanServer, AsyncPlanService
from repro.asyncserver.worker import ShardWorker
from repro.server.client import ServerClient, ServerError
from repro.service.config import ServingConfig

SQL = (
    "SELECT nation.n_name, count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey GROUP BY nation.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)


@pytest.fixture(scope="module")
def server():
    config = ServingConfig(port=0, shards=2, cache_capacity=64)
    with AsyncPlanServer(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestHealthz:
    def test_ok_while_serving(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["mode"] == "async"
        assert body["shards"] == 2
        assert body["_status"] == 200


class TestSharding:
    def test_replies_carry_the_owning_shard(self, client):
        assert client.optimize(SQL)["shard"] in (0, 1)

    def test_same_sql_always_same_shard(self, client):
        shards = {client.optimize(SQL, include_plan=False)["shard"] for _ in range(6)}
        assert len(shards) == 1

    def test_renamed_spelling_routes_to_the_same_shard(self, client):
        """Rename-stable fingerprints route both spellings to the shard
        that owns the entry."""
        first = client.optimize(SQL, include_plan=False)
        renamed = client.optimize(SQL_RENAMED, include_plan=False)
        assert renamed["shard"] == first["shard"] and renamed["cache_hit"] is True


class TestStats:
    def test_aggregated_fields(self, client):
        client.optimize(SQL)
        stats = client.stats()
        assert stats["mode"] == "async"
        assert stats["shards"] == 2
        assert set(stats["persistence"]) == {"loaded", "saved", "rejected"}
        assert stats["plans"]["served"] >= 1
        assert stats["plans"]["by_strategy"]  # merged over the shards
        assert len(stats["shard_detail"]) == 2
        for detail in stats["shard_detail"]:
            assert detail["shard"] in (0, 1)
            assert detail["pid"] > 0
            assert set(detail["persistence"]) == {"loaded", "saved", "rejected"}
        assert stats["route_cache"]["hits"] + stats["route_cache"]["misses"] > 0


class TestBackpressure:
    """A burst beyond ``max_inflight`` is shed at the front, not queued."""

    def test_the_default_bound_grows_with_the_shards(self):
        assert ServingConfig(shards=1).effective_max_inflight == 48
        assert ServingConfig(shards=4).effective_max_inflight == 96
        assert ServingConfig(shards=4, max_inflight=3).effective_max_inflight == 3

    def test_the_shard_count_is_decided_once_per_server(self, tmp_path, monkeypatch):
        """Without ``shards`` a server sizes itself from CPU affinity at
        boot; affinity that shrinks later moves neither the admission
        bound nor the snapshot file a restarted shard reads and writes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        service = AsyncPlanService(ServingConfig(port=0, cache_dir=str(tmp_path)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert service.supervisor.shards == 2
        assert service.config.effective_max_inflight == 64
        restarted = ShardWorker(service.supervisor.worker_config(0))
        assert restarted.snapshot_path == str(tmp_path / "shard-000-of-002.plancache")

    MAX_INFLIGHT = 4
    BURST = 24

    def test_burst_past_admission_gets_429_while_admitted_answer_200(self):
        config = ServingConfig(
            port=0, shards=2, cache_capacity=64, max_inflight=self.MAX_INFLIGHT
        )
        body = json.dumps({"sql": SQL, "include_plan": False}).encode()
        request = (
            b"POST /optimize HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        with AsyncPlanServer(config) as running:
            with ServerClient(port=running.port) as c:
                c.optimize(SQL, include_plan=False)  # admitted requests are hits
                # One write, so the front has dispatched the whole burst
                # before the first shard reply can free an admission slot.
                with socket.create_connection((running.host, running.port), 30) as sock:
                    sock.sendall(request * self.BURST)
                    replies = read_replies(sock, self.BURST)
                statuses = [status for status, _payload in replies]
                assert set(statuses) == {200, 429}
                assert statuses.count(200) >= self.MAX_INFLIGHT
                for status, payload in replies:
                    if status == 429:
                        assert payload["error"]["code"] == "overloaded"
                    else:
                        assert payload["cache_hit"] is True
                assert c.healthz()["status"] == "ok"
                counted = c.stats()["requests"]["POST /optimize"]
                assert counted["rejected_429"] == statuses.count(429)
                # slots released: a request is admitted again
                assert c.optimize(SQL, include_plan=False)["cost"] > 0


def read_replies(sock, count):
    """``(status, json body)`` of *count* pipelined replies, in order."""
    buffer, replies = b"", []
    while len(replies) < count:
        head, sep, rest = buffer.partition(b"\r\n\r\n")
        length = None
        if sep:
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        if length is None or len(rest) < length:
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection mid-burst"
            buffer += chunk
            continue
        replies.append((int(head[9:12]), json.loads(rest[:length])))
        buffer = rest[length:]
    return replies


class TestCrashRestart:
    def test_worker_crash_is_survived_and_restarted(self, server, client):
        stats = client.stats()
        victim_shard = client.optimize(SQL, include_plan=False)["shard"]
        victim_pid = next(
            d["pid"] for d in stats["shard_detail"] if d["shard"] == victim_shard
        )
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        body = None
        while time.monotonic() < deadline:
            try:
                body = client.optimize(SQL, include_plan=False)
                break
            except ServerError as error:
                # The crash instant answers 500 worker_pool_failure and
                # the restart-backoff window answers 503
                # shard_unavailable; the supervisor restarts the shard
                # out-of-band either way.
                assert error.code in ("worker_pool_failure", "shard_unavailable")
                time.sleep(0.2)
        assert body is not None, "shard never came back after crash"
        assert body["shard"] == victim_shard
        stats = client.stats()
        assert stats["restarts"] >= 1
        restarted = next(
            d for d in stats["shard_detail"] if d["shard"] == victim_shard
        )
        assert restarted["pid"] != victim_pid


class TestPersistenceLifecycle:
    """The drain → snapshot → restart → warm-hit cycle, plus refusals."""

    def test_drain_snapshot_restart_serves_warm_hit(self, tmp_path):
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)
        config = ServingConfig(port=0, shards=2, cache_dir=cache_dir)

        with AsyncPlanServer(config) as first:
            with ServerClient(port=first.port) as c:
                cold = c.optimize(SQL)
                assert cold["cache_hit"] is False
                explain_before = c.explain(SQL)["explain"]
            assert first.drain() is True
        files = sorted(os.listdir(cache_dir))
        assert files == ["shard-000-of-002.plancache", "shard-001-of-002.plancache"]

        with AsyncPlanServer(config) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] >= 1
                assert stats["persistence"]["rejected"] == 0
                warm = c.optimize(SQL)
                # first request after restart: served from the snapshot,
                # not re-optimized
                assert warm["cache_hit"] is True
                assert c.explain(SQL)["explain"] == explain_before
            second.drain()

    def test_tampered_snapshot_is_rejected_on_boot(self, tmp_path):
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)
        config = ServingConfig(port=0, shards=1, cache_dir=cache_dir)

        with AsyncPlanServer(config) as first:
            with ServerClient(port=first.port) as c:
                c.optimize(SQL)
            first.drain()
        path = os.path.join(cache_dir, "shard-000-of-001.plancache")
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

        with AsyncPlanServer(config) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] == 0
                assert stats["persistence"]["rejected"] == 1
                body = c.optimize(SQL)  # cold start still serves
                assert body["cache_hit"] is False

    def test_resharded_snapshot_files_are_not_reused(self, tmp_path):
        """shard-i-of-N files must not warm-start an M-shard server: the
        fingerprint → shard mapping changed, so entries could land on a
        non-owning shard."""
        cache_dir = str(tmp_path / "shards")
        os.makedirs(cache_dir)

        with AsyncPlanServer(
            ServingConfig(port=0, shards=1, cache_dir=cache_dir)
        ) as first:
            with ServerClient(port=first.port) as c:
                c.optimize(SQL)
            first.drain()

        with AsyncPlanServer(
            ServingConfig(port=0, shards=2, cache_dir=cache_dir)
        ) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] == 0
                body = c.optimize(SQL)
                assert body["cache_hit"] is False
            second.drain()


# -- the relay: plan requests answered from the shard's reply callback ---------

# Structurally distinct statements (fingerprints are rename-stable, so
# shard spread needs different shapes, not different aliases).
CLEAN_CANDIDATES = [
    "SELECT count(*) AS cnt FROM region GROUP BY r_name",
    "SELECT count(*) AS cnt FROM customer, orders WHERE customer.c_custkey = orders.o_custkey",
    "SELECT count(*) AS cnt FROM part, partsupp WHERE part.p_partkey = partsupp.ps_partkey",
    "SELECT count(*) AS cnt FROM orders GROUP BY o_orderstatus",
    "SELECT count(*) AS cnt FROM supplier GROUP BY s_nationkey",
]
# ``chaos_hang`` sleeps REPRO_CHAOS_HANG_SECONDS before planning a miss,
# ``chaos_drop`` swallows the request frame (armed by REPRO_CHAOS only).
HANG_SQL = (
    "SELECT count(*) AS cnt FROM nation chaos_hang, region "
    "WHERE chaos_hang.n_regionkey = region.r_regionkey"
)
HANG_SQL_2 = (
    "SELECT count(*) AS cnt FROM customer chaos_hang, nation "
    "WHERE chaos_hang.c_nationkey = nation.n_nationkey"
)
DROP_SQL = (
    "SELECT count(*) AS cnt FROM supplier chaos_drop, nation "
    "WHERE chaos_drop.s_nationkey = nation.n_nationkey"
)


def http(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def post_optimize(sql):
    return http("POST", "/optimize", {"sql": sql, "include_plan": False})


def clean_sql_on(running, shard):
    """A clean statement the front routes to *shard*."""
    for sql in CLEAN_CANDIDATES:
        if running.service.route(sql) == shard:
            return sql
    pytest.skip(f"no candidate statement lands on shard {shard}")


def wait_for(predicate, what, budget=30.0):
    deadline = time.monotonic() + budget
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


@pytest.fixture()
def chaos_armed(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "1")  # worker processes inherit it


class TestGracefulDrain:
    """A drain refuses new work and lets in-flight requests finish —
    their replies written and metered — or gives up after its grace."""

    @staticmethod
    def hanging_server(monkeypatch, hang_seconds, **settings):
        """One shard whose ``chaos_hang`` misses take *hang_seconds*."""
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", str(hang_seconds))
        return AsyncPlanServer(ServingConfig(port=0, shards=1, **settings)).start()

    @staticmethod
    def request_in_background(running, results):
        def send():
            try:
                with ServerClient(port=running.port) as c:
                    results["body"] = c.optimize(HANG_SQL, include_plan=False)
            except Exception as error:  # noqa: BLE001 - reported by the test
                results["error"] = error

        thread = threading.Thread(target=send, daemon=True)
        thread.start()
        wait_for(lambda: running.service.inflight == 1, "the request to be admitted")
        return thread

    def test_drain_finishes_inflight_work_and_refuses_new_work(self, monkeypatch):
        running = self.hanging_server(monkeypatch, 1.5)
        service, results, drained = running.service, {}, []
        try:
            request = self.request_in_background(running, results)
            drainer = threading.Thread(target=lambda: drained.append(running.drain(grace=30.0)))
            drainer.start()
            wait_for(lambda: service.draining, "the drain to begin")
            with ServerClient(port=running.port) as c:
                health = c.healthz()
                assert (health["_status"], health["status"]) == (503, "draining")
                with pytest.raises(ServerError) as excinfo:
                    c.optimize(SQL)
                assert (excinfo.value.status, excinfo.value.code) == (503, "draining")
            assert results == {}  # still planning
            request.join(timeout=30.0)
            drainer.join(timeout=60.0)
        finally:
            running.close()
        assert drained == [True]
        assert results["body"]["cost"] > 0
        # The in-flight exchange was written and metered before the drain returned.
        counted = service.metrics.snapshot()["requests"]["POST /optimize"]
        assert (counted["count"], counted["errors_5xx"]) == (2, 1)

    def test_drain_gives_up_after_its_grace(self, monkeypatch):
        running = self.hanging_server(monkeypatch, 3.0)
        try:
            request = self.request_in_background(running, {})
            assert running.drain(grace=0.2) is False
            request.join(timeout=30.0)
        finally:
            running.close()


class TestRelayOrderAndRelease:
    HANG_SECONDS = 1.0

    @pytest.fixture(scope="class")
    def slow_server(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CHAOS", "1")
            patch.setenv("REPRO_CHAOS_HANG_SECONDS", str(self.HANG_SECONDS))
            with AsyncPlanServer(ServingConfig(port=0, shards=2, cache_capacity=64)) as running:
                yield running

    def test_pipelined_replies_keep_request_order_when_shards_answer_out_of_order(
        self, slow_server
    ):
        """A slow miss on one shard, then hits on the other and a
        ``GET /stats``: the fast shard's replies wait, settled, behind
        the slow one at the head of the connection's line."""
        slow_shard = slow_server.service.route(HANG_SQL)
        fast = clean_sql_on(slow_server, 1 - slow_shard)
        with ServerClient(port=slow_server.port) as c:
            c.optimize(fast)
        burst = (
            post_optimize(HANG_SQL) + post_optimize(fast) + post_optimize(fast)
            + http("GET", "/stats") + post_optimize(fast)
        )
        started = time.monotonic()
        with socket.create_connection((slow_server.host, slow_server.port), 30) as sock:
            sock.sendall(burst)
            sock.settimeout(0.25)
            with pytest.raises(socket.timeout):  # nothing overtakes the head of the line
                sock.recv(1)
            sock.settimeout(30)
            replies = read_replies(sock, 5)
        assert time.monotonic() - started >= self.HANG_SECONDS
        assert [status for status, _payload in replies] == [200] * 5
        slow, hit_1, hit_2, stats, hit_3 = (payload for _status, payload in replies)
        assert (slow["shard"], slow["cache_hit"]) == (slow_shard, False)
        for reply in (hit_1, hit_2, hit_3):
            assert (reply["shard"], reply["cache_hit"]) == (1 - slow_shard, True)
        assert stats["mode"] == "async" and len(stats["shard_detail"]) == 2
        # ... although the fast shard answered first: its exchanges were
        # settled (and counted) long before the slow one.
        window = slow_server.service.metrics.snapshot()["requests"]["POST /optimize"]
        assert window["p50_ms"] < self.HANG_SECONDS * 500 < window["p99_ms"]

    def test_a_disconnect_holds_the_admission_slot_until_the_shard_answers(
        self, slow_server, monkeypatch
    ):
        """The relay cannot cancel what a shard is working on: a client
        that goes away leaves its request in flight — admitted — until
        the shard's reply settles it.  (A coroutine per request used to
        release the slot at the disconnect, while the shard was still
        busy with it.)  The reply is counted, and written nowhere."""
        from asyncio import selector_events

        written_closed = []
        write = selector_events._SelectorSocketTransport.write

        def spy(transport, data):
            if transport.is_closing():
                written_closed.append(bytes(data))
            return write(transport, data)

        monkeypatch.setattr(selector_events._SelectorSocketTransport, "write", spy)
        service = slow_server.service

        def counted():
            endpoint = service.metrics.snapshot()["requests"].get("POST /optimize")
            return endpoint["count"] if endpoint else 0

        before = counted()
        with socket.create_connection((slow_server.host, slow_server.port), 30) as sock:
            sock.sendall(post_optimize(HANG_SQL_2))
            wait_for(lambda: service.inflight == 1, "the request to be admitted")
        time.sleep(self.HANG_SECONDS / 3)  # the front has seen the disconnect by now
        assert service.inflight == 1 and counted() == before
        wait_for(lambda: service.inflight == 0, "the shard's reply to release the slot")
        assert counted() == before + 1
        assert written_closed == []
        with ServerClient(port=slow_server.port) as c:
            assert c.optimize(HANG_SQL_2, include_plan=False)["cache_hit"] is True


class TestRelaySupervision:
    def test_hard_timeout_answers_504_reaps_and_counts_the_restart(
        self, chaos_armed, fast_restarts, monkeypatch
    ):
        # Before Python 3.11 asyncio's TimeoutError is not the builtin: the
        # relay must hand out the class its consumers test for, by that name.
        monkeypatch.setattr(asyncio, "TimeoutError", type("Timeout310", (Exception,), {}))
        config = ServingConfig(
            port=0, shards=2, request_timeout_seconds=0.3,  # hard timeout 2.3 s
        )
        with AsyncPlanServer(config) as running:
            service = running.service
            wedged = service.route(DROP_SQL)
            same, other = clean_sql_on(running, wedged), clean_sql_on(running, 1 - wedged)
            with ServerClient(port=running.port) as c:
                c.optimize(same), c.optimize(other)
                burst = post_optimize(DROP_SQL) + post_optimize(other) + post_optimize(same)
                started = time.monotonic()
                with socket.create_connection((running.host, running.port), 30) as sock:
                    sock.sendall(burst)
                    replies = read_replies(sock, 3)
                assert time.monotonic() - started >= config.hard_timeout_seconds
                assert [status for status, _payload in replies] == [504, 200, 200]
                assert replies[0][1]["error"]["code"] == "timeout"
                # the shard swallowed one frame and answered the next before it was reaped
                assert [reply["shard"] for _status, reply in replies[1:]] == [1 - wedged, wedged]
                wait_for(
                    lambda: service.supervisor.shard_states()[wedged]["alive"]
                    and service.supervisor.shard_states()[wedged]["restarts"] == 1,
                    "reap + respawn after the hard timeout",
                )
                assert service.inflight == 0
                stats = c.stats()
                assert stats["restarts"] == 1
                assert stats["supervision"][1 - wedged]["restarts"] == 0
                assert stats["requests"]["POST /optimize"]["errors_5xx"] == 1
                assert c.optimize(same, include_plan=False)["shard"] == wedged

    def test_a_corrupt_reply_stream_reaps_that_shard_and_fails_only_its_requests(
        self, chaos_armed, fast_restarts
    ):
        from repro.asyncserver import frames

        config = ServingConfig(port=0, shards=2)
        with AsyncPlanServer(config) as running:
            service = running.service
            broken = service.route(HANG_SQL)
            worker = service.supervisor.worker(broken)
            other = clean_sql_on(running, 1 - broken)
            with ServerClient(port=running.port) as c:
                c.optimize(other)
                with socket.create_connection((running.host, running.port), 30) as sock:
                    sock.sendall(post_optimize(HANG_SQL))  # an hour's hang: pending on `broken`
                    wait_for(lambda: len(worker.pending) == 1, "the frame to be sent")
                    oversize = frames.HEADER.pack(1, 200, frames.MAX_FRAME_BYTES + 1)
                    running._loop.call_soon_threadsafe(
                        worker._pipes.pipe_data_received, 1, oversize
                    )
                    ((status, payload),) = read_replies(sock, 1)
                assert (status, payload["error"]["code"]) == (500, "worker_pool_failure")
                assert c.optimize(other, include_plan=False)["cache_hit"] is True
                wait_for(
                    lambda: service.supervisor.shard_states()[broken]["alive"]
                    and service.supervisor.shard_states()[broken]["restarts"] == 1,
                    "the shard with the corrupt stream to be respawned",
                )
                assert service.supervisor.shard_states()[1 - broken]["restarts"] == 0
                assert service.inflight == 0 and not worker.pending
                assert c.optimize(clean_sql_on(running, broken), include_plan=False)["cost"] > 0
