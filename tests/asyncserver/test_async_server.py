"""End-to-end tests for what only the async serving tier owns.

Boots real servers (event-loop front + worker subprocesses) on
ephemeral ports and drives them with the ordinary
:class:`~repro.server.client.ServerClient`.  Covers shard routing, the
merged ``/stats`` detail, the front's admission bound under a pipelined
burst, crash restart, and the drain → snapshot → restart → warm-hit
cycle.  Endpoint round-trips and error codes are the
contract shared with the threaded tier —
``tests/serving/test_contract.py`` runs them against one and two shards.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.asyncserver import AsyncPlanServer, AsyncServerConfig
from repro.server.client import ServerClient, ServerError

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
    config = AsyncServerConfig(port=0, shards=2, cache_capacity=64)
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

    MAX_INFLIGHT = 4
    BURST = 24

    def test_burst_past_admission_gets_429_while_admitted_answer_200(self):
        config = AsyncServerConfig(
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
        config = AsyncServerConfig(port=0, shards=2, cache_dir=cache_dir)

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
        config = AsyncServerConfig(port=0, shards=1, cache_dir=cache_dir)

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
            AsyncServerConfig(port=0, shards=1, cache_dir=cache_dir)
        ) as first:
            with ServerClient(port=first.port) as c:
                c.optimize(SQL)
            first.drain()

        with AsyncPlanServer(
            AsyncServerConfig(port=0, shards=2, cache_dir=cache_dir)
        ) as second:
            with ServerClient(port=second.port) as c:
                stats = c.stats()
                assert stats["persistence"]["loaded"] == 0
                body = c.optimize(SQL)
                assert body["cache_hit"] is False
            second.drain()
