"""The front's share of a relayed request: one route-memo lookup on the
body's bytes and no timer of its own.

Each shard's :class:`~repro.asyncserver.supervisor.WorkerHandle` keeps
the hard-timeout deadline of every frame it holds and arms one loop
timer, at the earliest; the route memo remembers a relayed body's shard
under its bytes and a ``/batch`` statement's under its text.  The timer
tests drive a handle in-process against stand-in pipes where the timing
is the point, and a real server where the relay is.
"""

import asyncio
import http.client
import json
import socket
import time
import types

import pytest

from repro.asyncserver import AsyncPlanServer, app, frames
from repro.asyncserver.supervisor import WorkerCrashed, WorkerHandle, WorkerSupervisor
from repro.server.client import ServerClient, ServerError
from repro.service.config import ServingConfig

# Structurally distinct statements: fingerprints are rename-stable, so
# spreading over shards takes different shapes, not different aliases.
CANDIDATES = [
    "SELECT count(*) AS cnt FROM region GROUP BY r_name",
    "SELECT count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey",
    "SELECT count(*) AS cnt FROM customer, orders "
    "WHERE customer.c_custkey = orders.o_custkey",
    "SELECT count(*) AS cnt FROM part, partsupp "
    "WHERE part.p_partkey = partsupp.ps_partkey",
    "SELECT count(*) AS cnt FROM orders GROUP BY o_orderstatus",
    "SELECT count(*) AS cnt FROM supplier GROUP BY s_nationkey",
]
DROP_SQL = (
    "SELECT count(*) AS cnt FROM part chaos_drop, partsupp "
    "WHERE chaos_drop.p_partkey = partsupp.ps_partkey"
)
CRASH_SQL = (
    "SELECT count(*) AS cnt FROM orders chaos_crash, lineitem "
    "WHERE chaos_crash.o_orderkey = lineitem.l_orderkey"
)


def on_loop(running, read):
    """``read()`` on *running*'s event-loop thread, which owns the front's state."""

    async def call():
        return read()

    return asyncio.run_coroutine_threadsafe(call(), running._loop).result(timeout=30.0)


def wait_for(predicate, what, budget=30.0):
    deadline = time.monotonic() + budget
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def routed(running, sql):
    """The shard the front routes *sql* to, asked on the loop's thread."""
    return on_loop(running, lambda: running.service.route(sql))


def sql_on(running, shard):
    """A statement the front routes to *shard*."""
    for sql in CANDIDATES:
        if routed(running, sql) == shard:
            return sql
    pytest.skip(f"no candidate statement lands on shard {shard}")


def post(running, path, body: bytes):
    """POST *body* as it is — the bytes are the route memo's key."""
    connection = http.client.HTTPConnection(running.host, running.port, timeout=30.0)
    try:
        connection.request("POST", path, body=body)
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()


def post_bytes(body: bytes) -> bytes:
    return b"POST /optimize HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


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


def route_cache(running):
    return on_loop(running, lambda: dict(
        size=len(running.service._routes),
        hits=running.service._route_hits,
        misses=running.service._route_misses,
    ))


# -- one timer per shard -------------------------------------------------------
class _StandInPipes:
    """What a handle needs of a live worker's pipes: a stdin that takes
    frames and a process that has not exited.  It never answers."""

    booted = False  # its exit starts no restart

    def __init__(self):
        self.written = bytearray()
        self.stdin = types.SimpleNamespace(write=self.written.extend, is_closing=lambda: False)
        self.transport = types.SimpleNamespace(get_returncode=lambda: None, kill=lambda: None)


def in_process_handle() -> WorkerHandle:
    handle = WorkerSupervisor(ServingConfig(shards=1)).worker(0)
    handle._pipes = _StandInPipes()
    return handle


class TestOneTimerPerShard:
    def test_an_earlier_deadline_submitted_later_expires_at_its_own(self):
        """``drain`` asks with its own timeout, shorter than the hard one:
        the armed timer must move up for it."""
        handle = in_process_handle()

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            outcomes = {"long": [], "short": []}
            handle.submit(frames.OPTIMIZE, b"{}", 30.0, outcomes["long"].append)
            handle.submit(frames.EXIT, b"{}", 0.05, outcomes["short"].append)
            while not outcomes["short"] and loop.time() - started < 2.0:
                await asyncio.sleep(0.01)
            expired_after = loop.time() - started
            handle.worker_gone(handle._pipes)
            return outcomes, expired_after

        outcomes, expired_after = asyncio.run(scenario())
        assert len(outcomes["short"]) == 1
        assert isinstance(outcomes["short"][0], asyncio.TimeoutError)
        assert expired_after < 1.0
        assert [type(outcome) for outcome in outcomes["long"]] == [WorkerCrashed]

    def test_a_crash_fails_every_pending_request_once(self):
        handle = in_process_handle()
        outcomes = {timeout: [] for timeout in (0.05, 0.1, 30.0)}

        async def scenario():
            for timeout, seen in outcomes.items():
                handle.submit(frames.OPTIMIZE, b"{}", timeout, seen.append)
            await asyncio.sleep(0)  # the frames are written
            handle.worker_gone(handle._pipes)
            assert handle._timer is None  # nothing left to time
            await asyncio.sleep(0.3)  # past two of the deadlines

        asyncio.run(scenario())
        for seen in outcomes.values():
            assert [type(outcome) for outcome in seen] == [WorkerCrashed]
        assert handle.pending == {} and handle._timer is None

    def test_a_dropped_frame_ends_in_the_hard_timeout_reply_and_a_reap(
        self, monkeypatch, fast_restarts
    ):
        """The timer armed for an answered request fires with nothing due
        and re-arms for the dropped one, which still ends at its own hard
        timeout: 504, the worker killed and restarted."""
        monkeypatch.setenv("REPRO_CHAOS", "1")  # worker processes inherit it
        config = ServingConfig(port=0, shards=1, request_timeout_seconds=0.3)  # hard 2.3 s
        with AsyncPlanServer(config) as running:
            states = running.service.supervisor.shard_states
            with ServerClient(port=running.port, timeout=15.0) as client:
                client.optimize(CANDIDATES[0], include_plan=False)  # arms the timer
                time.sleep(1.0)
                started = time.monotonic()
                with pytest.raises(ServerError) as excinfo:
                    client.optimize(DROP_SQL, include_plan=False)
                elapsed = time.monotonic() - started
                assert excinfo.value.status == 504
                assert excinfo.value.code == "timeout"
                assert config.hard_timeout_seconds <= elapsed < config.hard_timeout_seconds + 1.0
                wait_for(
                    lambda: states()[0]["alive"] and states()[0]["restarts"] == 1,
                    "reap + respawn after the dropped frame",
                )
                assert client.optimize(CANDIDATES[0], include_plan=False)["cache_hit"] is False
            assert running.service.inflight == 0

    def test_a_thousand_relays_leave_nothing_pending_and_one_timer_per_shard(self):
        config = ServingConfig(port=0, shards=2)
        with AsyncPlanServer(config) as running:
            loop = running._loop
            armed = []  # the shard of every timer armed for a handle

            def count_timers():
                for name in ("call_at", "call_later"):

                    def counting(when, callback, *args, _original=getattr(loop, name), **kwargs):
                        owner = getattr(callback, "__self__", None)
                        if isinstance(owner, WorkerHandle):
                            armed.append(owner.shard)
                        return _original(when, callback, *args, **kwargs)

                    setattr(loop, name, counting)

            on_loop(running, count_timers)
            statements = [sql_on(running, 0), sql_on(running, 1)]
            with ServerClient(port=running.port) as client:
                shards = [
                    client.optimize(statements[index % 2], include_plan=False)["shard"]
                    for index in range(1000)
                ]
            assert shards == [0, 1] * 500
            handles = running.service.supervisor.workers
            assert on_loop(running, lambda: [len(handle.pending) for handle in handles]) == [0, 0]
            assert sorted(armed) == [0, 1]


class TestCrashOnTheRelay:
    def test_a_crash_settles_every_relayed_request_once(self, monkeypatch, fast_restarts):
        """Two frames queued on a shard whose worker dies on the first:
        each exchange is answered 500 once, released once, counted once."""
        monkeypatch.setenv("REPRO_CHAOS", "1")
        with AsyncPlanServer(ServingConfig(port=0, shards=1)) as running:
            bodies = [json.dumps({"sql": sql}).encode() for sql in (CRASH_SQL, CANDIDATES[1])]
            with socket.create_connection((running.host, running.port), 30) as sock:
                sock.sendall(b"".join(map(post_bytes, bodies)))
                replies = read_replies(sock, 2)
            assert [(status, reply["error"]["code"]) for status, reply in replies] == [
                (500, "worker_pool_failure")
            ] * 2
            assert running.service.inflight == 0
            requests = on_loop(running, running.service.metrics.snapshot)["requests"]
            assert requests["POST /optimize"]["count"] == 2
            assert requests["POST /optimize"]["errors_5xx"] == 2


# -- the route memo ------------------------------------------------------------
@pytest.fixture(scope="module")
def two_shards():
    with AsyncPlanServer(ServingConfig(port=0, shards=2)) as running:
        yield running


class TestRouteMemo:
    def test_a_repeated_body_is_routed_without_decoding_or_parsing(
        self, two_shards, monkeypatch
    ):
        calls = []
        for name in ("parse_body", "parse_sql"):

            def counted(*args, _name=name, _original=getattr(app, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(app, name, counted)
        body = json.dumps({"sql": CANDIDATES[2], "include_plan": False}).encode()
        before = route_cache(two_shards)
        first = post(two_shards, "/optimize", body)
        assert calls == ["parse_body", "parse_sql"]
        second = post(two_shards, "/optimize", body)
        assert calls == ["parse_body", "parse_sql"]
        assert first[0] == second[0] == 200 and first[1]["shard"] == second[1]["shard"]
        after = route_cache(two_shards)
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_bodies_that_share_a_fingerprint_reach_the_same_shard(self, two_shards):
        sql = CANDIDATES[3]
        renamed = (
            "SELECT count(*) AS cnt FROM part p2 "
            "JOIN partsupp ps2 ON p2.p_partkey = ps2.ps_partkey"
        )
        bodies = [
            json.dumps({"sql": sql}).encode(),
            json.dumps({"sql": sql, "include_plan": False}).encode(),
            json.dumps({"include_plan": False, "sql": sql}, indent=1).encode(),
            json.dumps({"sql": renamed}).encode(),
        ]
        shards = set()
        for body in bodies:
            status, reply = post(two_shards, "/optimize", body)
            assert status == 200
            shards.add(reply["shard"])
        assert shards == {routed(two_shards, sql)} == {routed(two_shards, renamed)}

    @pytest.mark.parametrize(
        "body, code",
        [
            (b'{"sql": "SELECT count(*) FROM region"', "bad_json"),
            (b"[1, 2]", "bad_json"),
            (json.dumps({"sql": "SELECT FROM nowhere"}).encode(), "parse_error"),
            (json.dumps({"sql": 7}).encode(), "bad_request"),
        ],
        ids=["truncated", "not-an-object", "unparsable", "not-a-string"],
    )
    def test_a_bad_body_is_answered_400_by_the_front_and_never_remembered(
        self, two_shards, monkeypatch, body, code
    ):
        submitted = []

        def submit(handle, *args, _submit=WorkerHandle.submit):
            submitted.append(handle.shard)
            _submit(handle, *args)

        monkeypatch.setattr(WorkerHandle, "submit", submit)
        before = route_cache(two_shards)
        for _attempt in range(2):
            status, reply = post(two_shards, "/optimize", body)
            assert (status, reply["error"]["code"]) == (400, code)
        assert submitted == []
        assert route_cache(two_shards) == before

    def test_batch_items_share_the_memo_and_its_counters(self, two_shards):
        sql, spelled_again = CANDIDATES[4], CANDIDATES[5]
        before = route_cache(two_shards)
        with ServerClient(port=two_shards.port) as client:
            report = client.batch([sql, spelled_again, sql])
            assert [item["index"] for item in report["items"]] == [0, 1, 2]
            after_batch = route_cache(two_shards)
            assert after_batch["misses"] - before["misses"] == 2
            assert after_batch["hits"] - before["hits"] == 1
            # The relayed body of the same statement is a key of its own...
            shard = client.optimize(sql, include_plan=False)["shard"]
            after_relay = route_cache(two_shards)
            assert after_relay["misses"] - after_batch["misses"] == 1
            assert after_relay["size"] - after_batch["size"] == 1
            # ...and routes where the statement's text does.
            assert shard == routed(two_shards, sql)
            stats = client.stats()["route_cache"]
        assert stats["capacity"] == app.ROUTE_CACHE_CAPACITY
        assert stats["hits"] >= after_relay["hits"] + 1
        assert stats["misses"] == after_relay["misses"]
