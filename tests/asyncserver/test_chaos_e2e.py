"""Chaos tests for the async tier: crash loops, hangs, poisoned batches,
and corrupt snapshots, injected via :mod:`repro.chaos` markers.

Each test boots a real server (event-loop front + worker subprocesses)
with fault injection armed (``REPRO_CHAOS=1`` — workers inherit the
environment) and asserts the robustness contract: faults stay scoped to
the shard (and request) that triggered them, supervision restarts or
isolates the broken shard, and clean traffic keeps flowing.
"""

import os
import threading
import time

import pytest

from repro import chaos
from repro.asyncserver import AsyncPlanServer, supervisor
from repro.server.client import ServerClient, ServerError
from repro.service.config import ServingConfig

CLEAN_SQL = "SELECT count(*) AS cnt FROM region GROUP BY r_name"
# Structurally distinct statements: fingerprints are rename-stable, so
# shard spread requires different shapes, not different aliases.
CLEAN_CANDIDATES = [
    CLEAN_SQL,
    "SELECT count(*) AS cnt FROM nation, supplier "
    "WHERE nation.n_nationkey = supplier.s_nationkey",
    "SELECT count(*) AS cnt FROM customer, orders "
    "WHERE customer.c_custkey = orders.o_custkey",
    "SELECT count(*) AS cnt FROM part, partsupp "
    "WHERE part.p_partkey = partsupp.ps_partkey",
    "SELECT count(*) AS cnt FROM orders GROUP BY o_orderstatus",
    "SELECT count(*) AS cnt FROM supplier GROUP BY s_nationkey",
]
CRASH_SQL = (
    "SELECT count(*) AS cnt FROM nation chaos_crash, supplier "
    "WHERE chaos_crash.n_nationkey = supplier.s_nationkey"
)
HANG_SQL = (
    "SELECT count(*) AS cnt FROM nation chaos_hang, region "
    "WHERE chaos_hang.n_regionkey = region.r_regionkey"
)
DROP_SQL = (
    "SELECT count(*) AS cnt FROM customer chaos_drop, nation "
    "WHERE chaos_drop.c_nationkey = nation.n_nationkey"
)


def _wait_for(predicate, budget=30.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def _shard_state(server, shard):
    return server.service.supervisor.shard_states()[shard]


def _other_shard_sql(server, shard):
    """A clean statement the front routes to a shard other than *shard*."""
    for sql in CLEAN_CANDIDATES:
        if server.service.route(sql) != shard:
            return sql
    pytest.skip("all candidate statements landed on the faulty shard")


class TestChaosHelpers:
    def test_disarmed_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert not chaos.enabled()
        assert chaos.planning_delay(["chaos_slow_500"]) is None
        assert not chaos.should_drop(b"chaos_drop")

    def test_falsy_values_disarm(self, monkeypatch):
        for value in ("0", "false", "no", ""):
            monkeypatch.setenv("REPRO_CHAOS", value)
            assert not chaos.enabled()

    def test_planning_delay_parses_millis(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        assert chaos.planning_delay(["nation", "chaos_slow_250"]) == 0.25
        assert chaos.planning_delay(["chaos_slow"]) == 0.1
        assert chaos.planning_delay(["nation", "region"]) is None

    def test_should_drop_needs_marker(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        assert chaos.should_drop(b'{"sql": "... chaos_drop ..."}')
        assert not chaos.should_drop(b'{"sql": "SELECT 1"}')

    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_damage_snapshot_modes(self, monkeypatch, tmp_path, mode):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_SNAPSHOT", mode)
        path = tmp_path / "snap.bin"
        pristine = bytes(range(256)) * 8
        path.write_bytes(pristine)
        assert chaos.damage_snapshot(str(path)) == mode
        damaged = path.read_bytes()
        assert damaged != pristine
        if mode == "truncate":
            assert len(damaged) == len(pristine) // 2

    def test_damage_snapshot_needs_both_gates(self, monkeypatch, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"x" * 64)
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        monkeypatch.setenv("REPRO_CHAOS_SNAPSHOT", "truncate")
        assert chaos.damage_snapshot(str(path)) is None
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.delenv("REPRO_CHAOS_SNAPSHOT", raising=False)
        assert chaos.damage_snapshot(str(path)) is None
        assert path.read_bytes() == b"x" * 64


@pytest.fixture()
def chaos_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "1")


class TestCrashBreaker:
    def test_crash_loop_opens_breaker_while_other_shard_serves(
        self, chaos_env, fast_restarts, monkeypatch
    ):
        monkeypatch.setattr(supervisor, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(supervisor, "BREAKER_COOLDOWN_SECONDS", 120.0)
        config = ServingConfig(port=0, shards=2)
        with AsyncPlanServer(config) as server:
            crash_shard = server.service.route(CRASH_SQL)
            clean_sql = _other_shard_sql(server, crash_shard)
            with ServerClient(port=server.port, timeout=60.0) as client:
                # Crash 1: the request dies with the worker (500), the
                # supervisor respawns the shard after a short backoff.
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(CRASH_SQL)
                assert exc_info.value.status == 500
                _wait_for(
                    lambda: _shard_state(server, crash_shard)["alive"],
                    what="shard respawn after first crash",
                )
                # Crash 2 reaches the breaker threshold: the shard is
                # isolated instead of entering a restart hot-loop.
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(CRASH_SQL)
                assert exc_info.value.status == 500
                _wait_for(
                    lambda: _shard_state(server, crash_shard)["breaker_open"],
                    what="circuit breaker opening",
                )
                # The broken shard's fingerprints now answer 503 without
                # touching a worker...
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(CRASH_SQL)
                assert exc_info.value.status == 503
                assert exc_info.value.code == "shard_unavailable"
                # ...while the healthy shard keeps serving.
                body = client.optimize(clean_sql)
                assert body["degraded"] is False
                stats = client.stats()
                state = stats["supervision"][crash_shard]
                assert state["breaker_open"] is True
                assert state["restarts"] >= 2
                assert stats["supervision"][1 - crash_shard]["breaker_open"] is False
            server.close()


class TestHangReap:
    def test_hung_worker_times_out_and_is_reaped(self, chaos_env, fast_restarts):
        config = ServingConfig(
            port=0,
            shards=1,
            request_timeout_seconds=0.5,  # hard timeout = 2.5s
        )
        with AsyncPlanServer(config) as server:
            with ServerClient(port=server.port, timeout=60.0) as client:
                started = time.perf_counter()
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(HANG_SQL)
                elapsed = time.perf_counter() - started
                assert exc_info.value.status == 504
                # The front answered at the hard timeout, not after the
                # injected hour-long hang.
                assert elapsed < 30.0
                # The wedged worker was killed and respawned...
                _wait_for(
                    lambda: _shard_state(server, 0)["alive"]
                    and _shard_state(server, 0)["restarts"] >= 1,
                    what="wedged worker reap + respawn",
                )
                # ...and the fresh worker serves clean traffic.
                body = client.optimize(CLEAN_SQL)
                assert body["degraded"] is False
            server.close()

    def test_dropped_frame_times_out_and_is_reaped(self, chaos_env, fast_restarts):
        """A swallowed response frame is indistinguishable from a hang
        at the front: hard timeout, 504, reap, restart."""
        config = ServingConfig(
            port=0,
            shards=1,
            request_timeout_seconds=0.5,
        )
        with AsyncPlanServer(config) as server:
            with ServerClient(port=server.port, timeout=60.0) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(DROP_SQL)
                assert exc_info.value.status == 504
                _wait_for(
                    lambda: _shard_state(server, 0)["alive"]
                    and _shard_state(server, 0)["restarts"] >= 1,
                    what="reap + respawn after dropped frame",
                )
                assert client.optimize(CLEAN_SQL)["degraded"] is False
            server.close()


class TestBroadcastBehindAHang:
    """``/stats`` and ``/stats_update`` reach every shard, and a shard
    answers frames in order: a broadcast queued behind a request that
    runs past its budget (0.2 s here; hard timeout 2.2 s) waits for the
    shard, not just for the budget."""

    @pytest.fixture()
    def hanging(self, chaos_env, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "0.6")
        config = ServingConfig(port=0, shards=1, request_timeout_seconds=0.2)
        with AsyncPlanServer(config) as server:
            replies = []

            def hang():
                with ServerClient(port=server.port, timeout=60.0) as client:
                    replies.append(client.optimize(HANG_SQL, include_plan=False))

            thread = threading.Thread(target=hang)
            thread.start()
            _wait_for(lambda: server.service.inflight == 1, what="the hang in flight")
            yield server
            thread.join(30.0)
            assert replies and replies[0]["degraded"] is True  # planned past its budget
            server.close()

    def test_stats_keeps_every_shards_block(self, hanging):
        with ServerClient(port=hanging.port, timeout=60.0) as client:
            stats = client.stats()
        assert len(stats["shard_detail"]) == 1
        assert "degraded" in stats["plans"] and "served" in stats["plans"]

    def test_stats_update_answers_and_applies_the_drift_once(self, hanging):
        with ServerClient(port=hanging.port, timeout=60.0, retries=2) as client:
            body = client._request(
                "POST", "/stats_update", {"table": "nation", "cardinality_factor": 2}
            )
            assert body["_status"] == 200 and body["shards"] == 1
            assert (body["old_cardinality"], body["new_cardinality"]) == (25.0, 50.0)
            again = client._request(
                "POST", "/stats_update", {"table": "nation", "cardinality_factor": 1}
            )
        assert again["old_cardinality"] == 50.0  # not 100: nothing was sent twice


class TestPoisonedBatch:
    def test_crash_in_batch_does_not_poison_other_shards(self, chaos_env, fast_restarts):
        config = ServingConfig(
            port=0,
            shards=2,
        )
        with AsyncPlanServer(config) as server:
            crash_shard = server.service.route(CRASH_SQL)
            clean_sql = _other_shard_sql(server, crash_shard)
            with ServerClient(port=server.port, timeout=60.0) as client:
                report = client.batch([CRASH_SQL, clean_sql])
                by_index = {item["index"]: item for item in report["items"]}
                # The poisoned item failed with the crashed shard...
                assert "error" in by_index[0]
                assert by_index[0]["stage"] == "optimize"
                # ...but the other shard's item planned normally.
                assert "error" not in by_index[1]
                assert by_index[1]["cost"] > 0
                assert report["failed"] == 1
                assert report["succeeded"] == 1
                # The crashed shard comes back and serves again.
                _wait_for(
                    lambda: _shard_state(server, crash_shard)["alive"],
                    what="shard respawn after batch crash",
                )
                follow_up = _other_shard_sql(server, 1 - crash_shard)
                assert client.optimize(follow_up)["degraded"] is False
            server.close()


class TestSnapshotChaos:
    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_damaged_snapshot_is_refused_and_server_cold_starts(
        self, chaos_env, monkeypatch, tmp_path, mode
    ):
        monkeypatch.setenv("REPRO_CHAOS_SNAPSHOT", mode)
        cache_dir = str(tmp_path / "plancache")
        config = ServingConfig(port=0, shards=1, cache_dir=cache_dir)
        # First life: populate the shard cache, then drain — the worker
        # snapshots and the armed chaos hook damages the file on disk.
        with AsyncPlanServer(config) as first:
            with ServerClient(port=first.port, timeout=60.0) as client:
                client.optimize(CLEAN_SQL)
            first.drain()
        snapshot_files = os.listdir(cache_dir)
        assert len(snapshot_files) == 1
        # Second life: the warm start must refuse the damaged snapshot
        # (checksum validation) and cold-start rather than serve from it.
        with AsyncPlanServer(config) as second:
            with ServerClient(port=second.port, timeout=60.0) as client:
                stats = client.stats()
                assert stats["persistence"]["rejected"] >= 1
                assert stats["persistence"]["loaded"] == 0
                body = client.optimize(CLEAN_SQL)
                assert body["cache_hit"] is False  # nothing warm-started
            second.close()
