"""The threaded tier's own behaviour: backpressure, graceful drain, pool
dispatch, config validation.

Endpoint round-trips, error codes and the ``/stats`` shape are the shared
contract of both tiers — ``tests/serving/test_contract.py`` runs them
against this tier with ``workers=0`` and ``workers=1``.  The servers here
bind an ephemeral port with ``workers=0`` unless the pool is the point.
"""

import threading
import time

import pytest

from repro.server import (
    PlanServer,
    PlanService,
    RequestError,
    ServerClient,
    ServerConfig,
    ServerError,
)

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SQL_RENAMED = (
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name"
)


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, workers=0, cache_capacity=64, max_inflight=4)
    with PlanServer(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestTransportOwnedFields:
    """What only the threaded tier reports (the shared contract is in
    ``tests/serving/test_contract.py``)."""

    def test_healthz_and_stats_report_the_pool_size(self, client):
        assert client.healthz()["workers"] == 0
        assert client.stats()["workers"] == 0

    def test_unparseable_batch_items_count_as_failures(self, client):
        """This tier's long-standing accounting (the async front answers
        unparseable statements while routing; no shard ever counts them)."""
        before = client.stats()["plans"]["failures"]
        body = client.batch([SQL, "SELECT count(*) FROM nowhere GROUP BY x"])
        assert body["failed"] == 1 and body["items"][1]["stage"] == "parse"
        assert client.stats()["plans"]["failures"] == before + 1


class TestBackpressure:
    def test_429_when_admission_full(self, server, client):
        """Fill every admission slot, then observe the 429 rejection."""
        service = server.service
        holders = [service.admit() for _ in range(server.config.effective_max_inflight)]
        for holder in holders:
            holder.__enter__()
        try:
            with pytest.raises(ServerError) as excinfo:
                client.optimize(SQL)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
        finally:
            for holder in holders:
                holder.__exit__(None, None, None)
        # slots released: requests are admitted again
        assert client.optimize(SQL)["cost"] > 0

    def test_stats_counts_rejections(self, server, client):
        before = (
            client.stats()["requests"].get("POST /optimize", {}).get("rejected_429", 0)
        )
        service = server.service
        holders = [service.admit() for _ in range(server.config.effective_max_inflight)]
        for holder in holders:
            holder.__enter__()
        try:
            with pytest.raises(ServerError):
                client.optimize(SQL)
        finally:
            for holder in holders:
                holder.__exit__(None, None, None)
        after = client.stats()["requests"]["POST /optimize"]["rejected_429"]
        assert after == before + 1


class TestGracefulDrain:
    def test_drain_waits_for_inflight_then_rejects(self):
        """A drain must finish in-flight work, then refuse new requests."""
        config = ServerConfig(port=0, workers=0, cache_capacity=16)
        server = PlanServer(config).start()
        service = server.service
        release = threading.Event()
        finished = threading.Event()

        def slow_request():
            with service.admit():
                release.wait(timeout=10.0)
                finished.set()

        worker = threading.Thread(target=slow_request)
        worker.start()
        deadline = time.monotonic() + 5.0
        while service.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.inflight == 1

        drained = []
        drainer = threading.Thread(target=lambda: drained.append(server.drain(grace=10.0)))
        drainer.start()
        # draining: new work refused while the old request still runs
        deadline = time.monotonic() + 5.0
        while not service.draining and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.draining
        with pytest.raises(RequestError) as excinfo:
            with service.admit():
                pass
        assert excinfo.value.status == 503
        assert not finished.is_set()

        release.set()
        worker.join(timeout=10.0)
        drainer.join(timeout=10.0)
        assert drained == [True]  # in-flight request completed inside grace

    def test_drain_times_out_when_work_is_stuck(self):
        config = ServerConfig(port=0, workers=0)
        server = PlanServer(config).start()
        service = server.service
        release = threading.Event()

        def stuck_request():
            with service.admit():
                release.wait(timeout=10.0)

        worker = threading.Thread(target=stuck_request)
        worker.start()
        deadline = time.monotonic() + 5.0
        while service.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        try:
            assert server.drain(grace=0.1) is False
        finally:
            release.set()
            worker.join(timeout=10.0)

    def test_healthz_reports_draining(self):
        config = ServerConfig(port=0, workers=0)
        with PlanServer(config) as server:
            server.service.begin_drain()
            with ServerClient(port=server.port) as client:
                body = client.healthz()
                assert body["_status"] == 503
                assert body["status"] == "draining"


class TestServiceWithPool:
    """One service-level round trip through a real process pool."""

    def test_pool_dispatch_and_worker_error_mapping(self):
        config = ServerConfig(port=0, workers=2, cache_capacity=16)
        service = PlanService(config)
        try:
            body = service.optimize_body({"sql": SQL})
            assert body["cost"] > 0
            assert body["cache_hit"] is False
            again = service.optimize_body({"sql": SQL})
            assert again["cache_hit"] is True
        finally:
            service.close()

    def test_one_wave_plans_each_key_once_and_followers_share(self):
        service = PlanService(ServerConfig(port=0, workers=1, cache_capacity=16))
        try:
            body = service.batch_body({"queries": [SQL, SQL_RENAMED, SQL], "include_plans": True})
            stats = service.stats_body()
        finally:
            service.close()
        assert [item["cache_hit"] for item in body["items"]] == [False, True, True]
        assert "n2" in str(body["items"][1]["plan"]) and "n2" not in str(body["items"][2]["plan"])
        assert (stats["plans"]["cache_misses"], stats["cache"]["puts"]) == (1, 1.0)

    def test_a_failed_leader_fails_its_wave_and_is_counted_once(self, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyError("poisoned")

        monkeypatch.setattr("repro.service.batch.driver.optimize", boom)
        service = PlanService(ServerConfig(port=0, workers=0, cache_capacity=16))
        try:
            body = service.batch_body({"queries": [SQL, SQL_RENAMED, SQL]})
            stats = service.stats_body()
        finally:
            service.close()
        assert body["failed"] == 3
        assert {(item["stage"], item["error"]) for item in body["items"]} == {
            ("optimize", "KeyError: 'poisoned'")
        }
        assert stats["plans"]["failures"] == 1 and stats["cache"]["size"] == 0.0


class TestLockScope:
    """The core's lock covers cache and counter mutation only: a slow
    execution or revalidation must not stall other requests or /stats."""

    @staticmethod
    def blocked(service, name, outcome):
        """Replace ``name`` (dotted, below the core) with a call that
        parks until released; returns (entered, release)."""
        entered, release = threading.Event(), threading.Event()

        def parked(*args, limit=None):
            if limit == 0:  # /stats_update's own inline drain: nothing to do
                return dict.fromkeys(outcome, 0)
            entered.set()
            assert release.wait(timeout=30)
            return outcome

        *owners, attribute = name.split(".")
        target = service.core
        for owner in owners:
            target = getattr(target, owner)
        setattr(target, attribute, parked)
        return entered, release

    def test_execution_runs_outside_the_lock(self):
        service = PlanService(ServerConfig(port=0, workers=0, cache_capacity=16))
        service.core.check_execute = lambda body: ("columnar", None)
        reply = {"executor": "columnar", "row_count": 3, "execution_seconds": 0.25}
        entered, release = self.blocked(service, "run", reply)
        runner = threading.Thread(target=service.execute_body, args=({"sql": SQL},))
        runner.start()
        try:
            assert entered.wait(timeout=30)
            assert service.optimize_body({"sql": SQL})["cache_hit"] is True
            assert service.stats_body()["executions"]["count"] == 0
        finally:
            release.set()
            runner.join(timeout=30)
            service.close()
        executions = service.stats_body()["executions"]
        assert (executions["count"], executions["rows_returned"]) == (1, 3)

    def test_revalidation_runs_outside_the_lock(self):
        # Banded keys: a small drift keeps the key, so the stale entry is served.
        config = ServerConfig(port=0, workers=0, cache_capacity=16, snapshot_band_width=2.0)
        service = PlanService(config)
        counts = {"recosted": 1, "replanned": 0, "dropped": 0, "failed": 0}
        entered, release = self.blocked(service, "revalidator.drain", counts)
        try:
            service.optimize_body({"sql": SQL})
            update = service.stats_update_body({"table": "supplier", "cardinality_factor": 1.1})
            assert update["marked_stale"] == 1 and entered.wait(timeout=30)
            assert service.optimize_body({"sql": SQL})["cache_hit"] is True
            assert service.stats_body()["plans"]["stale_served"] == 1
        finally:
            release.set()
            service.close()
        assert service.stats_body()["plans"]["recosted"] >= 1


class TestServerConfigValidation:
    def test_bad_port(self):
        with pytest.raises(ValueError, match="port"):
            ServerConfig(port=70000)

    def test_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ServerConfig(workers=-1)

    def test_bad_strategy_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ServerConfig(strategy="nonsense")

    def test_effective_defaults(self):
        config = ServerConfig(workers=3)
        assert config.effective_workers == 3
        assert config.effective_max_inflight == 14
