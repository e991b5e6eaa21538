"""``POST /execute`` on the async tier: what shard routing adds.

One worker shard provisions ``tpch-sf0.001`` at boot; the front routes
``/execute`` by the SQL's structural fingerprint exactly like
``/optimize``, so the executing shard is the one whose cache shard owns
the plan.  The endpoint's contract (executors, limits, error codes, 409
without a dataset) is ``tests/serving/test_contract.py``'s.
"""

import pytest

from repro.asyncserver import AsyncPlanServer
from repro.server import ServerClient
from repro.service.config import ServingConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)


@pytest.fixture(scope="module")
def server():
    config = ServingConfig(
        port=0, shards=1, cache_capacity=64, dataset="tpch-sf0.001"
    )
    with AsyncPlanServer(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestAsyncExecute:
    def test_round_trip_reports_shard(self, client):
        body = client.execute(SQL, limit=None)
        assert body["executor"] == "columnar"
        assert body["shard"] == 0
        assert body["row_count"] == len(body["rows"]) > 0

    def test_stats_merge_shard_executions(self, client):
        client.execute(SQL)
        stats = client.stats()
        executions = stats["executions"]
        assert executions["count"] >= 1
        assert executions["by_executor"].get("columnar", 0) >= 1
        assert executions["rows_returned"] >= 1
        # The per-shard detail carries each worker's own counters.
        assert stats["shard_detail"][0]["executions"]["count"] >= 1


class TestDatasetConfig:
    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="dataset spec"):
            ServingConfig(dataset="nonsense-spec")
