"""Async-tier ``POST /stats_update``: drift broadcast across shards.

Every worker shard owns a private catalog, so a drift must reach all of
them atomically-enough: the front broadcasts one STATS_UPDATE frame per
shard and merges the replies (any shard failing fails the request —
half-applied drift would leave shards pricing the same tables
differently).  The endpoint deliberately takes no admission slot: the
control plane must land even when the data plane is saturated with 429s.
What a drift does to plans, and every 4xx, is the shared contract:
``tests/serving/test_contract.py``.
"""

import pytest

from repro.asyncserver import AsyncPlanServer
from repro.server.client import ServerClient
from repro.service.config import ServingConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)


@pytest.fixture(scope="module")
def server():
    config = ServingConfig(
        port=0, shards=2, cache_capacity=64, snapshot_band_width=1.0
    )
    with AsyncPlanServer(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestBroadcast:
    def test_drift_reaches_every_shard_and_merges(self, client):
        before = client.optimize(SQL, include_plan=False)
        body = client._request(
            "POST", "/stats_update",
            {"table": "supplier", "cardinality_factor": 4.0},
        )
        assert body["_status"] == 200
        assert body["shards"] == 2
        assert body["relation"] == "supplier"
        assert body["cardinality_ratio"] == 4.0
        assert body["marked_stale"] >= 1
        assert isinstance(body["revalidated_inline"], dict)

        # The shard revalidated inline (or will in an idle gap): the
        # entry must end up re-priced under the 4x statistics.
        after = client.optimize(SQL, include_plan=False)
        assert after["cost"] > before["cost"]
