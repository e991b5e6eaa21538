"""Dataset settings of the threaded tier's config.

``POST /execute`` itself — executor choice, limits, error codes, the
``executions`` stats block, 409 without a dataset — is part of the shared
contract: ``tests/serving/test_contract.py``.
"""

import pytest

from repro.server import PlanService, ServerConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)


class TestDatasetConfig:
    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="dataset spec"):
            ServerConfig(dataset="nonsense-spec")

    def test_bad_executor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="default_executor"):
            ServerConfig(default_executor="gpu")

    def test_out_of_range_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            ServerConfig(dataset="tpch-sf2")

    def test_interpreter_default_executor_is_honoured(self):
        service = PlanService(
            ServerConfig(
                port=0, workers=0, dataset="tpch-sf0.001",
                default_executor="interpreter",
            )
        )
        try:
            body = service.execute_body({"sql": SQL})
            assert body["executor"] == "interpreter"
        finally:
            service.close()
