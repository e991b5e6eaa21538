"""A shard's ``/optimize`` reply is the bytes ``json.dumps`` gives of the
reply dict, with the plan tree spliced in as the plan's memoised text.

The shard encodes the small reply dict and splices
``PlanInfo.rendered_json`` where ``json.dumps`` would write the tree
(``service/core.py::optimize_reply_bytes``).  Each case below drives an
in-process :class:`ShardWorker` through its frame handler and holds the
bytes to two things: they are in ``json.dumps``' canonical form, and they
are exactly ``json.dumps`` of the dict the unspliced path sends for the
same plan — every field in the same order, the tree rendered afresh by
``plan_to_dict``, ``"shard"`` last — apart from the ``server_seconds``
value, which is a clock reading.
"""

import dataclasses
import json
import pickle
import time

import pytest

from repro.asyncserver import frames
from repro.asyncserver.worker import ShardWorker
from repro.optimizer import planinfo
from repro.optimizer.planinfo import PlanInfo
from repro.plans.render import plan_to_dict
from repro.service.cache import SERVED_SPELLINGS
from repro.service.config import ServingConfig
from repro.service.core import optimize_reply

SQL = (
    "SELECT ns.n_name, nc.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey "
    "FULL JOIN nation nc ON ns.n_nationkey = nc.n_nationkey "
    "JOIN customer c ON nc.n_nationkey = c.c_nationkey "
    "GROUP BY ns.n_name, nc.n_name"
)
#: the same statement with the same names: another text, the same naming
SAME_NAMES = SQL.replace(" JOIN ", "  JOIN ")
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
SHARD = 3


def respell(sql: str, suffix: str) -> str:
    """*sql* with every alias renamed: the same problem, another naming."""
    for alias in ("ns", "nc", "s", "c"):
        sql = sql.replace(f" {alias}.", f" {alias}{suffix}.").replace(
            f" {alias} ", f" {alias}{suffix} "
        )
    return sql


class Shard:
    """An in-process shard worker that remembers what it planned."""

    def __init__(self, **config):
        boot = {"shard": SHARD, "config": dataclasses.asdict(ServingConfig(**config))}
        self.worker = ShardWorker(boot)
        self.core = self.worker.core
        self.planned = []
        plan = self.core.plan

        def recorded(body, arrived=None):
            self.planned.append(plan(body, arrived))
            return self.planned[-1]

        self.core.plan = recorded

    def optimize(self, body: dict):
        """The reply bytes for *body*, checked; returns the parsed reply
        and what the core planned for it."""
        raw = self.worker.handle(frames.OPTIMIZE, json.dumps(body).encode(), time.monotonic())
        planned = self.planned[-1]
        assert raw == json.dumps(json.loads(raw)).encode()  # canonical form
        reply = json.loads(raw)
        unspliced = unspliced_reply(body, planned, reply["server_seconds"])
        assert raw == json.dumps(unspliced).encode()
        # ... which is what the in-process core hands back, plus the stamp
        in_process = optimize_reply(body, planned, 0.0)
        in_process["server_seconds"] = reply["server_seconds"]
        assert dict(in_process, shard=SHARD) == unspliced
        return reply, planned


def unspliced_reply(body: dict, planned, server_seconds: float) -> dict:
    """The reply dict as the shard encoded it whole before the splice:
    the fields in their order, the tree rendered afresh, the shard last."""
    result, config, _query = planned
    reply = {
        "strategy": result.strategy,
        "cost_model": config.cost_model_name,
        "cost": result.cost,
        "cardinality": result.plan.cardinality,
        "elapsed_seconds": result.elapsed_seconds,
        "server_seconds": server_seconds,
        "cache_hit": result.cache_hit,
        "degraded": result.degraded,
        "ccp_count": result.ccp_count,
        "plans_built": result.plans_built,
    }
    if body.get("include_plan", True):
        reply["plan"] = plan_to_dict(result.plan.node)
    reply["shard"] = SHARD
    return reply


def test_a_miss_and_the_hits_that_follow_it():
    shard = Shard()
    miss, _ = shard.optimize({"sql": SQL})
    assert miss["cache_hit"] is False and "plan" in miss
    fresh, (first, _config, _query) = shard.optimize({"sql": SQL})
    assert fresh["cache_hit"] is True
    same_names, (again, _config, _query) = shard.optimize({"sql": SAME_NAMES})
    assert same_names["cache_hit"] is True and again is first  # the same copy
    respelled, (rebound, _config, _query) = shard.optimize({"sql": respell(SQL, "x")})
    assert respelled["cache_hit"] is True and rebound.plan is not first.plan
    assert "nsx" in json.dumps(respelled["plan"]) and "nsx" not in json.dumps(fresh["plan"])
    assert shard.core.stats()["plans"]["cache_hits"] == 3


def test_a_ninth_spelling_is_rebound_on_each_hit():
    shard = Shard()
    spellings = [SQL] + [respell(SQL, f"v{n}") for n in range(SERVED_SPELLINGS)]
    shard.optimize({"sql": SQL})  # the miss; every spelling below is a hit
    for spelling in spellings:
        shard.optimize({"sql": spelling})
    ninth = [shard.optimize({"sql": spellings[-1]}) for _ in range(2)]
    (one, (a, _c, _q)), (two, (b, _c2, _q2)) = ninth
    assert a is not b and a.plan is not b.plan  # not kept: a fresh copy per hit
    assert one["cache_hit"] is two["cache_hit"] is True
    assert one["plan"] == two["plan"]


def test_a_stale_hit_and_a_hit_after_its_recost():
    shard = Shard(snapshot_band_width=1.0)
    before, _ = shard.optimize({"sql": SQL})
    # 1.25x keeps every statistic inside its band: the same key, served stale.
    shard.core.stats_update({"table": "supplier", "cardinality_factor": 1.25}, inline=0)
    stale, _ = shard.optimize({"sql": SQL})
    assert stale["cache_hit"] is True and stale["cost"] == before["cost"]
    assert shard.core.stats()["plans"]["stale_served"] == 1
    assert shard.core.revalidate(8)
    assert shard.core.stats()["plans"]["recosted"] == 1
    recosted, _ = shard.optimize({"sql": SQL})
    assert recosted["cache_hit"] is True and recosted["cost"] > before["cost"]


def test_a_hit_after_a_replan_that_moved_the_entry_to_a_new_key():
    shard = Shard(snapshot_band_width=1.0)
    before, _ = shard.optimize({"sql": SQL})
    (old_key,) = shard.core.cache.keys()
    # Three decades: past the recost bound and out of the band.
    shard.core.stats_update({"table": "supplier", "cardinality_factor": 1000.0}, inline=0)
    assert shard.core.revalidate(8)
    assert shard.core.stats()["plans"]["replanned"] == 1
    (new_key,) = shard.core.cache.keys()
    assert new_key != old_key
    replanned, _ = shard.optimize({"sql": SQL})
    assert replanned["cache_hit"] is True and replanned["cost"] > before["cost"]


def test_a_degraded_reply():
    shard = Shard(request_timeout_seconds=0.001)
    for _ in range(2):  # never cached: both are degraded runs
        reply, _ = shard.optimize({"sql": BIG_SQL})
        assert reply["degraded"] is True and reply["cache_hit"] is False
    assert len(shard.core.cache) == 0


@pytest.mark.parametrize(
    "include", [{}, {"include_plan": True}, {"include_plan": False}, {"include_plan": None}],
    ids=["absent", "true", "false", "null"],
)
def test_include_plan(include):
    shard = Shard()
    for _ in range(2):  # a miss, then a hit
        reply, _ = shard.optimize(dict(include, sql=SQL))
        assert ("plan" in reply) is bool(include.get("include_plan", True))
        assert list(reply)[-1] == "shard"


def test_the_shard_path_builds_no_dict_tree(monkeypatch):
    """A shard reply reads the plan's text: never ``rendered()``, and
    ``plan_to_dict`` once per plan, on the text's first read."""
    rendered = []
    monkeypatch.setattr(PlanInfo, "rendered", lambda plan: rendered.append(plan))
    trees = []
    monkeypatch.setattr(planinfo, "plan_to_dict", lambda node: trees.append(node) or {})
    shard = Shard()
    for sql in (SQL, SQL, respell(SQL, "x"), respell(SQL, "x"), SAME_NAMES):
        shard.optimize({"sql": sql, "include_plan": False})
        shard.worker.handle(frames.OPTIMIZE, json.dumps({"sql": sql}).encode(), time.monotonic())
    served = {id(result.plan): result.plan for result, _c, _q in shard.planned}
    # The miss and every same-names hit share the stored plan; the
    # rebound hit has its own.
    assert rendered == [] and len(trees) == len(served) == 2
    for plan in served.values():
        assert "_rendered" not in plan.__dict__ and "_rendered_json" in plan.__dict__


def test_the_text_rides_no_snapshot(tmp_path):
    shard = Shard()
    shard.optimize({"sql": SQL})
    before, after = tmp_path / "before", tmp_path / "after"
    shard.core.cache.save_snapshot(before, catalog_fingerprint="fp")
    for sql in (SQL, respell(SQL, "x"), SQL):
        shard.optimize({"sql": sql})
    (stored,) = shard.core.cache._entries.values()
    assert "_rendered_json" in stored.result.plan.__dict__
    assert "_rendered_json" not in pickle.loads(pickle.dumps(stored.result)).plan.__dict__
    shard.core.cache.save_snapshot(after, catalog_fingerprint="fp")
    assert before.read_bytes() == after.read_bytes()
