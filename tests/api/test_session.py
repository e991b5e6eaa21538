"""`PlannerSession` / `PreparedStatement` / `PlanHandle`: the fluent flow."""

import json
import random
from dataclasses import replace

import pytest

from repro.api import OptimizerConfig, PlannerSession
from repro.exec import execute
from repro.optimizer import optimize, prepare
from repro.plans import render_plan
from repro.query.canonical import canonical_plan
from repro.service import PlanCache, run_batch
from repro.service.fingerprint import query_fingerprint
from repro.sql import Catalog, parse_query
from repro.sql.catalog import TableStats
from repro.tpch import TPCH_QUERIES, build_ex, micro_database
from repro.workload import generate_query, generate_workload

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)

BUILTINS = ("dphyp", "ea-all", "ea-prune", "h1", "h2")


@pytest.fixture
def session():
    return PlannerSession.tpch()


class TestSessionPipeline:
    @pytest.mark.parametrize("scale_factor", [0, -1.0, float("nan"), float("inf")])
    def test_tpch_rejects_a_scale_factor_that_is_not_finite_and_positive(self, scale_factor):
        with pytest.raises(ValueError, match="scale_factor must be finite and > 0"):
            PlannerSession.tpch(scale_factor)

    def test_sql_requires_catalog(self):
        with pytest.raises(ValueError, match="no catalog"):
            PlannerSession().sql(SQL)

    def test_sql_round_trip_on_tpch_sample_data(self, session):
        """sql → optimize → execute, cross-checked against the canonical plan."""
        statement = session.sql(SQL)
        handle = statement.optimize()
        database = micro_database(statement.query)
        result = handle.execute(database)
        assert result == execute(canonical_plan(statement.query), database)

    def test_session_database_is_the_default_target(self):
        query = build_ex(scale_factor=1.0)
        session = PlannerSession(database=micro_database(query))
        handle = session.statement(query).optimize()
        assert handle.execute() == execute(canonical_plan(query), session.database)

    def test_execute_without_database_raises(self, session):
        handle = session.sql(SQL).optimize()
        with pytest.raises(ValueError, match="no database"):
            handle.execute()

    def test_execute_picks_the_backend(self, session):
        statement = session.sql(SQL)
        handle = statement.optimize()
        database = micro_database(statement.query)
        reference = handle.execute(database, executor="interpreter")
        assert handle.execute(database, executor="columnar") == reference

    def test_execute_limit_truncates(self, session):
        statement = session.sql(SQL)
        handle = statement.optimize()
        database = micro_database(statement.query)
        assert len(handle.execute(database, limit=2)) == 2
        assert len(handle.execute(database, limit=0)) == 0

    def test_execute_unknown_backend_raises(self, session):
        statement = session.sql(SQL)
        handle = statement.optimize()
        with pytest.raises(ValueError, match="unknown executor"):
            handle.execute(micro_database(statement.query), executor="gpu")

    def test_session_dataset_resolves_per_query(self):
        # A Dataset as the session database: PlanHandle.execute binds
        # only the query's relations, through both backends.
        from repro.tpch.datagen import scaled_dataset

        session = PlannerSession.tpch(database=scaled_dataset(0.001))
        reference = session.execute(SQL, executor="interpreter")
        columnar = session.execute(SQL, executor="columnar")
        assert columnar == reference
        assert len(reference) > 0

    def test_one_shot_optimize_accepts_sql(self, session):
        handle = session.optimize(SQL)
        assert handle.strategy == "ea-prune"
        assert handle.cost > 0

    def test_per_call_overrides_leave_session_config_alone(self, session):
        handle = session.optimize(SQL, strategy="h1")
        assert handle.strategy == "h1"
        assert session.config.strategy == "ea-prune"

    def test_explain_renders_a_plan(self, session):
        text = session.sql(SQL).explain()
        assert "Γ" in text or "Π" in text


class TestStrategyComparison:
    def test_all_builtin_strategies(self, session):
        comparison = session.sql(SQL).optimize_all_strategies(strategies=BUILTINS)
        assert tuple(handle.strategy for handle in comparison) == BUILTINS
        best = comparison.best
        assert best.cost == min(handle.cost for handle in comparison)
        assert comparison.winner == best.strategy
        # eager aggregation wins on this query: DPhyp cannot be the winner
        assert comparison["dphyp"].cost > best.cost

    def test_default_covers_every_registered_strategy(self, session):
        comparison = session.sql(SQL).optimize_all_strategies()
        names = {handle.strategy for handle in comparison}
        assert set(BUILTINS) <= names

    def test_to_dict(self, session):
        comparison = session.sql(SQL).optimize_all_strategies(strategies=("dphyp", "h1"))
        payload = json.loads(json.dumps(comparison.to_dict()))
        assert payload["winner"] in ("dphyp", "h1")
        assert len(payload["strategies"]) == 2


class TestSessionCache:
    def test_second_optimize_is_a_cache_hit(self, session):
        statement = session.sql(SQL)
        first = statement.optimize()
        second = statement.optimize()
        assert not first.cache_hit
        assert second.cache_hit
        assert second.cost == first.cost

    def test_uncached_session(self):
        session = PlannerSession.tpch(config=OptimizerConfig(cache_capacity=None))
        assert session.cache is None
        statement = session.sql(SQL)
        assert not statement.optimize().cache_hit
        assert not statement.optimize().cache_hit

#: a three-table join whose plan reads nation's and supplier's statistics
JOIN3_SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey "
    "JOIN partsupp ps ON s.s_suppkey = ps.ps_suppkey GROUP BY ns.n_name"
)


def scaled(old: TableStats, factor: float) -> TableStats:
    rows = old.cardinality * factor
    return replace(
        old,
        cardinality=rows,
        distinct={column: min(value * factor, rows) for column, value in old.distinct.items()},
    )


DRIFTS = {
    "x1.05": lambda old: scaled(old, 1.05),  # inside a 0.5 band: the same key
    "x40": lambda old: scaled(old, 40.0),
    "distinct-div-3": lambda old: replace(
        old, distinct={column: value / 3 for column, value in old.distinct.items()}
    ),
    "keys-dropped": lambda old: replace(old, keys=()),
}


class TestDriftNeverServesAnOldPlan:
    """Nothing tells a library cache that statistics moved: its keys and
    the entries' exact snapshots are what keep a plan priced under the
    old numbers from being served, whichever way the catalog changed."""

    @pytest.mark.parametrize("table", ["nation", "supplier"])
    @pytest.mark.parametrize("drift", list(DRIFTS))
    @pytest.mark.parametrize("how", ["register", "update_stats"])
    @pytest.mark.parametrize("band", [None, 0.5], ids=["exact", "band-0.5"])
    def test_a_drifted_query_is_planned_again(self, band, how, drift, table):
        config = OptimizerConfig(workers=1, snapshot_band_width=band)

        def drifted():
            session = PlannerSession.tpch(config=config)
            session.sql(JOIN3_SQL).optimize()
            assert len(session.cache) == 1
            new = DRIFTS[drift](session.catalog.lookup(table))
            if how == "register":
                session.catalog.register(new)
            else:
                session.catalog.update_stats(table, new)
            return session

        session = drifted()
        cold = PlannerSession(catalog=session.catalog, config=config).sql(JOIN3_SQL).optimize()
        handle = session.sql(JOIN3_SQL).optimize()
        assert not handle.cache_hit and handle.cost == cold.cost
        session = drifted()
        (item,) = session.run_batch([session.parse(JOIN3_SQL)]).items
        assert not item.cache_hit and item.cost == cold.cost


class TestEvents:
    def test_hooks_fire_across_the_pipeline(self):
        session = PlannerSession.tpch(config=OptimizerConfig(cache_capacity=None))
        seen = {"prepare": 0, "ccp": 0, "plan": 0, "result": 0}
        for event in seen:
            session.on(event, lambda *args, event=event: seen.__setitem__(event, seen[event] + 1))
        session.sql(SQL).optimize()
        assert seen["prepare"] == 1
        assert seen["ccp"] >= 1
        assert seen["plan"] >= 2
        assert seen["result"] == 1

    def test_result_fires_for_cache_hits_too(self, session):
        results = []
        session.on("result", results.append)
        statement = session.sql(SQL)
        statement.optimize()
        statement.optimize()
        assert len(results) == 2
        assert results[1].cache_hit

    def test_unsubscribe(self, session):
        results = []
        unsubscribe = session.on("result", results.append)
        session.sql(SQL).optimize()
        unsubscribe()
        unsubscribe()  # idempotent
        session.sql(SQL).optimize()
        assert len(results) == 1

    def test_unknown_event_rejected(self, session):
        with pytest.raises(ValueError, match="unknown event"):
            session.on("finish", print)


class TestPlanHandleSerialization:
    def test_to_dict_is_json_ready(self, session):
        payload = session.sql(SQL).optimize().to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["strategy"] == "ea-prune"
        assert decoded["cost_model"] == "cout"
        assert decoded["cost"] > 0
        assert decoded["cache_hit"] is False

    def test_plan_tree_structure(self, session):
        plan = session.sql(SQL).optimize().to_dict()["plan"]
        ops = set()

        def walk(node):
            ops.add(node["op"])
            for key in ("input", "left", "right"):
                if key in node:
                    walk(node[key])

        walk(plan)
        assert "scan" in ops
        assert "groupby" in ops


class TestSessionBatch:
    def test_run_batch_uses_the_session_cache(self):
        session = PlannerSession(config=OptimizerConfig(workers=1, cache_capacity=64))
        workload = generate_workload(6, 3, random.Random(3), unique=2)
        cold = session.run_batch(workload)
        warm = session.run_batch(workload)
        assert cold.hits == 4  # in-batch dedup of the repeated shapes
        assert warm.hit_rate == 1.0

    def test_batch_costs_match_single_query_path(self):
        session = PlannerSession(config=OptimizerConfig(workers=1, cache_capacity=64))
        single = PlannerSession(config=OptimizerConfig(cache_capacity=None))
        workload = generate_workload(5, 3, random.Random(11))
        report = session.run_batch(workload)
        for item, query in zip(report.items, workload):
            assert item.cost == single.optimize(query).cost

    def test_batch_emits_result_events(self):
        session = PlannerSession(config=OptimizerConfig(workers=1, cache_capacity=None))
        results = []
        session.on("result", results.append)
        workload = generate_workload(4, 3, random.Random(5))
        session.run_batch(workload)
        assert len(results) == 4


class TestFreeFunctions:
    """``parse_query`` / ``prepare`` / ``optimize`` / ``run_batch`` are what
    the session delegates to: both surfaces give identical plans."""

    @staticmethod
    def uncached_session(**kwargs):
        return PlannerSession(config=OptimizerConfig(cache_capacity=None), **kwargs)

    @pytest.mark.parametrize("strategy", BUILTINS)
    def test_identical_plans_on_tpch(self, strategy):
        query = TPCH_QUERIES["Q3"](1.0)
        free = optimize(query, config=OptimizerConfig(strategy=strategy))
        handle = self.uncached_session().statement(query).optimize(strategy=strategy)
        assert handle.cost == free.cost
        assert handle.explain() == render_plan(free.plan.node)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_plans_on_random_workload(self, seed):
        query = generate_query(5, random.Random(seed))
        free = optimize(query)
        handle = self.uncached_session().statement(query).optimize()
        assert handle.cost == free.cost
        assert handle.explain() == render_plan(free.plan.node)

    def test_parse_query_matches_session_sql(self):
        free = parse_query(SQL, Catalog.from_tpch())
        statement = PlannerSession.tpch().sql(SQL)
        assert query_fingerprint(free) == query_fingerprint(statement.query)

    def test_prepare_feeds_optimize(self):
        query = parse_query(SQL, Catalog.from_tpch())
        prepared = prepare(query)
        assert optimize(query, prepared=prepared).cost == optimize(query).cost

    def test_run_batch_matches_session_run_batch(self):
        workload = generate_workload(6, 3, random.Random(21), unique=3)
        config = OptimizerConfig(workers=1, cache_capacity=32)
        free = run_batch(workload, PlanCache(capacity=32), config)
        report = PlannerSession(config=config).run_batch(workload)
        assert [item.cost for item in report.items] == [item.cost for item in free.items]
        assert [item.cache_hit for item in report.items] == [
            item.cache_hit for item in free.items
        ]
