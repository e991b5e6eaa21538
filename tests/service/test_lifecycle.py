"""Plan-cache entry lifecycle: fresh → stale → refreshed | evicted.

Unit coverage of the stale-while-revalidate machinery added for
statistics drift: state transitions on the cache itself, the degraded
refresh guard, banded-key migration through the
:class:`StaleRevalidator`, and the v1-snapshot refusal.
"""

import json
import pickle
from collections import OrderedDict

import pytest
from cache_entries import Degraded, Plan, key, query_over, served

from repro.api import PlannerSession
from repro.optimizer import OptimizerConfig, optimize, prepare
from repro.service import PlanCache
from repro.service.cache import (
    FRESH,
    SNAPSHOT_FORMAT,
    STALE,
    SnapshotError,
)
from repro.service.fingerprint import cache_key, cardinality_snapshot, plan_key
from repro.service.batch import optimize_cached
from repro.service.revalidate import StaleRevalidator
from repro.sql import parse_query
from repro.sql.catalog import Catalog, TableStats

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)

ORDERS = query_over("orders")
ANY = query_over()


class TestStateTransitions:
    def test_fresh_store_serves_fresh(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ANY, Plan("p"))
        assert cache.entry_state(key("q")) == FRESH
        assert cache.stale_count() == 0

    def test_mark_stale_keeps_entry_servable(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("p"))
        assert cache.mark_stale("orders") == 1
        assert cache.entry_state(key("q")) == STALE
        assert served(cache, key("q"), "orders").tag == "p"  # still serves

    def test_mark_stale_skips_non_fresh(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("p"))
        cache.mark_stale("orders")
        assert cache.mark_stale("orders") == 0  # already stale
        cache.claim_stale()
        assert cache.mark_stale("orders") == 0  # claimed, leave alone

    def test_serve_entry_reports_state(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("p"))
        _, state = cache.serve_entry(key("q"), ORDERS)
        assert state == FRESH
        cache.mark_stale("orders")
        _, state = cache.serve_entry(key("q"), ORDERS)
        assert state == STALE
        assert cache.stats.stale_hits == 1

    def test_exact_snapshot_drift_marks_stale_on_access(self):
        # The banded-key scenario: a drifted-but-nearby snapshot still
        # hits the structural entry; the exact mismatch flips it stale
        # so revalidation gets queued.
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ANY, Plan("p"), exact_snapshot="cards-v1")
        _, state = cache.serve_entry(key("q"), ANY, exact_snapshot="cards-v2")
        assert state == STALE
        assert cache.stats.marked_stale == 1
        # Matching snapshot does not.
        cache.store(key("q2"), ANY, Plan("p2"), exact_snapshot="cards-v1")
        _, state = cache.serve_entry(key("q2"), ANY, exact_snapshot="cards-v1")
        assert state == FRESH

    def test_claim_transitions_and_bounds(self):
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.store(key(f"q{i}"), ORDERS, Plan(f"p{i}"), sql=f"sql{i}")
        cache.mark_stale("orders")
        claims = cache.claim_stale(limit=2)
        assert len(claims) == 2
        assert claims[0].sql == "sql0"
        # A claim changes no state: unbounded, all three are claimed again.
        assert len(cache.claim_stale()) == 3

    def test_claim_stale_drains_hottest_first(self):
        # Skewed traffic: q2 is hammered, q0 touched once, q1 never.
        # A bounded claim must hand the revalidator q2 before the rest.
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.store(key(f"q{i}"), ORDERS, Plan(f"p{i}"), sql=f"sql{i}")
        for _ in range(10):
            served(cache, key("q2"), "orders")
        served(cache, key("q0"), "orders")
        cache.mark_stale("orders")
        (hottest,) = cache.claim_stale(limit=1)
        assert hottest.sql == "sql2"
        everything = cache.claim_stale()  # the claim left q2 stale
        assert [claim.sql for claim in everything] == ["sql2", "sql0", "sql1"]

    def test_claim_stale_ties_keep_insertion_order(self):
        cache = PlanCache(capacity=8)
        for i in range(3):
            cache.store(key(f"q{i}"), ORDERS, Plan(f"p{i}"), sql=f"sql{i}")
        cache.mark_stale("orders")
        claims = cache.claim_stale()
        assert [claim.sql for claim in claims] == ["sql0", "sql1", "sql2"]

    def test_serve_entry_counts_hits_for_claim_priority(self):
        # The lifecycle-aware serving path feeds the same priority.
        cache = PlanCache(capacity=8)
        cache.store(key("cold"), ORDERS, Plan("c"), sql="cold")
        cache.store(key("hot"), ORDERS, Plan("h"), sql="hot")
        for _ in range(5):
            cache.serve_entry(key("hot"), ORDERS)
        cache.mark_stale("orders")
        claims = cache.claim_stale()
        assert [claim.sql for claim in claims] == ["hot", "cold"]

    def test_refresh_returns_to_fresh(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("old"))
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Plan("new"), exact_snapshot="cards-v2")
        assert cache.entry_state(key("q")) == FRESH
        assert served(cache, key("q"), "orders").tag == "new"
        assert cache.stats.refreshed == 1

    def test_refresh_migrates_to_new_key(self):
        # Re-optimization moved the snapshot past its band: the entry
        # must move to the new key, not linger under the old one.
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("old"))
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Plan("new"), new_key=key("q-banded"))
        assert key("q") not in cache
        assert served(cache, key("q-banded"), "orders").tag == "new"
        assert cache.entry_state(key("q-banded")) == FRESH

    def test_refresh_refuses_degraded_results(self):
        # The degraded-plan cache guard extends to revalidation: a
        # background replan that blew its deadline must NOT overwrite
        # the cached optimal plan — the entry goes back to stale.
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("optimal"))
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        assert cache.refresh(claim.key, Degraded("fallback")) is False
        assert cache.entry_state(key("q")) == STALE  # retryable
        assert served(cache, key("q"), "orders").tag == "optimal"
        assert cache.stats.refreshed == 0

    def test_refresh_after_eviction_is_a_noop(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ORDERS, Plan("old"))
        cache.mark_stale("orders")
        (claim,) = cache.claim_stale()
        cache.drop(key("q"))
        assert cache.refresh(claim.key, Plan("new")) is False
        assert key("q") not in cache

    def test_stale_count_scans_only_while_something_can_be_stale(self, tmp_path):
        """A shard asks after every chunk of frames; the answer is a flag
        read unless an entry left FRESH since the last scan found none."""

        class Counting(OrderedDict):
            scans = 0

            def values(self):
                Counting.scans += 1
                return super().values()

        cache = PlanCache(capacity=8)
        for tag in ("a", "b", "c"):
            cache.store(key(tag), ORDERS, Plan(tag), exact_snapshot="v1")
        plain, cache._entries = cache._entries, Counting(cache._entries)
        assert [cache.stale_count() for _ in range(5)] == [0] * 5 and Counting.scans == 0
        # every way out of FRESH raises the flag: a drift mark ...
        cache.mark_stale("orders")
        assert cache.stale_count() == 3
        for claim in cache.claim_stale():
            cache.refresh(claim.key, Plan("new"), exact_snapshot="v1")
        scans = Counting.scans
        assert cache.stale_count() == 0 and Counting.scans > scans  # the scan that lowers it
        scans = Counting.scans
        assert cache.stale_count() == 0 and Counting.scans == scans
        # ... an exact-snapshot mismatch noticed while serving ...
        cache.serve_entry(key("a"), ORDERS, exact_snapshot="v2")
        assert cache.stale_count() == 1
        # ... a claim leaves the entry stale ...
        assert len(cache.claim_stale()) == 1
        assert cache.stale_count() == 1
        # ... and states restored from a snapshot file.
        cache._entries = plain
        path = tmp_path / "shard.plancache"
        cache.save_snapshot(path, catalog_fingerprint="fp")
        restored = PlanCache(capacity=8)
        restored.load_snapshot(path, catalog_fingerprint="fp")
        assert restored.stale_count() == 1

    def test_store_refuses_degraded(self):
        cache = PlanCache(capacity=4)
        cache.store(key("q"), ANY, Degraded("fallback"))
        assert key("q") not in cache


class TestSnapshotVersionRefusal:
    def test_v1_snapshot_refused_not_crashed(self, tmp_path):
        # PR-era v1 snapshots predate the lifecycle fields; loading one
        # must be a clean version refusal (cold start), never an unpickle
        # crash or a silent misread.
        path = tmp_path / "old.plancache"
        blob = pickle.dumps([(key("q"), Plan("p"), ("orders",), None)])
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "catalog_fingerprint": "cat",
            "entries": 1,
            "checksum": "irrelevant",
            "meta": {},
        }
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        cache = PlanCache(capacity=4)
        with pytest.raises(SnapshotError) as excinfo:
            cache.load_snapshot(path, catalog_fingerprint="cat")
        assert excinfo.value.reason == "version"
        assert len(cache) == 0  # cold start: nothing half-loaded

    def test_round_trip_preserves_lifecycle_state(self, tmp_path):
        cache = PlanCache(capacity=4)
        cache.store(key("f"), ANY, Plan("pf"), sql="sql-f", exact_snapshot="cards")
        cache.store(key("s"), ORDERS, Plan("ps"), sql="sql-s")
        cache.mark_stale("orders")  # s goes stale, f stays fresh
        path = tmp_path / "new.plancache"
        cache.save_snapshot(path, catalog_fingerprint="cat")

        restored = PlanCache(capacity=4)
        restored.load_snapshot(path, catalog_fingerprint="cat")
        # Each entry's state and revalidation context survive.
        assert [restored.entry_state(key(tag)) for tag in ("f", "s")] == [FRESH, STALE]
        (claim,) = restored.claim_stale()
        assert (claim.key, claim.sql) == (key("s"), "sql-s")
        restored.mark_stale()
        claims = {claim.key: claim for claim in restored.claim_stale()}
        assert (claims[key("f")].sql, claims[key("f")].exact_snapshot) == ("sql-f", "cards")


def store_plan(cache, catalog, config, sql=SQL):
    """Optimize *sql* and store it the way the servers do."""
    query = parse_query(sql, catalog)
    result = optimize(query, config=config)
    entry_key = cache_key(
        query,
        config.strategy,
        config.factor,
        cost_model=config.cost_model_name,
        band_width=config.snapshot_band_width,
    )
    cache.store(
        entry_key, query, result, sql=sql,
        exact_snapshot=cardinality_snapshot(query),
    )
    return entry_key, result


def drift(catalog, table, factor):
    old = catalog.lookup(table)
    rows = old.cardinality * factor
    catalog.update_stats(
        table,
        TableStats(
            name=old.name,
            columns=old.columns,
            cardinality=rows,
            distinct={c: min(v * factor, rows) for c, v in old.distinct.items()},
            keys=old.keys,
        ),
    )


class TestStaleRevalidator:
    def setup_method(self):
        self.catalog = Catalog.from_tpch()
        self.cache = PlanCache(capacity=16)
        self.config = OptimizerConfig(snapshot_band_width=1.0)

    def revalidator(self, config=None):
        return StaleRevalidator(self.cache, self.catalog, config or self.config)

    def test_unchanged_stats_recost_in_place(self):
        entry_key, cached = store_plan(self.cache, self.catalog, self.config)
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] == 1
        assert self.cache.entry_state(entry_key) == FRESH
        served, state = self.cache.serve_entry(
            entry_key, parse_query(SQL, self.catalog)
        )
        assert state == FRESH
        assert served.cost == cached.cost  # bit-for-bit replay

    def post_drift_key(self, sql=SQL):
        return cache_key(
            parse_query(sql, self.catalog),
            self.config.strategy,
            self.config.factor,
            cost_model=self.config.cost_model_name,
            band_width=self.config.snapshot_band_width,
        )

    def test_mild_drift_recosts_without_replanning(self):
        _, cached = store_plan(self.cache, self.catalog, self.config)
        drift(self.catalog, "supplier", 1.5)  # within the recost bound
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] == 1
        assert counts["replanned"] == 0
        after = self.post_drift_key()
        assert self.cache.entry_state(after) == FRESH
        served, _ = self.cache.serve_entry(after, parse_query(SQL, self.catalog))
        assert served.cost > cached.cost  # re-costed under the new rows

    def test_band_crossing_drift_migrates_the_key(self):
        entry_key, _ = store_plan(self.cache, self.catalog, self.config)
        drift(self.catalog, "supplier", 100.0)  # two decades: leaves the band
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["recosted"] + counts["replanned"] == 1
        assert entry_key not in self.cache
        expected = cache_key(
            parse_query(SQL, self.catalog),
            self.config.strategy,
            self.config.factor,
            cost_model=self.config.cost_model_name,
            band_width=self.config.snapshot_band_width,
        )
        assert self.cache.entry_state(expected) == FRESH

    def test_heavy_drift_replans(self):
        sql = (
            "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue "
            "FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            "GROUP BY c.c_custkey"
        )
        store_plan(self.cache, self.catalog, self.config, sql=sql)
        drift(self.catalog, "lineitem", 16.0)  # past the 2.0 recost bound
        self.cache.mark_stale("lineitem")
        counts = self.revalidator().drain()
        assert counts["replanned"] == 1
        assert self.cache.stale_count() == 0

    def test_a_replan_is_bounded_by_what_the_decision_already_costed(self):
        """``evaluate_stale`` has costed the replayed plan and H1's on the
        query it is about to replan: the cheaper bounds that run, and H1
        is not planned a second time."""
        sql = (
            "SELECT c.c_custkey, sum(l.l_extendedprice) AS revenue FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey GROUP BY c.c_custkey"
        )
        _, cached = store_plan(self.cache, self.catalog, self.config, sql=sql)
        assert cached.stats["ceiling.source"] == "prepass" and "ceiling.ccps" in cached.stats
        drift(self.catalog, "lineitem", 1 / 64)  # the old plan is now 9x H1's
        self.cache.mark_stale("lineitem")
        assert self.revalidator().drain()["replanned"] == 1
        query = parse_query(sql, self.catalog)
        replanned, state = self.cache.serve_entry(self.post_drift_key(sql), query)
        assert state == FRESH
        unhinted = optimize(query, config=self.config)
        h1 = optimize(query, config=self.config.with_overrides(strategy="h1"))
        assert replanned.cost == unhinted.cost < cached.cost
        assert replanned.stats["ceiling.source"] == "remembered"
        assert "ceiling.ccps" not in replanned.stats and "ceiling.rerun" not in replanned.stats
        # H1's cost was the cheaper of the two the decision held.
        assert replanned.stats["ceiling.cost"] == pytest.approx(h1.cost, rel=1e-8)
        assert unhinted.stats["ceiling.ccps"] == unhinted.ccp_count

    def test_entry_without_context_is_dropped(self):
        """A library caller stores no SQL: nothing can rebuild the query
        under fresh statistics, so a stale entry goes, leaving no cost."""
        query = parse_query(SQL, self.catalog)
        optimize_cached(prepare(query), self.cache, self.config)
        entry_key, exact = plan_key(query, self.config)
        assert entry_key in self.cache
        self.cache.mark_stale("supplier")
        counts = self.revalidator().drain()
        assert counts["dropped"] == 1
        assert entry_key not in self.cache
        assert self.cache.known_cost(entry_key, exact) is None


class TestNoRevalidator:
    """A session's statements and the batch driver probe a cache nobody
    drains: an entry that drifted inside its band is planned again and
    stored over, never served."""

    def session(self):
        return PlannerSession.tpch(
            config=OptimizerConfig(workers=1, snapshot_band_width=1.0)
        )

    def fresh_cost(self, session):
        return optimize(session.parse(SQL), config=session.config).cost

    def test_a_session_replans_a_drifted_entry(self):
        session = self.session()
        before = session.optimize(SQL)
        drift(session.catalog, "supplier", 1.05)  # inside the band: same key
        after = session.optimize(SQL)
        assert after.cache_hit is False
        assert after.cost == self.fresh_cost(session) != before.cost
        assert session.cache.stale_count() == 0 and len(session.cache) == 1
        assert session.optimize(SQL).cache_hit is True  # the new entry is fresh

    def test_a_batch_replans_a_drifted_entry(self):
        session = self.session()
        (first,) = session.run_batch([session.parse(SQL)]).items
        drift(session.catalog, "supplier", 1.05)
        (item,) = session.run_batch([session.parse(SQL)]).items
        assert item.cache_hit is False
        assert item.result.cost == self.fresh_cost(session) != first.result.cost
        assert session.cache.stale_count() == 0 and len(session.cache) == 1
        (again,) = session.run_batch([session.parse(SQL)]).items
        assert again.cache_hit is True
