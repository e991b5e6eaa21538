"""PlanCache snapshot persistence: round-trip, refusal, atomicity."""

import json
import os

import pytest
from cache_entries import Plan, key, query_over, served

from repro.service import PlanCache, SnapshotError
from repro.service.cache import SNAPSHOT_FORMAT, SNAPSHOT_VERSION

CATALOG_FP = "a" * 64
OTHER_CATALOG_FP = "b" * 64

#: one base table per entry, so a restored entry's relations are its own
TABLES = ("nation", "region", "supplier", "customer", "orders", "lineitem")


def populated(entries=3, capacity=8) -> PlanCache:
    cache = PlanCache(capacity=capacity)
    for index in range(entries):
        cache.store(key(f"q{index}"), query_over(TABLES[index]), Plan(f"p{index}"))
    return cache


class TestRoundTrip:
    def test_save_load_preserves_entries(self, tmp_path):
        path = tmp_path / "shard.plancache"
        saved = populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert saved == 3

        cache = PlanCache(capacity=8)
        loaded = cache.load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert loaded == 3
        assert served(cache, key("q1"), TABLES[1]).tag == "p1"
        assert cache.relations_of(key("q2")) == frozenset({TABLES[2]})

    def test_load_counts_as_puts(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        cache = PlanCache(capacity=8)
        cache.load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert cache.stats.puts == 3

    def test_load_respects_capacity_keeping_most_recent(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated(entries=6).save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        cache = PlanCache(capacity=2)
        assert cache.load_snapshot(path, catalog_fingerprint=CATALOG_FP) == 2
        # The two most-recently-used entries survive, LRU order intact.
        assert served(cache, key("q0"), TABLES[0]) is None
        assert served(cache, key("q4"), TABLES[4]).tag == "p4"
        assert served(cache, key("q5"), TABLES[5]).tag == "p5"

    def test_known_costs_stay_out_of_the_file_and_loading_leaves_them(self, tmp_path):
        """The cost memory is relearned, not persisted (layout still v2);
        what a load evicts leaves its cost like any eviction (one loop)."""
        assert SNAPSHOT_VERSION == 2
        path = tmp_path / "shard.plancache"
        source = PlanCache(capacity=2)
        for index in range(3):
            plan = Plan(f"p{index}", float(index))
            source.store(key(f"q{index}"), query_over(), plan, exact_snapshot="s")
        assert source.known_cost(key("q0"), "s") == 0.0
        assert source.save_snapshot(path, catalog_fingerprint=CATALOG_FP) == 2

        fresh = PlanCache(capacity=2)
        assert fresh.load_snapshot(path, catalog_fingerprint=CATALOG_FP) == 2
        assert fresh.describe()["known_costs"] == 0.0
        assert fresh.known_cost(key("q0"), "s") is None

        busy = PlanCache(capacity=2)
        busy.store(key("mine"), query_over(), Plan("mine", 7.0), exact_snapshot="s")
        busy.load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert busy.stats.evictions == 1 and busy.known_cost(key("mine"), "s") == 7.0
        # ... and a loaded entry remembers the snapshot it was costed under.
        busy.store(key("next"), query_over(), Plan("next", 8.0), exact_snapshot="s")
        assert busy.known_cost(key("q1"), "s") == 1.0

    def test_header_readable_without_unpickling(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(
            path, catalog_fingerprint=CATALOG_FP, meta={"shard": 1}
        )
        header = PlanCache.read_snapshot_header(path)
        assert header["format"] == SNAPSHOT_FORMAT
        assert header["version"] == SNAPSHOT_VERSION
        assert header["catalog_fingerprint"] == CATALOG_FP
        assert header["entries"] == 3
        assert header["meta"] == {"shard": 1}

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert sorted(os.listdir(tmp_path)) == ["shard.plancache"]


class TestRefusal:
    """Every refusal must be a typed SnapshotError — callers treat any
    of these as "cold start", never "load anyway"."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(
                tmp_path / "nope.plancache", catalog_fingerprint=CATALOG_FP
            )
        assert excinfo.value.reason == "missing"

    def test_catalog_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        cache = PlanCache()
        with pytest.raises(SnapshotError) as excinfo:
            cache.load_snapshot(path, catalog_fingerprint=OTHER_CATALOG_FP)
        assert excinfo.value.reason == "catalog"
        assert len(cache) == 0  # nothing partially loaded

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        header, blob = _split(path)
        header["version"] = SNAPSHOT_VERSION + 1
        _rewrite(path, header, blob)
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert excinfo.value.reason == "version"

    def test_foreign_format(self, tmp_path):
        path = tmp_path / "shard.plancache"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert excinfo.value.reason == "format"

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert excinfo.value.reason == "checksum"

    def test_truncated_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "shard.plancache"
        populated().save_snapshot(path, catalog_fingerprint=CATALOG_FP)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert excinfo.value.reason == "checksum"

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "shard.plancache"
        path.write_bytes(b"\x80\x04garbage, not a json line")
        with pytest.raises(SnapshotError) as excinfo:
            PlanCache().load_snapshot(path, catalog_fingerprint=CATALOG_FP)
        assert excinfo.value.reason in ("corrupt", "format")


def _split(path):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        blob = handle.read()
    return header, blob


def _rewrite(path, header, blob):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        handle.write(blob)
