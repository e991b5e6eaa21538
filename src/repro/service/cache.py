"""An LRU plan cache keyed by structure and statistics.

DP plan generation is by far the most expensive step of serving a query
(Fig. 16: seconds per query at larger relation counts), while the inputs
repeat heavily in production traffic — dashboards and applications
re-issue the same query shapes, differing at most in relation/attribute
naming or predicate spelling.  Caching the
:class:`~repro.optimizer.driver.OptimizationResult` under the structural
fingerprint of :mod:`repro.service.fingerprint` turns those repeats into
dictionary lookups.  (Constant *values* are part of the fingerprint:
queries differing in constants are different problems — their plans embed
the constants — so they intentionally miss.)

Correctness hinges on the key: a cached plan embeds cost and cardinality
decisions derived from catalog statistics, so the key includes a
statistics snapshot — every statistic the cost model reads — and changed
statistics miss instead of serving a stale plan.  Under banded keys an
entry also keeps its exact snapshot, and a probe under other exact
numbers marks it stale (:meth:`PlanCache.serve_entry`); nothing has to
tell the cache that the catalog changed.

A plan that leaves the cache for want of room leaves its *cost* behind
(:meth:`PlanCache.known_cost`): the next run of that statement under the
same statistics is bounded by it from the first csg-cmp-pair on, instead
of planning a heuristic first to learn a bound the cache already knew.

**One owner.**  A cache takes no lock: one thread owns it and every call
comes from that thread — a shard worker's, a
:class:`~repro.api.PlannerSession`'s caller, or the caller of
:func:`~repro.service.batch.optimize_many`, whose pool streams results
back to that same thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.service.fingerprint import PlanCacheKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.driver import OptimizationResult

#: on-disk snapshot identity + layout version.  Bump the version whenever
#: the pickled entry layout (PlanCacheKey, OptimizationResult, PlanInfo,
#: binding tuples) changes incompatibly: a loader must refuse rather than
#: unpickle entries it would misinterpret.
SNAPSHOT_FORMAT = "repro-plancache"
SNAPSHOT_VERSION = 2

#: costs remembered for entries that left the cache (``(key, exact snapshot)
#: → cost``, LRU).  Equal to :data:`repro.service.core.PARSE_MEMO_CAPACITY`:
#: a core that remembers that many parsed texts can remember a float for
#: each.  As a multiple of the cache capacity it measured too small below
#: 8x — on ``serve_churn`` (working set 4x the cache) 1x bounds 31 % of
#: the misses, 4x 88 %, 8x 99 % — so it is a fixed size, not a multiple.
KNOWN_COSTS_CAPACITY = 4096

#: spellings (target namings) of one entry whose served copy is kept on
#: the entry; a hit in a further spelling is rebound on every hit, as all
#: were before the copies were kept.
SERVED_SPELLINGS = 8

#: entry lifecycle states: ``fresh → stale → refreshed | evicted``.
#: ``fresh`` — statistics unchanged since the plan was stored; ``stale`` —
#: a stats delta touched one of the plan's base tables (or its exact
#: snapshot no longer matches the query's), the entry keeps serving while
#: awaiting revalidation.  Revalidation ends the cycle with
#: :meth:`PlanCache.refresh` (back to ``fresh``) or eviction; a failed one
#: leaves the entry stale.
FRESH = "fresh"
STALE = "stale"


class SnapshotError(Exception):
    """A plan-cache snapshot that must not be loaded.

    *reason* is a stable machine-readable tag:

    * ``"missing"`` — the file does not exist,
    * ``"corrupt"`` — unreadable header / truncated file,
    * ``"format"`` / ``"version"`` — written by a different format or an
      incompatible layout version,
    * ``"catalog"`` — the catalog fingerprint differs: the snapshot's
      plans embed statistics that no longer hold (serving them would be a
      correctness bug, so the loader refuses and the server cold-starts),
    * ``"checksum"`` — the entry payload does not match its recorded
      digest (tampered or torn write).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


@dataclass
class CacheStats:
    """Counters exposed by :attr:`PlanCache.stats`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0
    marked_stale: int = 0
    stale_hits: int = 0
    refreshed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """A field-by-field copy: later lookups do not change it."""
        return CacheStats(
            self.hits, self.misses, self.puts, self.evictions, self.invalidations,
            self.marked_stale, self.stale_hits, self.refreshed,
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, puts={self.puts}, "
            f"evictions={self.evictions}, invalidations={self.invalidations}, "
            f"marked_stale={self.marked_stale}, stale_hits={self.stale_hits}, "
            f"refreshed={self.refreshed}, hit_rate={self.hit_rate:.1%})"
        )


@dataclass
class _Entry:
    result: "OptimizationResult"
    relations: FrozenSet[str] = field(default_factory=frozenset)
    #: naming of the query the result was computed for (service.rebind.Binding);
    #: None means "serve verbatim" (caller guarantees name compatibility).
    binding: Optional[Tuple] = None
    #: lifecycle state — FRESH / STALE.
    state: str = FRESH
    #: the *exact* (unbanded) cardinality snapshot the plan was costed
    #: under; with banded keys this is how drift-within-a-band is
    #: detected on access (exact mismatch → serve stale + revalidate).
    exact_snapshot: Optional[str] = None
    #: re-parseable source text (when the entry came through a SQL front
    #: door) so a background revalidator can rebuild the query under
    #: fresh statistics without the original request; an entry without
    #: it cannot be re-costed and is dropped when it goes stale.
    sql: Optional[str] = None
    #: lifetime hit count; :meth:`PlanCache.claim_stale` drains the
    #: hottest entries first so revalidation capacity goes where the
    #: serving traffic is.
    hits: int = 0
    #: requesting query's naming → ``(the result the copy was made from,
    #: that result rebound to the naming and marked a cache hit)`` — what
    #: :meth:`PlanCache.serve_entry` handed out last time.  A pair is good
    #: only while its first half *is* :attr:`result`, so replacing the
    #: result is all the invalidation there is; never persisted.
    served: Dict[Optional[Tuple], Tuple["OptimizationResult", "OptimizationResult"]] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass(frozen=True)
class StaleClaim:
    """One stale entry claimed for revalidation (:meth:`PlanCache.claim_stale`).

    Carries the cached result (for re-costing), the source SQL (for
    re-parsing under fresh statistics; None drops the entry) and the
    exact snapshot the plan was costed under (for drift diagnostics).
    """

    key: PlanCacheKey
    result: "OptimizationResult"
    sql: Optional[str]
    exact_snapshot: Optional[str]


class PlanCache:
    """A bounded, least-recently-used plan cache, owned by one thread.

    No lock: every call comes from the owning thread (the module's "One
    owner"), so a counter read, a claim and the refresh that settles it
    never interleave with another caller.

    Beside the entries the cache keeps what it still knows of plans it no
    longer holds: ``(key, exact snapshot) → cost``, at most
    :data:`KNOWN_COSTS_CAPACITY` pairs, least recently used first out.
    That pair names one optimization problem exactly — structure,
    strategy, cost model and the unbanded statistics — so the float is
    the cost of a complete plan *of that problem*, which is all an exact
    bounded run needs of a ceiling (:func:`repro.optimizer.optimize`,
    *known_cost*).  What writes it and what does not:

    * an entry evicted for room (:meth:`store`, :meth:`load_snapshot`)
      leaves its cost — the case the map exists for;
    * :meth:`refresh` leaves the cost of the result it replaces, under
      the key and snapshot that result was stored with — also when the
      entry moves to a new key, so statistics that drift back find it —
      and so does an entry the move displaces from the new key;
    * :meth:`drop` leaves nothing — the caller is saying the entry's
      numbers are not to be trusted — and :meth:`clear` forgets every
      remembered cost too;
    * :meth:`mark_stale` touches neither entries' costs nor the map, and
      snapshots do not carry it (a restarted process relearns it).

    A remembered cost is a hint, never an answer: a run it turns out not
    to bound is planned again without it (see ``optimize``).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self._costs: "OrderedDict[Tuple[PlanCacheKey, str], float]" = OrderedDict()
        self.stats = CacheStats()
        #: False while no entry can be non-fresh: raised wherever an entry
        #: leaves FRESH, lowered when a :meth:`stale_count` scan finds none
        #: — so an idle-gap backlog check costs a flag read, not a scan.
        self._may_hold_stale = False

    # -- core protocol -------------------------------------------------------
    def serve_entry(
        self,
        key: PlanCacheKey,
        query,
        exact_snapshot: Optional[str] = None,
        binding: Optional[Tuple] = None,
    ) -> Optional[Tuple["OptimizationResult", str]]:
        """The cached result for *key* re-expressed in *query*'s names,
        with the entry's lifecycle state: ``(result, state)`` or None.

        The one probe: counts a hit or a miss, refreshes the entry's
        recency, rebinds the stored plan to *query*'s naming when the
        entry came from a renamed-but-isomorphic query, and marks the
        copy as a cache hit.  The copy is made once per
        naming and stored result: later hits get the same object (up to
        :data:`SERVED_SPELLINGS` namings an entry), so it is for reading.
        *binding* is ``query_binding(query)`` for a caller that keeps it;
        left out, it is derived here.

        *exact_snapshot* is the probing query's exact (unbanded)
        cardinality snapshot.  Under banded keys a drifted-but-nearby
        snapshot still *hits* the structural entry; if it differs from
        the snapshot the entry was costed under, the entry is marked
        stale on the spot (stale-while-revalidate: the caller serves the
        returned result now and queues revalidation).  The returned state
        is the entry's state **at serve time** — a :data:`STALE` result
        should bump a ``stale_served`` metric upstream.
        """
        from repro.service.rebind import query_binding, rebind_result

        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        entry.hits += 1
        if (
            entry.state == FRESH
            and exact_snapshot is not None
            and entry.exact_snapshot is not None
            and entry.exact_snapshot != exact_snapshot
        ):
            entry.state = STALE
            self._may_hold_stale = True
            self.stats.marked_stale += 1
        state = entry.state
        if state != FRESH:
            self.stats.stale_hits += 1
        result, source = entry.result, entry.binding
        target = None  # an entry stored without a binding serves verbatim
        if source is not None:
            target = binding if binding is not None else query_binding(query)
        made = entry.served.get(target)
        if made is not None and made[0] is result:
            return made[1], state
        served = result if source is None else rebind_result(result, source, query, target)
        served = served.as_cache_hit()
        if target in entry.served or len(entry.served) < SERVED_SPELLINGS:
            entry.served[target] = (result, served)
        return served, state

    def store(
        self,
        key: PlanCacheKey,
        query,
        result: "OptimizationResult",
        sql: Optional[str] = None,
        exact_snapshot: Optional[str] = None,
    ) -> None:
        """Store a freshly computed *result* for *query* under *key*.

        The one insert, counterpart of :meth:`serve_entry`: records the
        base tables the plan scans (what :meth:`mark_stale` matches)
        and *query*'s naming (so renamed-but-isomorphic hits can be
        rebound).  *sql* and *exact_snapshot* feed the revalidation path
        — see :class:`_Entry`; a store always lands in :data:`FRESH`.

        Deadline-degraded results are refused (silently): a degraded plan
        is a serve-something fallback, not the plan of record, and caching
        one would pin the degraded answer past the deadline that caused it.
        """
        if getattr(result, "degraded", False):
            return
        from repro.service.rebind import query_binding

        entry = _Entry(
            result,
            frozenset(rel.source_table for rel in query.relations),
            query_binding(query),
            exact_snapshot=exact_snapshot,
            sql=sql,
        )
        self._insert(key, entry)

    def _insert(self, key: PlanCacheKey, entry: _Entry) -> None:
        """File *entry* under *key* as the most recently used, counted as
        a put; the least recently used leave for room."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        self.stats.puts += 1
        self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used entries down to :attr:`capacity`;
        each leaves its cost behind."""
        while len(self._entries) > self.capacity:
            key, entry = self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._leave_cost(key, entry)

    def _leave_cost(self, key: PlanCacheKey, entry: _Entry) -> None:
        """Remember what *entry*'s plan cost under the statistics it was
        costed with.  An entry stored without its exact
        snapshot names no problem exactly and leaves nothing."""
        cost = getattr(entry.result, "cost", None)
        if cost is None or entry.exact_snapshot is None:
            return
        costs = self._costs
        pair = (key, entry.exact_snapshot)
        costs[pair] = cost
        costs.move_to_end(pair)
        if len(costs) > KNOWN_COSTS_CAPACITY:
            costs.popitem(last=False)

    def known_cost(self, key: PlanCacheKey, exact_snapshot: Optional[str]) -> Optional[float]:
        """The cost of a complete plan this cache once held for exactly
        this problem — *key* under *exact_snapshot* — or None.

        What a miss asks before it becomes an optimizer run; the answer
        goes to ``optimize(known_cost=...)``.  A found pair becomes the
        most recently used.
        """
        pair = (key, exact_snapshot)
        cost = self._costs.get(pair)
        if cost is not None:
            self._costs.move_to_end(pair)
        return cost

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanCacheKey) -> bool:
        return key in self._entries

    def clear(self) -> int:
        """Drop every entry, counting each as an invalidation, and forget
        every remembered cost.  Returns the number of entries removed."""
        removed = len(self._entries)
        self._entries.clear()
        self._costs.clear()
        self.stats.invalidations += removed
        return removed

    def drop(self, key: PlanCacheKey) -> bool:
        """Remove one entry (counted as an invalidation); False if absent.

        The revalidator's last resort for entries it cannot rebuild a
        query for (no stored SQL) — dropping keeps the cache honest
        rather than serving a plan nobody can re-cost.  No cost is
        remembered for it.
        """
        if self._entries.pop(key, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    # -- lifecycle -----------------------------------------------------------
    def mark_stale(self, relation: Optional[str] = None) -> int:
        """Mark fresh entries touching *relation* (or all, when None) stale.

        Entries stay servable — :meth:`serve_entry` reports their state so
        callers can count stale serves — until a revalidator refreshes or
        evicts them.  Entries already stale are left alone.  Returns the
        number of entries newly marked.
        """
        marked = 0
        needle = relation.lower() if relation is not None else None
        for entry in self._entries.values():
            if entry.state != FRESH:
                continue
            if needle is not None and not any(
                name.lower() == needle for name in entry.relations
            ):
                continue
            entry.state = STALE
            marked += 1
        if marked:
            self._may_hold_stale = True
        self.stats.marked_stale += marked
        return marked

    def claim_stale(self, limit: Optional[int] = None) -> Tuple["StaleClaim", ...]:
        """Up to *limit* stale entries to revalidate, a :class:`StaleClaim` each.

        Stale entries are claimed **hottest first** — most lifetime hits,
        ties broken by LRU insertion order — so a bounded revalidation
        budget refreshes the plans the serving traffic actually depends
        on before the long tail.  A claim changes no state: the entry
        stays stale, and servable, until its owner settles it —
        :meth:`refresh` (fresh again), :meth:`drop`, or nothing (a failed
        revalidation leaves it stale for a later round).  A claim whose
        entry has left the cache since no-ops at :meth:`refresh`.
        """
        stale = [
            (entry.hits, key, entry)
            for key, entry in self._entries.items()
            if entry.state == STALE
        ]
        # Hits descending; the stable sort keeps LRU order for ties.
        stale.sort(key=lambda item: -item[0])
        if limit is not None:
            stale = stale[:limit]
        return tuple(
            StaleClaim(
                key=key,
                result=entry.result,
                sql=entry.sql,
                exact_snapshot=entry.exact_snapshot,
            )
            for _, key, entry in stale
        )

    def refresh(
        self,
        key: PlanCacheKey,
        result: "OptimizationResult",
        exact_snapshot: Optional[str] = None,
        new_key: Optional[PlanCacheKey] = None,
    ) -> bool:
        """Complete a revalidation: install *result* and return to fresh.

        When re-optimization moved the entry's snapshot past its band
        (*new_key*), the entry migrates: the old key is dropped and the
        refreshed result stored under *new_key*.  Deadline-degraded
        results are refused — the degraded-plan cache guard extends to
        the revalidation path, so a background replan that blew its
        deadline leaves the cached (optimal) entry as it is, stale, rather
        than overwriting it.  Returns True when the entry was refreshed.

        The replaced result leaves its cost behind under the key and
        exact snapshot it was stored with (:meth:`known_cost`).  An entry
        already under *new_key* is displaced: counted as an invalidation,
        it leaves its cost under its own key and exact snapshot.
        """
        if getattr(result, "degraded", False):
            return False
        entry = self._entries.pop(key, None)
        if entry is None:
            return False  # left the cache since the claim
        self._leave_cost(key, entry)
        entry.result = result
        entry.served.clear()  # copies of the replaced result
        entry.state = FRESH
        if exact_snapshot is not None:
            entry.exact_snapshot = exact_snapshot
        target = new_key if new_key is not None else key
        displaced = self._entries.pop(target, None)
        if displaced is not None:
            self._leave_cost(target, displaced)
            self.stats.invalidations += 1
        self._entries[target] = entry
        self.stats.refreshed += 1
        return True

    def entry_state(self, key: PlanCacheKey) -> Optional[str]:
        """The lifecycle state of *key*'s entry (None when absent)."""
        entry = self._entries.get(key)
        return entry.state if entry is not None else None

    def stale_count(self) -> int:
        """Entries currently awaiting revalidation."""
        if not self._may_hold_stale:
            return 0
        count = sum(1 for entry in self._entries.values() if entry.state != FRESH)
        self._may_hold_stale = count > 0
        return count

    # -- persistence ---------------------------------------------------------
    def save_snapshot(
        self,
        path: "str | os.PathLike",
        *,
        catalog_fingerprint: str,
        meta: Optional[dict] = None,
    ) -> int:
        """Write every entry to *path*; returns the number written.

        Layout: one JSON header line (format, version, catalog
        fingerprint, entry count, payload checksum, caller *meta*)
        followed by a pickled entry list in LRU order (oldest first).
        The header is validated by :meth:`load_snapshot` **before** any
        unpickling, so a stale or foreign file is refused cheaply; the
        checksum guards against truncation and tampering (it is an
        integrity check against accidents, not a security boundary — the
        snapshot directory must be trusted, as with any pickle).

        The write is atomic (temp file + ``os.replace``), so a crash
        mid-save leaves the previous snapshot intact.
        """
        # v2 layout: lifecycle state and revalidation context (the
        # exact snapshot and the SQL text) ride along.
        entries = [
            (
                key,
                entry.result,
                tuple(entry.relations),
                entry.binding,
                entry.state,
                entry.exact_snapshot,
                entry.sql,
            )
            for key, entry in self._entries.items()
        ]
        blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "catalog_fingerprint": catalog_fingerprint,
            "entries": len(entries),
            "checksum": hashlib.sha256(blob).hexdigest(),
            "meta": meta or {},
        }
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            handle.write(b"\n")
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return len(entries)

    @staticmethod
    def read_snapshot_header(path: "str | os.PathLike") -> dict:
        """Parse and structurally validate *path*'s header line only.

        Raises :class:`SnapshotError` (``missing`` / ``corrupt`` /
        ``format``) without touching the pickled payload.
        """
        try:
            with open(path, "rb") as handle:
                line = handle.readline(1 << 20)
        except FileNotFoundError:
            raise SnapshotError("missing", f"no snapshot at {os.fspath(path)!r}") from None
        except OSError as exc:
            raise SnapshotError("corrupt", f"unreadable snapshot: {exc}") from exc
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError("corrupt", f"unparsable snapshot header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                "format",
                f"not a {SNAPSHOT_FORMAT} snapshot: {os.fspath(path)!r}",
            )
        return header

    def load_snapshot(
        self,
        path: "str | os.PathLike",
        *,
        catalog_fingerprint: str,
    ) -> int:
        """Warm-start from *path*; returns the number of entries loaded.

        Refuses (raising :class:`SnapshotError`) any file whose format,
        layout version or **catalog fingerprint** mismatches, or whose
        payload fails its checksum — a snapshot taken under different
        catalog statistics would serve stale plans, which is a
        correctness bug, so the caller must treat a refusal as "cold
        start", never as "load anyway".

        Entries are inserted preserving the saved LRU order; when the
        snapshot holds more entries than :attr:`capacity`, only the
        most-recently-used ``capacity`` entries are kept.  Loading counts
        toward :attr:`CacheStats.puts` like any other store (and the
        usual eviction accounting applies), so ``describe()`` stays an
        honest ledger of how entries entered the cache.
        """
        header = self.read_snapshot_header(path)
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                "version",
                f"snapshot layout v{header.get('version')} != "
                f"supported v{SNAPSHOT_VERSION}",
            )
        if header.get("catalog_fingerprint") != catalog_fingerprint:
            raise SnapshotError(
                "catalog",
                "snapshot was written under a different catalog "
                "(statistics changed since the snapshot — refusing to "
                "serve stale plans)",
            )
        with open(path, "rb") as handle:
            handle.readline(1 << 20)
            blob = handle.read()
        if hashlib.sha256(blob).hexdigest() != header.get("checksum"):
            raise SnapshotError(
                "checksum", "snapshot payload does not match its checksum "
                "(tampered or truncated)"
            )
        try:
            entries = pickle.loads(blob)
        except Exception as exc:  # pickle raises many types
            raise SnapshotError("corrupt", f"unpicklable snapshot payload: {exc}") from exc
        if not isinstance(entries, list):
            raise SnapshotError("corrupt", "snapshot payload is not an entry list")
        kept = entries[-self.capacity:]
        self._may_hold_stale = True  # saved states ride along
        for key, result, relations, binding, state, exact_snapshot, sql in kept:
            self._insert(
                key,
                _Entry(
                    result,
                    frozenset(relations),
                    binding,
                    state=state,
                    exact_snapshot=exact_snapshot,
                    sql=sql,
                ),
            )
        return len(kept)

    # -- introspection -------------------------------------------------------
    def keys(self) -> Tuple[PlanCacheKey, ...]:
        return tuple(self._entries)

    def relations_of(self, key: PlanCacheKey) -> FrozenSet[str]:
        entry = self._entries.get(key)
        return entry.relations if entry is not None else frozenset()

    def describe(self) -> Dict[str, float]:
        """A flat metrics dict (for logging / monitoring endpoints)."""
        return {
            "size": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.stats.hits),
            "misses": float(self.stats.misses),
            "puts": float(self.stats.puts),
            "evictions": float(self.stats.evictions),
            "invalidations": float(self.stats.invalidations),
            "marked_stale": float(self.stats.marked_stale),
            "stale_hits": float(self.stats.stale_hits),
            "refreshed": float(self.stats.refreshed),
            "stale_entries": float(self.stale_count()),
            "known_costs": float(len(self._costs)),
            "hit_rate": self.stats.hit_rate,
        }
