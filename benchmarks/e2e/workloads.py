"""Seeded inputs for the end-to-end benchmark.

Everything the program under test ever sees is built here from ``--seed``:
``Query`` objects for the two groups of ``plan_cold`` and HTTP request
bodies for the three serving workloads.  The seed does not generate statements
freely — cold planning cost of a random query varies by three orders of
magnitude, so two seeds would be two different benchmarks.  Instead the
seed makes a *stratified draw* from a fixed candidate pool
(``pool.json``): candidates are sorted by the work the **reference**
engine did on them (plans built), cut into equal bins, and one candidate
is taken from every bin.  Every seed therefore gets different statements
with the same distribution of work, which is what lets one seed's numbers
be compared with another's.  ``pool.json`` also carries the reference
engine's answers (cost, ccp count), so answer checks need no live
reference run.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.tpch.queries import TPCH_QUERIES
from repro.workload import SqlWorkloadConfig, generate_query, generate_sql_query, topology_query

POOL_PATH = Path(__file__).with_name("pool.json")

#: The two groups of ``plan_cold``.  Sizes are chosen so one pass over a
#: group takes about 2.5 s on the reference box and several passes over
#: both fit one run.
PLAN_GROUPS = {
    "eager": {
        "strategies": ("ea-prune", "h2"),
        "topologies": (("chain", 7), ("cycle", 6), ("star", 6), ("clique", 5)),
        "tpch": ("Ex", "Q3", "Q5", "Q10"),
        "random_n": 6,
        "random_draw": 24,
        # drop the heavy tail: one 8,000-plan query would be half a pass
        "random_work": (40, 2500),
    },
    "single": {
        "strategies": ("dphyp", "h1"),
        "topologies": (("chain", 16), ("cycle", 12), ("star", 10), ("clique", 8)),
        "tpch": (),
        "random_n": 10,
        "random_draw": 12,
        "random_work": (0, 10**9),
    },
}

#: Generator settings of the two SQL candidate families in the pool.
SQL_FAMILIES = {
    "plan": SqlWorkloadConfig(min_tables=2, max_tables=5),
    "exec": SqlWorkloadConfig(min_tables=1, max_tables=3),
}

#: The paper's TPC-H queries in the frontend's dialect (dates are day
#: numbers, as in ``repro.tpch.queries``).
TPCH_SQL = {
    "Ex": (
        "SELECT ns.n_name, nc.n_name, count(*) AS cnt FROM nation ns "
        "JOIN supplier s ON ns.n_nationkey = s.s_nationkey "
        "FULL JOIN nation nc ON ns.n_nationkey = nc.n_nationkey "
        "JOIN customer c ON nc.n_nationkey = c.c_nationkey "
        "GROUP BY ns.n_name, nc.n_name"
    ),
    "Q3": (
        "SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority, "
        "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
        "WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 1169 "
        "AND l.l_shipdate > 1169 "
        "GROUP BY l.l_orderkey, o.o_orderdate, o.o_shippriority"
    ),
    "Q5": (
        "SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
        "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
        "JOIN nation n ON s.s_nationkey = n.n_nationkey "
        "JOIN region r ON n.n_regionkey = r.r_regionkey "
        "WHERE c.c_nationkey = s.s_nationkey AND r.r_name = 'ASIA' "
        "AND o.o_orderdate >= 731 AND o.o_orderdate < 1096 "
        "GROUP BY n.n_name"
    ),
    "Q10": (
        "SELECT c.c_custkey, c.c_name, c.c_acctbal, c.c_phone, n.n_name, "
        "c.c_address, c.c_comment, "
        "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey "
        "WHERE o.o_orderdate >= 639 AND o.o_orderdate < 731 "
        "AND l.l_returnflag = 'R' "
        "GROUP BY c.c_custkey, c.c_name, c.c_acctbal, c.c_phone, n.n_name, "
        "c.c_address, c.c_comment"
    ),
}

DRIFT_TABLE = "orders"
DRIFT_FACTORS = (4.0, 0.25)
EXECUTE_LIMITS = (10, "default", None)
DEFAULT_EXECUTE_LIMIT = 1000  # the servers' cap when a request names none


def sql_digest(sql: str) -> str:
    return hashlib.sha1(sql.encode("utf-8")).hexdigest()[:10]


def family_sql(family: str, candidate: int) -> str:
    """Candidate *candidate* of a SQL family (deterministic generator)."""
    return generate_sql_query(random.Random(candidate), SQL_FAMILIES[family])


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def stratified_draw(entries: Sequence, count: int, rng: random.Random) -> list:
    """One entry from each of *count* equal bins of *entries* (sorted by work)."""
    if len(entries) < count:
        raise ValueError(f"pool has {len(entries)} candidates, need {count}")
    edges = [round(i * len(entries) / count) for i in range(count + 1)]
    return [entries[rng.randrange(edges[i], edges[i + 1])] for i in range(count)]


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"e2e:{seed}:{purpose}")


# -- plan_cold ---------------------------------------------------------------


@dataclass(frozen=True)
class PlanCase:
    """One cold ``optimize`` call and the reference engine's answer."""

    label: str
    group: str  # "eager" | "single"
    build: Callable[[], object]  # a fresh Query every call
    strategy: str
    cost: float
    ccp_count: int
    work: int  # plans the reference engine built


def plan_cases(seed: int, scale: float = 1.0) -> List[PlanCase]:
    """The cases of both groups, in one seeded order."""
    cases = [case for group in PLAN_GROUPS for case in _group_cases(group, seed, scale)]
    _rng(seed, "plan_cold:order").shuffle(cases)
    return cases


def _group_cases(group: str, seed: int, scale: float) -> List[PlanCase]:
    spec = PLAN_GROUPS[group]
    golden = load_pool()["plan"][group]
    sources: List[Tuple[str, Callable[[], object]]] = []
    for topology, n in spec["topologies"]:
        sources.append((f"{topology}-{n}", lambda t=topology, n=n: topology_query(t, n)))
    for name in spec["tpch"]:
        sources.append((f"tpch-{name}", TPCH_QUERIES[name]))
    low, high = spec["random_work"]
    primary = spec["strategies"][0]
    candidates = sorted(
        (e for e in golden["random"] if low <= e[primary][2] <= high),
        key=lambda e: (e[primary][2], e["seed"]),
    )
    n = spec["random_n"]
    for entry in stratified_draw(candidates, spec["random_draw"], _rng(seed, group)):
        sources.append((
            f"random-{n}-{entry['seed']}",
            lambda s=entry["seed"]: generate_query(n, random.Random(s)),
        ))
    by_seed = {f"random-{n}-{e['seed']}": e for e in golden["random"]}
    cases = []
    for label, build in sources:
        answers = by_seed.get(label) or golden["fixed"][label]
        for strategy in spec["strategies"]:
            cost, ccps, work = answers[strategy]
            cases.append(PlanCase(f"{label}/{strategy}", group, build, strategy, cost, ccps, work))
    if scale < 1.0:  # selftest: the cheapest cases, a scale-sized share of the work
        cases.sort(key=lambda c: c.work)
        budget = scale * sum(c.work for c in cases)
        kept, spent = [], 0
        for case in cases:
            if len(kept) >= 4 and spent + case.work > budget:
                break
            kept.append(case)
            spent += case.work
        cases = kept
    return cases


# -- HTTP workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    sql: str
    cost: float  # reference engine, undrifted TPC-H SF-1 catalog
    relations: int
    canonical_of: Optional[str] = None  # original spelling, for respelled copies
    every_limit: bool = False  # /execute: a slot per limit, not one limit in turn


@dataclass
class Request:
    path: str
    body: dict
    statement: Optional[Statement] = None
    slot: Optional[int] = None  # which distinct request of the workload this is
    raw: bytes = field(init=False)

    def __post_init__(self) -> None:
        data = json.dumps(self.body).encode("utf-8")
        head = (
            f"POST {self.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        )
        self.raw = head.encode("latin-1") + data


@dataclass
class HttpWorkload:
    """A serving workload: its server settings and its distinct requests (slots)."""

    name: str
    tier: str  # "async" | "sync"
    endpoint: str
    statements: List[Statement]
    round_size: int
    cache_capacity: int = 512
    band_width: Optional[float] = None
    revalidate_batch: Optional[int] = None
    dataset: Optional[str] = None
    seed: int = 1
    #: Zipf popularity and a statistics drift mid-round, instead of every
    #: slot equally often against a cache that holds them all
    churn: bool = False
    slots: List[Request] = field(default_factory=list)

    def __post_init__(self) -> None:
        for index, statement in enumerate(self.statements):
            if self.endpoint == "/execute":
                limits = EXECUTE_LIMITS
                if not statement.every_limit:  # the limits in turn, from a seeded start
                    limits = (EXECUTE_LIMITS[(index + self.seed) % len(EXECUTE_LIMITS)],)
                bodies = [
                    {"sql": statement.sql} if limit == "default"
                    else {"sql": statement.sql, "limit": limit}
                    for limit in limits
                ]
            else:
                bodies = [{"sql": statement.sql, "include_plan": True}]
            for body in bodies:
                self.slots.append(Request(self.endpoint, body, statement, len(self.slots)))

    @property
    def once_per_round(self) -> bool:
        """Whether a round is every slot exactly once (few, unlike operations)."""
        return not self.churn and self.round_size == len(self.slots)

    def warm_round(self) -> List[Request]:
        """Every distinct statement once — fills the caches, un-timed."""
        first = {}
        for slot in self.slots:
            first.setdefault(slot.statement.sql, slot)
        return list(first.values())

    def round(self, index: int) -> List[Request]:
        """Round *index*: a fixed composition of the slots in a seeded order."""
        rng = _rng(self.seed, f"{self.name}:round:{index}")
        if self.churn:
            picks = _zipf_composition(len(self.slots), self.round_size)
        else:  # every slot equally often
            repeats = -(-self.round_size // len(self.slots))
            picks = (list(range(len(self.slots))) * repeats)[: self.round_size]
        rng.shuffle(picks)
        requests = [self.slots[pick] for pick in picks]
        if self.churn:
            factor = DRIFT_FACTORS[index % len(DRIFT_FACTORS)]
            requests.insert(
                len(requests) // 2,
                Request("/stats_update", {"table": DRIFT_TABLE, "cardinality_factor": factor}),
            )
        return requests


def _zipf_composition(statements: int, requests: int) -> List[int]:
    """Exactly Zipf(1.0)-proportioned picks (largest remainder), unshuffled."""
    weights = [1.0 / rank for rank in range(1, statements + 1)]
    total = sum(weights)
    exact = [requests * w / total for w in weights]
    counts = [int(x) for x in exact]
    leftovers = sorted(range(statements), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in leftovers[: requests - sum(counts)]:
        counts[i] += 1
    return [i for i, c in enumerate(counts) for _ in range(c)]


def _spread_ranks(by_work: List[Statement], rng: random.Random) -> List[Statement]:
    """Zipf ranks for statements sorted by planning work, cost spread evenly.

    A free shuffle would make the cached head and the missing tail cheap
    under one seed and dear under the next (the dearest statement plans 40x
    longer than the cheapest), and the seeds would be different benchmarks.
    Ranks follow the bit-reversed position instead, so every run of
    neighbouring ranks holds cheap and dear statements alike; the seed
    picks where in the sorted list the sequence starts.
    """
    n = len(by_work)
    bits = max(1, (n - 1).bit_length())
    positions = sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    offset = rng.randrange(n)
    return [by_work[(position + offset) % n] for position in positions]


_ALIAS_DECL = re.compile(
    r"\b(region|nation|supplier|customer|part|partsupp|orders|lineitem)\s+([a-z][a-z0-9]*)\b"
)


def respell(sql: str) -> str:
    """The same statement with every table alias renamed (``t0`` → ``t0x``).

    Isomorphic to the original, so it shares its cache entry and is served
    through ``service.rebind`` under the new names.
    """
    # keywords are upper case in every statement here, so a lower-case
    # word after a table name is its alias
    for alias in {alias for _table, alias in _ALIAS_DECL.findall(sql)}:
        sql = re.sub(rf"\b{alias}\b", alias + "x", sql)
    return sql


def _tpch_statements(pool: dict) -> List[Statement]:
    return [
        Statement(TPCH_SQL[name], pool["sql"]["tpch"][name][0], pool["sql"]["tpch"][name][1])
        for name in TPCH_SQL
    ]


def _family_statements(family: str, entries: Sequence) -> List[Statement]:
    out = []
    for entry in entries:
        sql = family_sql(family, entry["seed"])
        if sql_digest(sql) != entry["digest"]:
            raise RuntimeError(
                f"pool.json is out of date: {family} candidate {entry['seed']} now "
                "generates different SQL — rerun with --regen-golden"
            )
        out.append(Statement(sql, entry["cost"], entry["relations"]))
    return out


def http_workload(name: str, seed: int, scale: float = 1.0, tier: str = "async") -> HttpWorkload:
    """Workload *name*; ``tier="sync"`` is the same requests for the threaded tier."""
    pool = load_pool()
    rng = _rng(seed, name)

    def sized(n: int, floor: int) -> int:
        return max(floor, round(n * scale))

    if name == "serve_warm":
        entries = sorted(
            pool["sql"]["plan"], key=lambda e: (e["relations"], e["work"], e["seed"])
        )
        originals = _tpch_statements(pool) + _family_statements(
            "plan", stratified_draw(entries, sized(60, 6), rng)
        )
        statements = originals + [
            Statement(respell(s.sql), s.cost, s.relations, canonical_of=s.sql)
            for s in originals
        ]
        return HttpWorkload(
            name, tier, "/optimize", statements, sized(1500, 2 * len(statements)), seed=seed,
        )
    if name == "serve_churn":
        # cold plans of 1-20 ms: misses must stay cheap enough that five
        # rounds see thousands of them, not a handful of outliers
        entries = sorted(
            (e for e in pool["sql"]["plan"] if 8 <= e["work"] <= 400),
            key=lambda e: (e["work"], e["seed"]),
        )
        statements = _spread_ranks(
            _family_statements("plan", stratified_draw(entries, sized(256, 24), rng)), rng
        )
        return HttpWorkload(
            name, "async", "/optimize", statements, sized(750, 120),
            cache_capacity=max(4, len(statements) // 4),
            band_width=1.0, revalidate_batch=1, seed=seed, churn=True,
        )
    if name == "execute":
        entries = sorted(pool["sql"]["exec"], key=lambda e: (e["exec_ms"], e["seed"]))
        # The TPC-H queries with every limit; of the generated statements
        # nearly half the pool, each with one limit, so that two seeds differ
        # little in the work they ask for.
        statements = [
            replace(s, every_limit=True) for s in _tpch_statements(pool)
        ] + _family_statements("exec", stratified_draw(entries, sized(96, 4), rng))
        workload = HttpWorkload(
            name, "async", "/execute", statements, 0, dataset="tpch-sf0.01", seed=seed,
        )
        workload.round_size = len(workload.slots)  # every slot once a round
        return workload
    raise ValueError(f"unknown HTTP workload {name!r}")
