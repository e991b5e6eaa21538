"""Serving throughput while catalog statistics drift mid-run.

Exercises the plan lifecycle the way production statistics maintenance
does: a pipelined workload runs hot against the async tier while
``POST /stats_update`` lands a cardinality drift **mid-phase**.  The
tier must keep answering from (stale) cached plans while background
revalidation re-costs or re-plans them — serving never stops for a
statistics refresh:

1. **Steady state** — pipelined closed-loop clients over the warm cache
   measure the reference throughput (the committed ``steady_qps``).
2. **Drift phases** — the same workload re-runs once per drift factor
   (1x, 4x, 16x on ``DRIFT_TABLE``); ~40% into each phase one
   ``/stats_update`` fires.  The 1x refresh re-costs every stale entry
   to its identical cost (the bit-for-bit replay, live); larger factors
   push entries past ``recost_bound`` into full replans.  Each phase's
   throughput must stay >= ``THROUGHPUT_FLOOR`` of steady state (full
   runs only: a smoke phase is 2,000 requests, and its ratio to an
   equally short steady phase swings 73–118 % on an idle box).
3. **Lifecycle evidence** — the final ``/stats`` must show
   ``plans.stale_served > 0`` (requests answered from stale entries
   while revalidation ran) and ``plans.recosted > 0`` (entries brought
   back fresh by replay, not re-enumeration).

Results land in ``benchmarks/BENCH_drift.json`` (schema
``bench-drift/v1``).  ``--baseline`` diffs a fresh run against the
committed artifact (CI regression gate); ``--smoke`` shrinks the phases
for CI runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_drift.py                    # full run
    PYTHONPATH=src python benchmarks/bench_drift.py --smoke \
        --out /tmp/drift.json --baseline benchmarks/BENCH_drift.json   # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.asyncserver import AsyncPlanServer, AsyncServerConfig, tune_gc_for_serving
from repro.server.client import ServerClient

SCHEMA = "bench-drift/v1"
OUT_PATH = Path(__file__).resolve().parent / "BENCH_drift.json"

#: drift factors applied mid-phase, in order (multiplicative — the
#: catalog ends the run at their product).  1x first: a refresh whose
#: re-cost must reproduce every cached cost exactly.
DRIFT_FACTORS = (1.0, 4.0, 16.0)
DRIFT_TABLE = "nation"
#: each drift phase must keep at least this fraction of steady-state
#: throughput — the stale-while-revalidate contract.
THROUGHPUT_FLOOR = 0.8
BASELINE_RATIO = 0.25  # fresh steady qps must keep >= 25% of committed
SHARDS = 2
#: wide banding (one decade) so moderate drift stays inside the cached
#: entry's banded key and the stale-serving path engages instead of a
#: cold miss.
BAND_WIDTH = 1.0

#: most of the mix touches DRIFT_TABLE, so one drift marks several
#: entries stale across shards; aliases vary to exercise the
#: rename-stable fingerprint path.
QUERY_MIX = [
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name",
    "SELECT n2.n_name, count(*) AS cnt FROM nation n2 "
    "JOIN supplier sup ON n2.n_nationkey = sup.s_nationkey GROUP BY n2.n_name",
    "SELECT c.c_custkey, c.c_name, "
    "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
    "FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "WHERE o.o_orderdate >= 639 AND o.o_orderdate < 731 "
    "GROUP BY c.c_custkey, c.c_name",
    "SELECT s.s_name, count(*) AS cnt FROM supplier s "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey "
    "JOIN customer c ON n.n_nationkey = c.c_nationkey GROUP BY s.s_name",
    "SELECT r.r_name, count(*) AS cnt FROM region r "
    "JOIN nation n ON r.r_regionkey = n.n_regionkey "
    "JOIN supplier s ON n.n_nationkey = s.s_nationkey GROUP BY r.r_name",
]


def _request_bytes(method: str, path: str, body: dict) -> bytes:
    data = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


REQUESTS = [
    _request_bytes("POST", "/optimize", {"sql": sql, "include_plan": False})
    for sql in QUERY_MIX
]


async def _read_response(reader) -> int:
    header = await reader.readuntil(b"\r\n\r\n")
    length = int(header.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    await reader.readexactly(length)
    return int(header[9:12])


async def _pipelined_client(host, port, requests, window, statuses):
    reader, writer = await asyncio.open_connection(host, port)
    sent = received = 0
    while received < requests:
        while sent < requests and sent - received < window:
            writer.write(REQUESTS[sent % len(REQUESTS)])
            sent += 1
        statuses[await _read_response(reader)] += 1
        received += 1
    writer.close()


async def _post_json(host, port, path, body) -> int:
    """One-off request on its own connection (the drift injector)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(_request_bytes("POST", path, body))
    status = await _read_response(reader)
    writer.close()
    return status


async def run_phase(
    host,
    port,
    *,
    requests: int,
    clients: int = 4,
    window: int = 32,
    drift_factor=None,
    inject_after_seconds=None,
) -> dict:
    """One pipelined phase; optionally inject a drift partway through."""
    statuses: Counter = Counter()
    per_client = requests // clients
    injected = {"status": None, "at_seconds": None}

    async def injector(started: float) -> None:
        await asyncio.sleep(inject_after_seconds)
        injected["status"] = await _post_json(
            host, port, "/stats_update",
            {"table": DRIFT_TABLE, "cardinality_factor": drift_factor},
        )
        injected["at_seconds"] = time.perf_counter() - started
    started = time.perf_counter()
    tasks = [
        _pipelined_client(host, port, per_client, window, statuses)
        for _ in range(clients)
    ]
    if drift_factor is not None:
        tasks.append(injector(started))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    total = sum(statuses.values())
    return {
        "requests": total,
        "clients": clients,
        "window": window,
        "wall_seconds": wall,
        "qps": total / wall if wall > 0 else 0.0,
        "non_200": {str(k): v for k, v in statuses.items() if k != 200},
        "drift_factor": drift_factor,
        "injected": injected if drift_factor is not None else None,
    }


def measure(smoke: bool) -> dict:
    phase_requests = 2000 if smoke else 12000

    # revalidate_batch=1: a drift frame revalidates one entry inline and
    # leaves the rest stale for the idle-gap revalidator, so requests
    # queued behind the drift observably serve stale (the point of the
    # exercise).  BAND_WIDTH keeps moderate drift inside the banded key.
    config = AsyncServerConfig(
        port=0,
        shards=SHARDS,
        cache_capacity=512,
        max_inflight=256,
        snapshot_band_width=BAND_WIDTH,
        revalidate_batch=1,
    )
    with AsyncPlanServer(config) as server:
        with ServerClient(port=server.port, timeout=300.0, retries=3) as warm:
            for sql in QUERY_MIX:
                warm.optimize(sql, include_plan=False)

        # This process hosts the front event loop AND the load
        # generator; a full GC pass in either inflates the tail.
        tune_gc_for_serving()

        loop = asyncio.new_event_loop()
        try:
            steady = loop.run_until_complete(
                run_phase(server.host, server.port, requests=phase_requests)
            )
            est_phase_seconds = phase_requests / max(steady["qps"], 1.0)
            drift_phases = []
            for factor in DRIFT_FACTORS:
                phase = loop.run_until_complete(
                    run_phase(
                        server.host,
                        server.port,
                        requests=phase_requests,
                        drift_factor=factor,
                        inject_after_seconds=est_phase_seconds * 0.4,
                    )
                )
                phase["throughput_ratio"] = (
                    phase["qps"] / steady["qps"] if steady["qps"] else 0.0
                )
                drift_phases.append(phase)
        finally:
            loop.close()

        with ServerClient(port=server.port) as probe:
            stats = probe.stats()

    plans = stats["plans"]
    return {
        "shards": SHARDS,
        "band_width": BAND_WIDTH,
        "drift_table": DRIFT_TABLE,
        "steady": steady,
        "drift_phases": drift_phases,
        "plans": {
            "served": plans["served"],
            "cache_hits": plans["cache_hits"],
            "hit_rate": plans["hit_rate"],
            "stale_served": plans["stale_served"],
            "recosted": plans["recosted"],
            "replanned": plans["replanned"],
            "failures": plans["failures"],
        },
        "cache": {
            "marked_stale": stats["cache"].get("marked_stale", 0),
            "refreshed": stats["cache"].get("refreshed", 0),
            "stale_entries": stats["cache"].get("stale_entries", 0),
        },
    }


def acceptance_failures(run: dict, *, smoke: bool) -> list:
    failures = []
    if run["steady"]["non_200"]:
        failures.append(f"steady phase saw non-200s: {run['steady']['non_200']}")
    for phase in run["drift_phases"]:
        label = f"{phase['drift_factor']:g}x drift"
        if phase["non_200"]:
            failures.append(f"{label} saw non-200s: {phase['non_200']}")
        if phase["injected"]["status"] != 200:
            failures.append(
                f"{label}: stats_update answered {phase['injected']['status']}"
            )
        if not smoke and phase["throughput_ratio"] < THROUGHPUT_FLOOR:
            failures.append(
                f"{label}: throughput fell to {phase['throughput_ratio']:.0%} of "
                f"steady state (floor {THROUGHPUT_FLOOR:.0%})"
            )
    plans = run["plans"]
    if plans["stale_served"] <= 0:
        failures.append("no request was served from a stale entry (lifecycle idle?)")
    if plans["recosted"] <= 0:
        failures.append("no entry was revalidated by re-costing (replay path dead?)")
    if plans["failures"]:
        failures.append(f"optimizer failures during the run: {plans['failures']}")
    return failures


def baseline_failures(run: dict, baseline_path: str) -> list:
    try:
        committed = json.loads(Path(baseline_path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable baseline {baseline_path}: {error}"]
    committed_qps = committed["run"]["steady"]["qps"]
    measured_qps = run["steady"]["qps"]
    if measured_qps < committed_qps * BASELINE_RATIO:
        return [
            f"steady throughput {measured_qps:,.0f} q/s fell below "
            f"{BASELINE_RATIO:.0%} of the committed baseline "
            f"({committed_qps:,.0f} q/s)"
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized phases")
    parser.add_argument(
        "--out", default=str(OUT_PATH), help=f"output JSON path (default: {OUT_PATH})"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_drift.json to regression-gate against",
    )
    args = parser.parse_args(argv)

    print(
        f"bench_drift: shards={SHARDS} band={BAND_WIDTH:g} "
        f"drift={DRIFT_TABLE} x{'/'.join('%g' % f for f in DRIFT_FACTORS)} "
        f"({'smoke' if args.smoke else 'full'} phases)"
    )
    run = measure(args.smoke)

    print(f"  steady: {run['steady']['qps']:,.0f} q/s warm")
    for phase in run["drift_phases"]:
        print(
            f"  {phase['drift_factor']:g}x drift: {phase['qps']:,.0f} q/s "
            f"({phase['throughput_ratio']:.0%} of steady; update at "
            f"{phase['injected']['at_seconds']:.2f}s)"
        )
    plans = run["plans"]
    print(
        f"  lifecycle: {plans['stale_served']} stale-served, "
        f"{plans['recosted']} recosted, {plans['replanned']} replanned "
        f"({run['cache']['refreshed']:g} entries refreshed)"
    )

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": args.smoke,
        "throughput_floor": THROUGHPUT_FLOOR,
        "drift_factors": list(DRIFT_FACTORS),
        "run": run,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {args.out}")

    failures = acceptance_failures(run, smoke=args.smoke)
    if args.baseline:
        failures += baseline_failures(run, args.baseline)
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("  ok: all acceptance targets met")
    return 0


def test_drift_smoke():
    """Pytest entry point: the smoke phases must meet their targets."""
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        assert main(["--smoke", "--out", tmp.name]) == 0


if __name__ == "__main__":
    sys.exit(main())
