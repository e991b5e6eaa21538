"""Async serving tier under open-loop (Poisson) load.

``benchmarks/e2e`` drives the server closed-loop: callers that wait for a
reply.  This file asks what that cannot: what independent arrivals, which
do not wait for completions, get from ``python -m repro serve
--shards 2`` (booted as a child through ``e2e/loadgen.ServerProcess``).

1. **Capacity probe** — pipelined closed-loop clients over a warm cache
   measure the sustainable throughput.
2. **Open-loop SLO search** — Poisson arrivals at descending fractions of
   the probed capacity; the highest offered rate whose p99 stays under
   10 ms is the recorded *latency-bounded throughput*.  Latency runs from
   each request's *scheduled arrival*, so queueing delay is charged to the
   server and not absorbed by a stalled generator (no coordinated
   omission).

Load generator, front and shards share one core and every time is scaled
by a ``calibrate.SpeedTrack`` sampled while the phase runs, as in the
end-to-end benchmark.  The gates are relative to the run itself: no
non-200 below capacity, and (full runs) some load factor holds the SLO;
``--baseline`` adds the shared regression gate of ``artifact.py`` on the
capacity probe.  ``--smoke`` shrinks the phases for CI and skips the SLO
gate (shared runners schedule too noisily for a 10 ms p99).

Usage::

    python benchmarks/bench_async_server.py --out benchmarks/BENCH_async.json   # full run
    python benchmarks/bench_async_server.py --smoke \\
        --baseline benchmarks/BENCH_async.json                                  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

import artifact
import calibrate
import loadgen
from repro.service.core import percentile

P99_TARGET_MS = 10.0          # open-loop SLO: p99 from scheduled arrival
#: descending load factors tried by the SLO search; the first (highest)
#: one holding p99 < P99_TARGET_MS is the latency-bounded throughput.
SLO_FACTORS = (0.6, 0.5, 0.4, 0.3, 0.2)
#: runners differ in more than core speed (loopback, scheduler): the
#: capacity probe may take up to this many times the committed seconds
MAX_REGRESSION = 4.0
SHARDS = 2
#: the probe's pipelining (4 clients x 32 window) must never be shed
MAX_INFLIGHT = 256
PROBE_CLIENTS = 4
PROBE_WINDOW = 32
#: requests per probe client; a full run measures both sizes, so its
#: artifact holds the case a smoke run compares against
SMOKE_PROBE_REQUESTS = 400
FULL_PROBE_REQUESTS = 2000

#: TPC-H shapes dashboards re-issue (aliases vary, so the rename-stable
#: fingerprint path is exercised, not just exact repeats).
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
]


def _request_bytes(sql: str) -> bytes:
    body = json.dumps({"sql": sql, "include_plan": False}).encode("utf-8")
    head = (
        "POST /optimize HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


REQUESTS = [_request_bytes(sql) for sql in QUERY_MIX]


async def _read_response(reader) -> int:
    header = await reader.readuntil(b"\r\n\r\n")
    length = int(header.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    await reader.readexactly(length)
    return int(header[9:12])


# -- phase 1: capacity probe (closed loop, pipelined) -----------------------


async def _pipelined_client(address, requests, statuses, track):
    reader, writer = await asyncio.open_connection(*address)
    sent = received = 0
    while received < requests:
        while sent < requests and sent - received < PROBE_WINDOW:
            writer.write(REQUESTS[sent % len(REQUESTS)])
            sent += 1
        statuses[await _read_response(reader)] += 1
        received += 1
        track.tick(perf_counter())
    writer.close()


async def probe_capacity(address, track, requests_per_client: int) -> dict:
    statuses: Counter = Counter()
    started = perf_counter()
    await asyncio.gather(
        *(
            _pipelined_client(address, requests_per_client, statuses, track)
            for _ in range(PROBE_CLIENTS)
        )
    )
    ended = perf_counter()
    track.sample()
    total = sum(statuses.values())
    seconds = track.nominal(started, ended)
    return {
        "key": {"phase": "capacity", "requests": total},
        "seconds": seconds,
        "raw_seconds": ended - started,
        "rps": total / seconds,
        "raw_rps": total / (ended - started),
        "non_200": {str(k): v for k, v in statuses.items() if k != 200},
    }


# -- phase 2: open-loop Poisson generator -----------------------------------


class OpenLoopRun:
    """One open-loop phase: Poisson arrivals over a connection pool.

    Arrivals are scheduled ahead of time from a seeded exponential
    inter-arrival stream; the sender fires every due request without
    waiting for responses (requests pipeline onto pool connections
    round-robin).  Latency for each 200 is measured from the request's
    *scheduled* arrival, so a backlogged server cannot hide queueing
    delay behind a stalled generator (coordinated omission).
    """

    def __init__(self, address, track, *, rate, requests, connections, seed):
        self.address = address
        self.track = track
        self.rate = rate
        self.requests = requests
        self.connections = connections
        rng = random.Random(seed)
        clock = 0.0
        self.schedule = []
        for _ in range(requests):
            clock += rng.expovariate(rate)
            self.schedule.append(clock)
        #: (scheduled, answered) of every 200, perf_counter seconds
        self.answered = []
        self.statuses: Counter = Counter()
        self.errors = 0
        self.max_send_lag = 0.0  # how late the generator itself ran

    async def _reader_loop(self, reader, pending):
        try:
            while True:
                status = await _read_response(reader)
                now = perf_counter()
                scheduled = pending.popleft()
                self.statuses[status] += 1
                if status == 200:
                    self.answered.append((scheduled, now))
                self.track.tick(now)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            self.errors += len(pending)

    async def run(self) -> dict:
        pool = []
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(*self.address)
            pending: deque = deque()
            task = asyncio.ensure_future(self._reader_loop(reader, pending))
            pool.append((writer, pending, task))

        start = perf_counter()
        index = 0
        while index < self.requests:
            now = perf_counter()
            self.track.tick(now)
            while index < self.requests and start + self.schedule[index] <= now:
                writer, pending, _task = pool[index % self.connections]
                pending.append(start + self.schedule[index])
                self.max_send_lag = max(self.max_send_lag, now - pending[-1])
                writer.write(REQUESTS[index % len(REQUESTS)])
                index += 1
            if index < self.requests:
                due = start + self.schedule[index] - perf_counter()
                await asyncio.sleep(min(0.002, max(0.0, due)))

        # Wait for every response (or a dead connection).
        deadline = perf_counter() + 60.0
        while any(pending for _writer, pending, _task in pool) and perf_counter() < deadline:
            await asyncio.sleep(0.01)
        end = perf_counter()
        self.track.sample()
        for writer, _pending, task in pool:
            task.cancel()
            writer.close()

        completed = sum(self.statuses.values())
        seconds = self.track.nominal(start, end)
        nominal_ms = sorted(
            self.track.nominal(scheduled, answered) * 1e3 for scheduled, answered in self.answered
        )
        raw_ms = sorted((answered - scheduled) * 1e3 for scheduled, answered in self.answered)
        return {
            "seconds": seconds,
            "raw_seconds": end - start,
            "offered_raw_rps": self.rate,
            "rps": completed / seconds,
            "completed": completed,
            "status_200": self.statuses.get(200, 0),
            "other_statuses": {str(k): v for k, v in self.statuses.items() if k != 200},
            "transport_errors": self.errors,
            "raw_max_send_lag_ms": self.max_send_lag * 1e3,
            "p50_ms": percentile(nominal_ms, 0.50),
            "p99_ms": percentile(nominal_ms, 0.99),
            "max_ms": nominal_ms[-1] if nominal_ms else None,
            "raw_p50_ms": percentile(raw_ms, 0.50),
            "raw_p99_ms": percentile(raw_ms, 0.99),
        }


def _ms(value) -> str:
    return "n/a" if value is None else f"{value:.2f}ms"


async def slo_search(address, track, capacity: dict, *, smoke: bool) -> list:
    """Open-loop steps down ``SLO_FACTORS`` x capacity until one holds the SLO.

    A step holds it when every request completed 200 and its p99 (from
    scheduled arrival) is under ``P99_TARGET_MS``.  Descending order means
    the first such step IS the latency-bounded throughput, so the search
    stops there.  Smoke runs take a single short step.
    """
    steps = []
    for index, factor in enumerate((0.5,) if smoke else SLO_FACTORS):
        # the schedule is wall-clock, so the rate is a share of the
        # wall-clock capacity measured seconds ago on the same core
        rate = max(200.0, capacity["raw_rps"] * factor)
        requests = 1500 if smoke else int(rate * 3)  # ~3s of traffic per step
        step = await OpenLoopRun(
            address, track, rate=rate, requests=requests, connections=4,
            seed=20150413 + index,  # the paper's ICDE publication date
        ).run()
        step["key"] = {"phase": "open_loop", "load_factor": factor, "requests": requests}
        step["holds_slo"] = (
            step["status_200"] == requests
            and not step["transport_errors"]
            and step["p99_ms"] < P99_TARGET_MS
        )
        steps.append(step)
        print(
            f"  open loop @ {factor:.0%} capacity ({step['rps']:,.0f} q/s): "
            f"{step['status_200']}/{requests} ok  "
            f"p50={_ms(step['p50_ms'])}  p99={_ms(step['p99_ms'])}  "
            f"(raw p99 {_ms(step['raw_p99_ms'])})",
            flush=True,
        )
        if step["holds_slo"]:
            break
    return steps


async def run_phases(address, track, payload: dict, smoke: bool) -> None:
    sizes = (SMOKE_PROBE_REQUESTS,) if smoke else (SMOKE_PROBE_REQUESTS, FULL_PROBE_REQUESTS)
    for requests_per_client in sizes:
        capacity = await probe_capacity(address, track, requests_per_client)
        payload["cases"].append(capacity)
        print(
            f"  capacity ({capacity['key']['requests']} requests): "
            f"{capacity['rps']:,.0f} q/s warm  (raw {capacity['raw_rps']:,.0f} q/s)",
            flush=True,
        )
    steps = await slo_search(address, track, capacity, smoke=smoke)
    payload["cases"] += steps
    held = steps[-1] if steps[-1]["holds_slo"] else None
    payload["slo"] = {
        "target_p99_ms": P99_TARGET_MS,
        "capacity_rps": capacity["rps"],
        "met": held is not None,
        "load_factor": held["key"]["load_factor"] if held else None,
        "rps": held["rps"] if held else None,
        "p99_ms": held["p99_ms"] if held else None,
    }


def acceptance_failures(payload: dict, *, smoke: bool) -> list:
    failures = []
    for case in payload["cases"]:
        if case["key"]["phase"] == "capacity" and case["non_200"]:
            failures.append(f"capacity probe saw non-200s: {case['non_200']}")
    steps = [case for case in payload["cases"] if case["key"]["phase"] == "open_loop"]
    last = steps[-1]
    if last["completed"] != last["key"]["requests"]:
        failures.append(
            f"open loop dropped requests: {last['completed']}/{last['key']['requests']}"
        )
    if last["other_statuses"] or last["transport_errors"]:
        failures.append(
            f"open loop below capacity saw failures: {last['other_statuses']}, "
            f"{last['transport_errors']} transport errors"
        )
    if not smoke and not payload["slo"]["met"]:
        tried = ", ".join(f"{s['rps']:,.0f} q/s -> p99 {_ms(s['p99_ms'])}" for s in steps)
        failures.append(f"no offered rate held p99 < {P99_TARGET_MS}ms ({tried})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized phases")
    parser.add_argument("--out", default="BENCH_async.json", help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed artifact to diff against (fails on regression)",
    )
    args = parser.parse_args(argv)
    baseline = artifact.load_baseline(args.baseline) if args.baseline else None

    calibrate.pin_to_one_core()
    track = calibrate.SpeedTrack()
    payload = artifact.new_payload("async", "smoke" if args.smoke else "full")
    print(f"bench_async_server: shards={SHARDS} ({payload['mode']} phases)")
    command = [
        sys.executable, "-m", "repro", "serve", "--shards", str(SHARDS),
        "--port", "0", "--max-inflight", str(MAX_INFLIGHT),
    ]
    env = dict(os.environ, PYTHONPATH=str(artifact.ROOT / "src"))
    with loadgen.ServerProcess(command, env, track) as server:
        for request in REQUESTS:  # every shape of the mix is planned before the clock starts
            status, body = loadgen.request_once(server.address, request)
            if status != 200:
                raise SystemExit(f"warm-up request answered {status}: {body[:200]!r}")
        asyncio.run(run_phases(server.address, track, payload, args.smoke))

    slo = payload["slo"]
    if slo["met"]:
        print(
            f"  latency-bounded throughput: {slo['rps']:,.0f} q/s "
            f"({slo['load_factor']:.0%} of capacity) holds p99 < {P99_TARGET_MS:.0f}ms "
            f"(measured p99 {slo['p99_ms']:.2f}ms)"
        )
    artifact.write(Path(args.out), payload)
    print(f"  wrote {args.out}")

    failures = acceptance_failures(payload, smoke=args.smoke)
    if baseline is not None and not artifact.check_baseline(payload, baseline, MAX_REGRESSION):
        failures.append(f"slower than {MAX_REGRESSION}x the committed artifact")
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  ok: all acceptance targets met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
