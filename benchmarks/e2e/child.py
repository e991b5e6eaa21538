"""One workload, in this (fresh) process: set up, measure, check, report.

``run.py`` starts this file once per run and reads the JSON object it
prints last.  ``--trace 0`` is the timing run (tracing off, end-to-end
metrics); ``--trace 1`` is the traced pass (per-layer metrics).
``--setup-only`` stops after set-up, so ``run.py`` can time set-up several
times in fresh processes.  Timed work never includes an answer check;
every reply and result is kept and checked after the clock stops.  The
process pins itself, and so the servers it starts, to one core, and every
time it reports is in nominal-speed seconds (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from collections import OrderedDict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402
from trace import Tracer, median_ms  # noqa: E402

from repro.optimizer import OptimizerConfig, optimize  # noqa: E402

MIN_ROUNDS = 3  # a median needs at least three
#: Timed HTTP rounds that are run and checked but not counted: the first
#: rounds after a server boots are 5-10 % slower than the ones that follow.
WARMUP_ROUNDS = 2
MAX_FAILURES_LISTED = 8

#: every per-layer metric BENCHMARK.json lists; a workload that never
#: enters a layer reports 0 for it
PER_LAYER = tuple(
    metric["name"]
    for metric in json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
)


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def band_mean(values: List[float], low: float, high: float) -> float:
    """Mean of the samples ranked between two quantiles.

    ``p50_ms`` is the 25-75 % band (the interquartile mean) and ``p95_ms``
    the 92.5-97.5 % band rather than single order statistics: the cases of
    ``plan_cold`` and the statements of ``execute`` are few and far apart
    in cost, so the one sample at the median is whichever statement the
    seed put there (a 40-60 % band still moved 10 % with the seed).
    """
    ordered = sorted(values)
    first = int(low * len(ordered))
    last = max(first + 1, int(high * len(ordered)))
    return sum(ordered[first:last]) / (last - first)


def p50(values: List[float]) -> float:
    return band_mean(values, 0.25, 0.75)


def p95(values: List[float]) -> float:
    return band_mean(values, 0.925, 0.975)


class Failures:
    """Failed operations, counted; the first few kept as text."""

    def __init__(self) -> None:
        self.count = 0
        self.listed: List[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.listed) < MAX_FAILURES_LISTED:
            self.listed.append(message)


def setup_seconds(track: calibrate.SpeedTrack, spawned_at: float, ready_at: float) -> float:
    """Set-up at nominal speed: from when ``run.py`` spawned this process
    (``time.time()`` seconds) until *ready_at* (``perf_counter()`` seconds)."""
    now = perf_counter()
    return track.nominal(now - (time.time() - spawned_at), ready_at)


# -- plan_cold -----------------------------------------------------------------


def run_plan_cold(args, track: calibrate.SpeedTrack) -> dict:
    cases = workloads.plan_cases(args.seed, args.scale)
    configs = [OptimizerConfig(strategy=c.strategy, cache_capacity=None) for c in cases]
    track.sample()
    setup_s = setup_seconds(track, args.spawned_at, perf_counter())
    if args.setup_only:
        return {"setup_s": setup_s}
    if args.trace:
        return trace_plan_cold(args, cases)

    failures = Failures()
    walls: List[List[float]] = [[] for _ in cases]
    started = perf_counter()
    passes = 0
    while passes < MIN_ROUNDS or perf_counter() - started < args.seconds:
        outcomes = []
        for index, case in enumerate(cases):
            query = case.build()
            layers.cold_start()
            speed = calibrate.cpu_speed()
            t0 = perf_counter()
            result = optimize(query, config=configs[index], cache=None)
            wall = perf_counter() - t0
            speed = (speed + calibrate.cpu_speed()) / 2
            walls[index].append(wall * speed)
            outcomes.append((result.cost, result.ccp_count))
        passes += 1
        for case, (cost, ccps) in zip(cases, outcomes):
            if cost != case.cost or ccps != case.ccp_count:
                failures.add(
                    f"{case.label}: cost {cost!r} ccps {ccps}, reference engine "
                    f"says {case.cost!r} / {case.ccp_count}"
                )
    per_case = [median(w) for w in walls]
    plan_s = sum(per_case)
    return {
        "setup_s": setup_s,
        "attempted": passes * len(cases),
        "failed": failures.count,
        "failures": failures.listed,
        "metrics": {
            "rps": len(cases) / plan_s,
            "p50_ms": p50(per_case) * 1e3,
            "p95_ms": p95(per_case) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "info": {
            "cases": len(cases), "passes": passes, "max_ms": max(per_case) * 1e3,
            "plan_s": plan_s,
            **{
                "plan_s." + group: sum(s for c, s in zip(cases, per_case) if c.group == group)
                for group in workloads.PLAN_GROUPS
            },
        },
    }


def trace_plan_cold(args, cases) -> dict:
    untraced_wall = layers.replay_plan_cases(cases, Tracer(enabled=False), layers.Counters())
    tracer, counters = Tracer(), layers.Counters()
    traced_wall = layers.replay_plan_cases(cases, tracer, counters)
    heaviest = max(cases, key=lambda c: c.work)
    metrics = layer_metrics(tracer, counters, untraced_wall, traced_wall)
    metrics["optimizer.peak_alloc_mb"] = layers.peak_alloc_mb(heaviest)
    if args.trace_out:
        tracer.write(args.trace_out)
    return {"attempted": 2 * len(cases), "failed": 0, "failures": [],
            "metrics": metrics, "info": {"spans": tracer.summary()}}


def layer_metrics(tracer: Tracer, counters: dict, untraced_wall: float,
                  traced_wall: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric the spans and result counters determine."""
    durations = tracer.durations_ms()
    metrics = {}
    for name in PER_LAYER:
        if "_ms" in name:
            # "sql.bind_ms" is the median "sql.bind" span,
            # "optimizer.optimize_ms.eager" the median "optimizer.optimize.eager"
            metrics[name] = median_ms(durations, name.replace("_ms", ""))
        else:
            metrics[name] = float(counters.get(name, 0))
    # parse_select() lexes first; the lex probe takes that share back out
    metrics["sql.parse_ms"] = max(0.0, metrics["sql.parse_ms"] - metrics["sql.lex_ms"])
    calls = counters["hypergraph.neighborhood_calls"]
    if calls:
        metrics["hypergraph.memo_hit_ratio"] = counters["hypergraph.memo_hits"] / calls
    for group in workloads.PLAN_GROUPS:
        built = counters["optimizer.plans_built." + group]
        if built:
            spent_ms = sum(durations["optimizer.optimize." + group])
            metrics["optimizer.survivor_ratio." + group] = (
                counters["optimizer.plans_kept." + group] / built
            )
            metrics["optimizer.us_per_plan." + group] = spent_ms * 1e3 / built
    run_ms = sum(durations.get("exec.run", ()))
    if run_ms:
        metrics["exec.rows_per_s"] = counters["exec.rows_in"] / (run_ms / 1e3)
    metrics["trace.coverage"] = tracer.coverage()
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


# -- serving workloads -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Round:
    """One closed-loop round, in nominal-speed seconds (``calibrate.SpeedTrack``).

    The numbers are only read after the run, when the track holds every
    sample: a reply's latency is the track's integral from send to answer.
    """

    def __init__(self, requests, outcome):
        self.requests = requests
        self.started, self.ended, self.sent, self.answered, self.replies = outcome

    def rps(self, track) -> float:
        return len(self.requests) / track.nominal(self.started, self.ended)

    def speed(self, track) -> float:
        return track.nominal(self.started, self.ended) / (self.ended - self.started)

    def latencies_ms(self, track):
        """``(slot, latency)`` of every planned request (not the /stats_update)."""
        return [
            (request.slot, track.nominal(sent, answered) * 1e3)
            for request, sent, answered in zip(self.requests, self.sent, self.answered)
            if request.slot is not None
        ]


def send_round(server, requests, track, failures: Failures, label: str) -> Round:
    round_ = Round(requests, loadgen.run_round(server.address, requests, track))
    for request, (status, body) in zip(requests, round_.replies):
        if status != 200:
            failures.add(f"{label}: {request.path} answered {status}: {body[:120]!r}")
    return round_


def server_stats(server) -> dict:
    status, body = loadgen.get(server.address, "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return json.loads(body)


def stats_delta(before: dict, after: dict) -> Dict[str, float]:
    out = {}
    for name in ("hits", "misses", "evictions", "marked_stale", "stale_hits", "refreshed"):
        out["service.cache." + name] = float(after["cache"][name] - before["cache"][name])
    lookups = out["service.cache.hits"] + out["service.cache.misses"]
    out["service.cache.hit_ratio"] = out["service.cache.hits"] / lookups if lookups else 0.0
    for name in ("recosted", "replanned"):
        out["service." + name] = float(after["plans"][name] - before["plans"][name])
    return out


def serve(workload, track, failures: Failures, min_rounds: int, seconds: float,
          setup_only: bool = False) -> dict:
    """Boot *workload*'s server, warm it, run rounds for *seconds*, stop it."""
    rounds: List[Round] = []
    with loadgen.ServerProcess(loadgen.server_argv(workload), child_env(), track) as server:
        warm = workload.warm_round()
        send_round(server, warm, track, failures, "warm round")
        track.sample()
        out = {"warm": warm, "rounds": rounds, "ready_at": perf_counter()}
        if setup_only or failures.count:
            return out
        before = server_stats(server)
        started = perf_counter()
        while len(rounds) < min_rounds or perf_counter() - started < seconds:
            requests = workload.round(len(rounds))
            rounds.append(send_round(server, requests, track, failures, f"round {len(rounds)}"))
        track.sample()
        out["counters"] = stats_delta(before, server_stats(server))
        out["rss_mb"] = server.peak_rss_mb()
    return out


def tier_metrics(workload, rounds: List[Round], track) -> Dict[str, float]:
    """``rps``, ``p50_ms``, ``p95_ms`` of the counted rounds, plus what is printed beside them."""
    rounds = rounds[min(WARMUP_ROUNDS, len(rounds) - 1):]
    per_round = [round_.latencies_ms(track) for round_ in rounds]
    latencies_ms = [ms for latencies in per_round for _slot, ms in latencies]
    if workload.once_per_round:
        # Few operations, far apart in cost, each once a round (execute): as
        # on plan_cold, take each operation's median over the rounds first —
        # which of them a request queued behind changes from round to round.
        by_slot: Dict[int, List[float]] = {}
        for latencies in per_round:
            for slot, ms in latencies:
                by_slot.setdefault(slot, []).append(ms)
        latencies_ms = [median(values) for values in by_slot.values()]
    return {
        "rps": median(round_.rps(track) for round_ in rounds),
        "p50_ms": p50(latencies_ms),
        "p95_ms": p95(latencies_ms),
        "samples": len(latencies_ms),
        "p99_ms": percentile(latencies_ms, 0.99),
        "max_ms": max(latencies_ms),
    }


def run_http(args, name: str, track: calibrate.SpeedTrack) -> dict:
    workload = workloads.http_workload(name, args.seed, args.scale)
    failures = Failures()
    # the traced pass needs one round's counters and p50, no more
    min_rounds, seconds = (
        (WARMUP_ROUNDS + 1, 0.0) if args.trace else (WARMUP_ROUNDS + MIN_ROUNDS, args.seconds)
    )
    served = serve(workload, track, failures, min_rounds, seconds, args.setup_only)
    warm, rounds = served["warm"], served["rounds"]
    setup_s = setup_seconds(track, args.spawned_at, served["ready_at"])
    if not rounds:
        return {"setup_s": setup_s, "attempted": len(warm),
                "failed": failures.count, "failures": failures.listed}
    counters = served["counters"]
    check_replies(workload, warm, rounds, counters, failures)
    report = {
        "setup_s": setup_s,
        "attempted": sum(len(r.requests) for r in rounds),
        "failed": failures.count,
        "failures": failures.listed,
    }
    tier = tier_metrics(workload, rounds, track)
    if args.trace:
        requests = [request for round_ in rounds for request in round_.requests]
        report.update(trace_http(args, workload, warm, requests, counters, tier, track))
        return report
    report["metrics"] = {
        "rps": tier["rps"], "p50_ms": tier["p50_ms"], "p95_ms": tier["p95_ms"],
        "peak_rss_mb": served["rss_mb"],
    }
    report["info"] = {
        "rounds": len(rounds), "samples": tier["samples"],
        "p99_ms": tier["p99_ms"], "max_ms": tier["max_ms"],
        "round_rps": [r.rps(track) for r in rounds],
        "round_speed": [r.speed(track) for r in rounds],
        "speed": {"samples": len(track.speeds), "median": median(track.speeds),
                  "min": min(track.speeds), "max": max(track.speeds)},
        "counters": counters,
    }
    return report


def trace_http(args, workload, warm, requests, counters, tier: dict, track) -> dict:
    dataset, load_s = None, 0.0
    if workload.dataset is not None:
        from repro.data import dataset_from_spec

        t0 = perf_counter()
        dataset = dataset_from_spec(workload.dataset)
        load_s = (perf_counter() - t0) * calibrate.cpu_speed()
    replays = []
    for enabled in (False, True):
        replay = layers.ServingReplay(workload, Tracer(enabled), dataset)
        for rid, request in enumerate(list(warm) + list(requests)):
            replay.handle(rid, request)
        replays.append(replay)
    untraced, traced = replays
    metrics = layer_metrics(traced.tracer, traced.counters, untraced.wall, traced.wall)
    metrics.update(counters)
    metrics["data.load_s"] = load_s
    info = {"spans": traced.tracer.summary(), "tier_p50_ms": tier["p50_ms"]}
    in_process_ms = layers.tier_path_ms(traced.tracer, "async")
    metrics["asyncserver.transport_ms"] = tier["p50_ms"] - in_process_ms
    info["in_process_path_ms"] = in_process_ms
    if workload.name == "serve_warm":
        # The identical sequence against the threaded tier (ROADMAP item 2).
        sync = workloads.http_workload(workload.name, args.seed, args.scale, tier="sync")
        failures = Failures()
        served = serve(sync, track, failures, WARMUP_ROUNDS + MIN_ROUNDS, 0.0)
        if failures.count or not served["rounds"]:
            raise RuntimeError(f"threaded tier failed: {failures.listed}")
        sync_tier = tier_metrics(sync, served["rounds"], track)
        sync_path_ms = layers.tier_path_ms(traced.tracer, "sync")
        for name in ("rps", "p50_ms", "p95_ms"):
            metrics["sync." + name] = sync_tier[name]
        metrics["server.transport_ms"] = sync_tier["p50_ms"] - sync_path_ms
        info["sync_in_process_path_ms"] = sync_path_ms
    if args.trace_out:
        traced.tracer.write(args.trace_out)
    return {"metrics": metrics, "info": info}


# -- answer checks ---------------------------------------------------------------


def check_replies(workload, warm, rounds, counters, failures: Failures) -> None:
    simulated_hits = simulated = observed_hits = 0
    lru: "OrderedDict[str, None]" = OrderedDict()

    def touch(statement) -> bool:
        key = statement.canonical_of or statement.sql
        hit = key in lru
        lru[key] = None
        lru.move_to_end(key)
        if len(lru) > workload.cache_capacity:
            lru.popitem(last=False)
        return hit

    for request in warm:
        touch(request.statement)
    drifted = False
    canonical = CanonicalAnswers(workload) if workload.endpoint == "/execute" else None
    for index, round_ in enumerate(rounds):
        for request, (status, body) in zip(round_.requests, round_.replies):
            if request.statement is None:
                drifted = True
                continue
            predicted_hit = touch(request.statement)
            if status != 200:
                continue  # already counted by send_round
            reply = json.loads(body)
            simulated += 1
            simulated_hits += predicted_hit
            observed_hits += bool(reply.get("cache_hit"))
            problem = None
            if reply.get("degraded"):
                problem = "degraded plan"
            elif not workload.churn and not reply.get("cache_hit"):
                problem = "a miss, but the sequence makes every request a hit"
            elif not drifted and reply.get("cost") != request.statement.cost:
                problem = f"cost {reply.get('cost')!r}, reference engine says {request.statement.cost!r}"
            elif canonical is not None:
                problem = canonical.check(request, reply)
            if problem:
                failures.add(f"round {index}: {problem}: {request.statement.sql[:80]}")
    if workload.churn:
        # Two connections and background revalidation reorder the LRU a
        # little, so the per-request prediction is only checked in aggregate.
        observed, predicted = observed_hits / simulated, simulated_hits / simulated
        if abs(observed - predicted) > 0.05:
            failures.add(f"hit ratio {observed:.3f}, an LRU of the sequence predicts {predicted:.3f}")
    elif counters["service.cache.hit_ratio"] != 1.0:
        failures.add(f"warm workload but /stats shows hit ratio {counters['service.cache.hit_ratio']}")


class CanonicalAnswers:
    """``/execute`` replies against the canonical plan run in-process."""

    def __init__(self, workload):
        from repro.data import dataset_from_spec
        from repro.sql import Catalog

        self.dataset = dataset_from_spec(workload.dataset)
        self.catalog = Catalog.from_tpch()
        self.rows: Dict[str, list] = {}

    def _canonical(self, sql: str) -> list:
        if sql not in self.rows:
            from repro.algebra.values import NULL
            from repro.exec import run_plan
            from repro.query.canonical import canonical_plan
            from repro.sql import parse_query

            query = parse_query(sql, self.catalog)
            relation = run_plan(
                canonical_plan(query), self.dataset.database_for(query), executor="columnar"
            )
            self.rows[sql] = [
                {a: (None if row[a] is NULL else row[a]) for a in relation.attributes}
                for row in relation
            ]
        return self.rows[sql]

    def check(self, request, reply) -> Optional[str]:
        expected = self._canonical(request.statement.sql)
        limit = request.body.get("limit", workloads.DEFAULT_EXECUTE_LIMIT)
        want = len(expected) if limit is None else min(limit, len(expected))
        if reply.get("row_count") != want or len(reply["rows"]) != want:
            return f"row_count {reply.get('row_count')}, canonical plan gives {want}"
        unmatched: Dict[tuple, list] = {}
        for row in expected:
            unmatched.setdefault(_row_key(row.values()), []).append(list(row.values()))
        columns = reply["columns"]
        order = [columns.index(a) for a in expected[0]] if expected else []
        for row in reply["rows"]:
            values = [row[i] for i in order]
            candidates = unmatched.get(_row_key(values), [])
            for at, candidate in enumerate(candidates):
                if all(_same(a, b) for a, b in zip(values, candidate)):
                    del candidates[at]
                    break
            else:
                return f"row {values!r} is not in the canonical result"
        return None


def _row_key(values) -> tuple:
    # numbers only to six digits (3 and 3.0 alike): the key finds candidates,
    # _same() decides
    return tuple(
        f"{v:.6g}" if isinstance(v, (int, float)) and not isinstance(v, bool) else v
        for v in values
    )


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.time()
    calibrate.pin_to_one_core()
    track = calibrate.SpeedTrack()
    if args.workload == "plan_cold":
        report = run_plan_cold(args, track)
    else:
        report = run_http(args, args.workload, track)
    report["workload"] = args.workload
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
