"""Fig. 16 at execution scale: does the Cout cost model predict runtime?

The paper's Fig. 16 plots *optimization* runtime; this harness closes
the loop the paper leaves open — it runs the plans the strategies
produce against real SF-scaled TPC-H data through the columnar executor
(:mod:`repro.exec`) and records two things:

* **speedups** — interpreter vs. columnar on the same plan and data,
  the executor tier's headline (the interpreter is the executable spec;
  it is infeasible beyond tiny scale factors, which is exactly why the
  columnar backend exists.  Q3 at SF 0.01 measures ~5000×).
* **correlation** — per (query, strategy) pair: the optimizer's Cout
  cost against measured columnar wall time, across ``ea-prune`` / ``h1``
  / ``h2`` / ``dphyp`` on Ex, Q3, Q5 and Q10.  Pooled log-log Pearson
  (and Spearman rank) correlation at the run's largest scale factor is
  the recorded figure: cheaper plans must actually run faster.

Usage::

    python benchmarks/bench_fig16_scale.py               # full run
    python benchmarks/bench_fig16_scale.py --quick       # CI smoke
    python benchmarks/bench_fig16_scale.py --quick \\
        --baseline benchmarks/BENCH_exec.json            # regression gate

Full runs measure the correlation sweep at SF 0.1 (plus the SF 0.01
rows the quick mode reuses, so the committed artifact doubles as the CI
baseline) and assert the committed gates: every head-to-head speedup
≥ 10× and pooled log-log Pearson ≥ 0.5 at the largest scale.  Quick
runs skip the gates and instead diff against ``--baseline``: same-keyed
(query, scale, strategy, executor, phase) cases slower than
``--max-regression`` (default 2.0×) fail the run; baseline cases under
50 ms are noise and skipped.  The JSON (format and gate: ``artifact.py``)
is rewritten after every case, so partial results survive interruption.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
from pathlib import Path

import artifact
import calibrate
from repro.exec import run_plan
from repro.optimizer import OptimizerConfig, optimize
from repro.tpch.datagen import scaled_dataset
from repro.tpch.queries import TPCH_QUERIES

#: The Fig. 16/17 plan generators whose plans the sweep executes.  All
#: four run the same lowering and backend — only the join order and
#: aggregation placement differ, which is precisely what Cout prices.
STRATEGIES = ("ea-prune", "h1", "h2", "dphyp")

QUERIES = ("Ex", "Q3", "Q5", "Q10")

#: Head-to-head (query, scale_factor) pairs: the ea-prune plan runs
#: under both executors.  SF 0.001 keeps the interpreter under a second
#: per query; the lone SF 0.01 row is the headline (the interpreter
#: needs ~80 s there, so it runs once, unrepeated).
FULL_HEAD_TO_HEAD = [("Q3", 0.001), ("Q5", 0.001), ("Q10", 0.001), ("Q3", 0.01)]
QUICK_HEAD_TO_HEAD = [("Q3", 0.001), ("Q10", 0.001)]

#: Correlation-sweep scale factors.  The full list is a superset of the
#: quick list so the committed full artifact contains every case CI's
#: quick run wants to baseline-diff.
FULL_SCALES = (0.01, 0.1)
QUICK_SCALES = (0.01,)

#: (query, scale_factor) → minimum interpreter/columnar speedup,
#: asserted on full runs.  10× is the committed
#: executor-tier target; measured values are 70–380× at SF 0.001 and
#: ~5000× at SF 0.01, so the floor leaves orders of magnitude of
#: margin for slow machines.
SPEEDUP_TARGETS = {
    ("Q3", 0.001): 10.0,
    ("Q5", 0.001): 10.0,
    ("Q10", 0.001): 10.0,
    ("Q3", 0.01): 10.0,
}

#: Minimum pooled log-log Pearson correlation (cost vs. runtime) at the
#: run's largest scale factor, asserted on full runs.  Measured ~0.9 at
#: SF 0.1: the spread comes from dphyp's lazy-aggregation plans, which
#: cost orders of magnitude more than EA-Prune's on Ex and run
#: accordingly slower.
CORRELATION_FLOOR = 0.5


def _measure(query_name, scale_factor, strategy, executor, plan, cost, database,
             phase):
    """Time run_plan for one case."""
    result, timing = artifact.measure(lambda: run_plan(plan, database, executor=executor))
    return {
        "key": {
            "query": query_name,
            "scale_factor": scale_factor,
            "strategy": strategy,
            "executor": executor,
            "phase": phase,
        },
        **timing,
        "cost": cost,
        "rows": len(result),
    }


def _ranks(values: list) -> list:
    """Average ranks (1-based) with ties shared, for Spearman."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _pearson(xs: list, ys: list):
    n = len(xs)
    if n < 3:
        return None
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def _compute_correlation(cases: list) -> dict:
    """Cost-vs-runtime agreement over the columnar sweep, per scale.

    ``pooled`` entries mix the four queries at one scale factor — the
    Fig. 16-style headline.  ``per_query`` records each query's
    cost/runtime spread (max/min over its strategies) so flat rows
    (e.g. Q3, where every strategy picks near-identical orders) are
    visible rather than hidden in the pooled number.
    """
    by_scale = {}
    for case in cases:
        if case["key"]["phase"] == "sweep":  # columnar only
            by_scale.setdefault(case["key"]["scale_factor"], []).append(case)
    out = {}
    for scale, group in sorted(by_scale.items()):
        if len(group) < 3:
            continue
        log_cost = [math.log(c["cost"]) for c in group]
        log_secs = [math.log(max(c["seconds"], 1e-6)) for c in group]
        per_query = {}
        for case in group:
            bucket = per_query.setdefault(
                case["key"]["query"], {"costs": [], "seconds": []}
            )
            bucket["costs"].append(case["cost"])
            bucket["seconds"].append(case["seconds"])
        out[str(scale)] = {
            "points": len(group),
            "pearson_log": _pearson(log_cost, log_secs),
            "spearman": _pearson(_ranks(log_cost), _ranks(log_secs)),
            "per_query": {
                name: {
                    "cost_spread": max(b["costs"]) / min(b["costs"]),
                    "runtime_spread": max(b["seconds"]) / min(b["seconds"]),
                }
                for name, b in sorted(per_query.items())
            },
        }
    return out


def run(head_to_head, scales, out_path: Path, mode: str) -> dict:
    payload = artifact.new_payload("exec", mode)
    payload["correlation"] = {}
    datasets = {}

    def dataset(scale):
        if scale not in datasets:
            started = time.perf_counter()
            datasets[scale] = scaled_dataset(scale)
            # The tables live as long as the run: out of reach of the
            # generation-2 collection a timed plan may trigger, which
            # would otherwise walk them inside one case's best-of-three.
            gc.freeze()
            print(f"generated tpch-sf{scale} in {time.perf_counter() - started:.2f}s",
                  flush=True)
        return datasets[scale]

    def record(case):
        payload["cases"].append(case)
        payload["speedups"] = artifact.pair_speedups(
            payload["cases"], "executor", "columnar", "interpreter"
        )
        payload["correlation"] = _compute_correlation(payload["cases"])
        artifact.write(out_path, payload)
        key = case["key"]
        print(
            f"{key['executor']:11s} {key['query']:3s} sf={key['scale_factor']:<5} "
            f"{key['strategy']:8s}: {case['seconds']:9.3f}s  "
            f"(raw {case['raw_seconds']:.3f}s)  rows={case['rows']}",
            flush=True,
        )

    # Head-to-head: both executors run the ea-prune plan on tiny scales
    # (the interpreter's ceiling), columnar timed first so a mismatch in
    # row sets — checked here too — fails before the slow run.
    mismatches = []
    for query_name, scale in head_to_head:
        query = TPCH_QUERIES[query_name](scale)
        database = dataset(scale).database_for(query)
        result = optimize(query)
        plan = result.plan.node
        columnar_rows = run_plan(plan, database, executor="columnar")
        interpreter_rows = run_plan(plan, database, executor="interpreter")
        if columnar_rows != interpreter_rows:
            mismatches.append((query_name, scale))
            continue
        for executor in ("columnar", "interpreter"):
            record(
                _measure(query_name, scale, "ea-prune", executor, plan,
                         result.cost, database, "head_to_head")
            )

    # Correlation sweep: columnar-only, every strategy's plan, scales
    # the interpreter cannot reach.
    for scale in scales:
        for query_name in QUERIES:
            query = TPCH_QUERIES[query_name](scale)
            database = dataset(scale).database_for(query)
            results = [
                (strategy, optimize(query, config=OptimizerConfig(strategy=strategy)))
                for strategy in STRATEGIES
            ]
            # Un-timed: the first plan to read a database builds its
            # columns' lanes, which every later plan finds cached — timed,
            # that run made the first strategy of each query look slow.
            run_plan(results[0][1].plan.node, database, executor="columnar")
            for strategy, result in results:
                record(
                    _measure(query_name, scale, strategy, "columnar",
                             result.plan.node, result.cost, database, "sweep")
                )

    if mismatches:
        print(f"EXECUTOR MISMATCH (row sets differ): {mismatches}", file=sys.stderr)
        raise SystemExit(2)
    return payload


def check_gates(payload: dict) -> bool:
    """Full-run acceptance: speedup floors + pooled correlation floor."""
    ok = True
    by_key = {
        (s["key"]["query"], s["key"]["scale_factor"]): s["speedup"]
        for s in payload["speedups"]
    }
    for key, minimum in SPEEDUP_TARGETS.items():
        speedup = by_key.get(key)
        if speedup is None:
            print(f"speedup target {key}: NOT MEASURED", file=sys.stderr)
            ok = False
        elif speedup < minimum:
            print(
                f"speedup target {key}: {speedup:.1f}x < required {minimum:.0f}x",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"speedup target {key}: {speedup:.1f}x (>= {minimum:.0f}x) OK")
    if not payload["correlation"]:
        print("correlation: NOT MEASURED", file=sys.stderr)
        return False
    top_scale = max(payload["correlation"], key=float)
    pearson = payload["correlation"][top_scale]["pearson_log"]
    if pearson is None or pearson < CORRELATION_FLOOR:
        print(
            f"correlation at sf{top_scale}: pearson_log={pearson} < "
            f"required {CORRELATION_FLOOR}",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"correlation at sf{top_scale}: pearson_log={pearson:.3f} "
            f"(>= {CORRELATION_FLOOR}) OK"
        )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke case list")
    parser.add_argument("--out", default="BENCH_exec.json", help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed artifact to diff against (fails on regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="maximum tolerated slowdown vs the baseline (default 2.0x)",
    )
    parser.add_argument(
        "--no-gate-check", action="store_true",
        help="skip the full-run speedup/correlation assertions",
    )
    args = parser.parse_args(argv)
    baseline = artifact.load_baseline(args.baseline) if args.baseline else None

    calibrate.pin_to_one_core()
    mode = "quick" if args.quick else "full"
    head_to_head = QUICK_HEAD_TO_HEAD if args.quick else FULL_HEAD_TO_HEAD
    scales = QUICK_SCALES if args.quick else FULL_SCALES
    out_path = Path(args.out)
    payload = run(head_to_head, scales, out_path, mode)

    failed = False
    if mode == "full" and not args.no_gate_check and not check_gates(payload):
        failed = True
    if baseline is not None:
        if not artifact.check_baseline(payload, baseline, args.max_regression):
            failed = True

    for speedup in payload["speedups"]:
        key = speedup["key"]
        print(
            f"speedup {key['query']:3s} sf={key['scale_factor']:<5}: "
            f"{speedup['speedup']:8.1f}x "
            f"({speedup['interpreter_seconds']:.3f}s -> "
            f"{speedup['columnar_seconds']:.3f}s)"
        )
    for scale, corr in sorted(payload["correlation"].items(), key=lambda i: float(i[0])):
        pearson = corr["pearson_log"]
        spearman = corr["spearman"]
        print(
            f"correlation sf={scale}: pearson_log="
            f"{'n/a' if pearson is None else f'{pearson:.3f}'} "
            f"spearman={'n/a' if spearman is None else f'{spearman:.3f}'} "
            f"over {corr['points']} points"
        )
    print(f"wrote {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
