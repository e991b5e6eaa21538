"""The end-to-end benchmark: one command, every metric, every answer checked.

    python3 benchmarks/e2e/run.py                      # all workloads, timing + traced pass
    python3 benchmarks/e2e/run.py --workload execute   # one workload, both passes
    python3 benchmarks/e2e/run.py --repeat-check       # two sets of 3 runs; must agree
    python3 benchmarks/e2e/run.py --selftest           # ~1/20 size, all checks, < 1 min
    python3 benchmarks/e2e/run.py --regen-golden       # rewrite pool.json (reference engine)

    # the form the benchmark driver uses: one workload, one pass, JSON on the last line
    python3 benchmarks/e2e/run.py --workload serve_warm --seed 7 --seconds 20 --trace 0

Each run of a workload happens in a fresh subprocess (``child.py``).  For
the timing pass set-up is also run in ``SETUP_REPEATS - 1`` further fresh
processes that stop once set up, and ``setup_s`` is the median.  The exit
code is non-zero if any answer check failed.  See README.md for what the
numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

SETUP_REPEATS = 3
REPEAT_CHECK_RUNS = 3  # per set; a set's number is the median of its runs
SELFTEST_SCALE = 0.05
#: per-layer counters that must repeat exactly between two runs of one
#: commit and seed (``--repeat-check``); the cache ones only where every
#: request is a hit
EXACT_COUNTERS = (
    "hypergraph.ccps", "optimizer.plans_built.eager", "optimizer.plans_built.single",
    "optimizer.dominance_checks",
)
EXACT_ON_WARM = (
    "service.cache.hits", "service.cache.misses", "service.cache.evictions",
    "service.cache.hit_ratio",
)


def child(workload: str, args, trace: int, setup_only: bool = False,
          trace_out: Optional[str] = None) -> dict:
    """Run ``child.py`` once; its report, or a report of how it died."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"workload": workload, "attempted": 1, "failed": 1,
                "failures": [f"child exited with code {done.returncode}"]}
    return json.loads(lines[-1])


def run_workload(workload: str, args, trace: int) -> dict:
    """One pass of one workload: ``{correct, attempted, failed, metrics, ...}``."""
    trace_out = None
    if trace and args.trace_out:
        trace_out = f"{args.trace_out}.{workload}.jsonl"
    report = child(workload, args, trace, trace_out=trace_out)
    if not trace and "metrics" in report:
        setups = [report["setup_s"]]
        for _ in range(0 if args.selftest else SETUP_REPEATS - 1):
            again = child(workload, args, trace, setup_only=True)
            if "setup_s" not in again:
                report["failed"] += 1
                report["failures"] += again["failures"]
                break
            setups.append(again["setup_s"])
        report["metrics"]["setup_s"] = median(setups)
        report["info"]["setup_s_samples"] = setups
    spec = PER_LAYER if trace else END_TO_END
    metrics = report.get("metrics", {})
    if set(metrics) != set(spec):
        report["failed"] = report.get("failed", 0) + 1
        report.setdefault("failures", []).append(
            f"metrics {sorted(set(metrics) ^ set(spec))} do not match BENCHMARK.json"
        )
    report["metrics"] = {
        name: {"value": metrics[name], "unit": spec[name]["unit"]}
        for name in spec if name in metrics
    }
    report["correct"] = report["failed"] == 0
    return report


def print_report(report: dict, trace: int) -> None:
    title = f"{report['workload']} · {'traced pass' if trace else 'timing run'}"
    print(f"== {title}: {report['attempted']} ops, {report['failed']} failed")
    for failure in report.get("failures", []):
        print(f"   FAILED {failure}")
    for name, metric in report["metrics"].items():
        print(f"   {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    info = report.get("info", {})
    for name, row in info.get("spans", {}).items():
        share = "" if row["share"] is None else f"  {row['share']:6.1%} of request"
        print(f"   span {name:26s} {row['median_ms']:>11.4f} ms x {row['calls']}{share}")
    extras = {k: v for k, v in info.items() if k != "spans"}
    if extras:
        print("   " + json.dumps(extras))


def driver_line(report: dict) -> str:
    return json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_set(args, names: List[str]) -> Dict[str, Dict[int, dict]]:
    results: Dict[str, Dict[int, dict]] = {}
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            report = run_workload(name, args, trace)
            print_report(report, trace)
            results[name][trace] = report
    return results


def cross_checks(results) -> List[str]:
    """What the numbers must show for the instrument itself to be believed."""
    problems = []

    def layer(workload, metric):
        report = results.get(workload, {}).get(1)
        return report["metrics"][metric]["value"] if report and metric in report["metrics"] else None

    for workload in results:
        coverage = layer(workload, "trace.coverage")
        if coverage is not None and coverage < 0.9:
            problems.append(f"{workload}: trace.coverage {coverage:.3f} < 0.9")
    if layer("serve_churn", "service.cache.evictions") == 0:
        problems.append("serve_churn: no evictions — the cache was never full")
    if layer("serve_churn", "service.cache.marked_stale") == 0:
        problems.append("serve_churn: nothing was marked stale — the drift never landed")
    if layer("serve_churn", "service.recosted") == 0 and layer("serve_churn", "service.replanned") == 0:
        problems.append("serve_churn: nothing was recosted or replanned")
    return problems


def failed_runs(results, label: str) -> List[str]:
    return [
        f"{name} ({'traced pass' if trace else 'timing run'}, {label}): {report['failed']} failed"
        for name, passes in results.items() for trace, report in passes.items()
        if not report["correct"]
    ]


def compare_sets(first: List[dict], second: List[dict]) -> List[str]:
    """Two sets of runs side by side: medians within bound, exact counters identical."""
    problems = []
    print(f"\n{'workload':18s} {'metric':30s} {'first':>14s} {'second':>14s}  change")
    for workload in first[0]:
        for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
            for name in spec:
                values = [
                    [run[workload][trace]["metrics"][name]["value"] for run in runs
                     if name in run[workload][trace]["metrics"]]
                    for runs in (first, second)
                ]
                if not all(values):
                    continue
                x, y = median(values[0]), median(values[1])
                change = (y - x) / x if x else (0.0 if y == x else float("inf"))
                exact = name in EXACT_COUNTERS or (
                    name in EXACT_ON_WARM and workload == "serve_warm"
                )
                verdict = ""
                if trace == 0 and abs(change) > spec[name]["bound"]:
                    verdict = f"  OUTSIDE {spec[name]['bound']:.0%}"
                    problems.append(f"{workload} {name}: {x:.6g} vs {y:.6g} ({change:+.1%})")
                elif exact and len(set(values[0] + values[1])) != 1:
                    verdict = "  NOT IDENTICAL"
                    problems.append(f"{workload} {name}: {values} must repeat exactly")
                if trace == 0 or exact:
                    print(f"{workload:18s} {name:30s} {x:>14.6g} {y:>14.6g}  {change:+.1%}{verdict}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long the timing run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: run only the timing (0) or traced (1) pass "
                        "of --workload and print one JSON object last")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced passes' spans to <path>.<workload>.jsonl")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()
    args.scale = 1.0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark runs the "
              "program from source", file=sys.stderr)
        return 2

    if args.regen_golden:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import golden

        golden.regenerate()
        return 0

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        report = run_workload(args.workload, args, args.trace)
        print_report(report, args.trace)
        print(driver_line(report))
        return 0 if report["correct"] else 1

    if args.selftest:
        args.scale, args.seconds = SELFTEST_SCALE, 0.0
    names = [args.workload] if args.workload else WORKLOADS
    print(f"# {platform.platform()} · python {platform.python_version()} · "
          f"nproc {os.cpu_count()} · seed {args.seed}")
    if args.repeat_check:
        # the sets alternate, so a slow quarter of an hour hits both alike
        first, second = [], []
        for _ in range(REPEAT_CHECK_RUNS):
            first.append(run_set(args, names))
            second.append(run_set(args, names))
        problems = cross_checks(first[0])
        for label, runs in (("first set", first), ("second set", second)):
            for results in runs:
                problems += failed_runs(results, label)
        problems += compare_sets(first, second)
    else:
        results = run_set(args, names)
        problems = failed_runs(results, "selftest" if args.selftest else "full size")
        if not args.selftest:
            problems += cross_checks(results)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
