"""Hot-path perf harness: the DP against the seed's, the test oracle.

Times the optimizer on the four classic join topologies
(:mod:`repro.workload.topologies`) per strategy and program, and writes
the results to ``BENCH_hotpath.json`` (format and gate: ``artifact.py``) —
the topology × size scaling that ROADMAP's optimizer items are gated on.

The two programs, named by each case's ``engine`` key (see
docs/architecture.md):

* ``indexed`` — :func:`repro.optimizer.optimize`, the product's one DP
  loop: iterative enumerator, per-vertex hypergraph indexes + memos,
  precomputed per-edge join specs, Pareto-bucket EA-Prune, candidates
  priced before they are built — and, for EA-Prune, an H1 pre-pass whose
  cost is a ceiling no partial plan may exceed (its time is inside the
  measured run).
* ``reference`` — :func:`repro.optimizer.reference.optimize_reference`,
  the seed's loop (recursive enumerator, linear edge scans, uncached
  builder, unordered pairwise-scan buckets, every candidate fully
  built).  Both share a few module-level pure-function memos, so
  recorded speedups *understate* the gap to the true pre-refactor seed.

The harness asserts, per case, that both programs produce the same plan
cost / ccp count / plan, and (in full mode) that the committed EA-Prune
reference→indexed speedup targets hold.  ``plans_built`` is recorded per
engine and not compared, because the indexed program considers fewer
candidates by design, for two reasons:

* an EA-Prune run under its H1 ceiling never prices what lies above it
  (``above_ceiling_share`` says how many of the OpTrees variants it met
  did);
* under Cout every run skips a candidate whose inputs already cost its
  bucket incumbent's threshold — inner buckets under DPhyp, H1 and H2,
  the full relation set under every strategy.

Usage::

    python benchmarks/bench_hotpath.py                  # full run
    python benchmarks/bench_hotpath.py --quick          # CI smoke
    python benchmarks/bench_hotpath.py --quick \\
        --baseline benchmarks/BENCH_hotpath.json        # regression gate

The baseline gate compares same-keyed (topology, n, strategy, engine)
cases and fails (exit 1) when any is slower than ``--max-regression``
(default 2.0×); cases under 50 ms in the baseline are ignored as noise.
The JSON is rewritten after every case, so partial results survive
interruption.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import artifact
import calibrate
from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.planinfo import clear_memo_caches
from repro.optimizer.reference import optimize_reference
from repro.plans.render import plan_shape
from repro.workload import topology_query

#: The program behind each ``engine`` label.
ENGINES = {"indexed": optimize, "reference": optimize_reference}

#: Program lists per case.  ``IR`` rows are the two-way comparisons;
#: ``INDEXED_ONLY`` rows are sizes where the oracle would take tens of
#: minutes (clique-8 EA-Prune) or adds nothing (scale rows).
IR = ("indexed", "reference")
INDEXED_ONLY = ("indexed",)

#: (topology, strategy, sizes, engines).  Ordered so the headline
#: EA-Prune measurements land first, the cheap breadth next, and the
#: slowest rows (clique-8, the scale rows) last — the JSON is written
#: incrementally, so an interrupted run still leaves a usable artifact.
FULL_CASES = [
    ("chain", "ea-prune", [8, 10], IR),
    ("cycle", "ea-prune", [8, 10], IR),
    ("star", "ea-prune", [8, 10], IR),
    ("clique", "ea-prune", [6, 7], IR),
    ("chain", "dphyp", [8, 10, 12, 14], IR),
    ("cycle", "dphyp", [8, 10, 12, 14], IR),
    ("star", "dphyp", [8, 10, 12, 14], IR),
    ("clique", "dphyp", [8, 10], IR),
    ("chain", "h1", [8, 10, 12, 14], IR),
    ("star", "h1", [8, 10, 12, 14], IR),
    ("chain", "h2", [8, 10, 12], IR),
    ("star", "h2", [8, 10, 12], IR),
    ("chain", "ea-all", [6], IR),
    ("star", "ea-all", [6], IR),
    ("clique", "dphyp", [12], INDEXED_ONLY),
    ("star", "h1", [16, 18], INDEXED_ONLY),
    ("clique", "ea-prune", [8], INDEXED_ONLY),
]

QUICK_CASES = [
    ("chain", "ea-prune", [8], IR),
    ("star", "ea-prune", [8], IR),
    ("cycle", "ea-prune", [8], IR),
    ("clique", "ea-prune", [6], IR),
    ("chain", "dphyp", [8], INDEXED_ONLY),
    ("cycle", "dphyp", [8], INDEXED_ONLY),
    ("star", "dphyp", [8], INDEXED_ONLY),
    ("clique", "dphyp", [8], INDEXED_ONLY),
]

#: (topology, n, strategy) → minimum required reference/indexed speedup,
#: asserted on full runs (the committed perf target of the hot-path
#: refactor).  n=10 is the largest size where the oracle finishes in
#: minutes; the measured ratio there is ~3.0× and keeps
#: growing with n (chain-12 measured 7.1×), so 2.5 leaves noise margin
#: without understating the trend.
FULL_SPEEDUP_TARGETS = {
    ("chain", 10, "ea-prune"): 2.5,
    ("star", 10, "ea-prune"): 2.5,
}


def _measure(topology: str, n: int, strategy: str, engine: str) -> tuple:
    """Time one (topology, n, strategy, engine) case, every run of it cold:
    the case record and the plan's shape (compared across engines, not
    recorded)."""

    def cold_start():
        clear_memo_caches()
        return (topology_query(topology, n),)  # a fresh Query: empty hypergraph memos

    run = ENGINES[engine]
    result, timing = artifact.measure(
        lambda query: run(query, config=OptimizerConfig(strategy=strategy)),
        setup=cold_start,
    )
    above_ceiling = result.stats.get("strategy.plans_above_ceiling", 0)
    case = {
        "key": {"topology": topology, "n": n, "strategy": strategy, "engine": engine},
        **timing,
        "cost": result.cost,
        "ccp_count": result.ccp_count,
        "plans_built": result.plans_built,
        "above_ceiling_share": above_ceiling / (above_ceiling + result.plans_built),
        "max_bucket": max(result.table_sizes.values()),
    }
    return case, plan_shape(result.plan.node)


def run(cases, out_path: Path, mode: str) -> dict:
    payload = artifact.new_payload("hotpath", mode)
    mismatches = []
    for topology, strategy, sizes, engines in cases:
        for n in sizes:
            measured, plans = {}, {}
            for engine in engines:
                case, plans[engine] = _measure(topology, n, strategy, engine)
                measured[engine] = case
                payload["cases"].append(case)
                payload["speedups"] = artifact.pair_speedups(
                    payload["cases"], "engine", "indexed", "reference"
                )
                artifact.write(out_path, payload)
                print(
                    f"{engine:10s} {topology:6s} n={n:2d} {strategy:8s}: "
                    f"{case['seconds']:9.3f}s  (raw {case['raw_seconds']:.3f}s)  "
                    f"plans={case['plans_built']}",
                    flush=True,
                )
            if "reference" in measured and (
                plans["indexed"] != plans["reference"]
                or any(
                    measured["indexed"][field] != measured["reference"][field]
                    for field in ("cost", "ccp_count")
                )
            ):
                mismatches.append((topology, n, strategy))
    if mismatches:
        print(f"ENGINE MISMATCH (cost/ccp/plan differ): {mismatches}", file=sys.stderr)
        raise SystemExit(2)
    return payload


def check_speedup_targets(speedups: list, targets: dict, label: str) -> bool:
    ok = True
    by_key = {
        (s["key"]["topology"], s["key"]["n"], s["key"]["strategy"]): s["speedup"]
        for s in speedups
    }
    for key, minimum in targets.items():
        speedup = by_key.get(key)
        if speedup is None:
            print(f"{label} target {key}: NOT MEASURED", file=sys.stderr)
            ok = False
        elif speedup < minimum:
            print(
                f"{label} target {key}: {speedup:.2f}x < required {minimum:.1f}x",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"{label} target {key}: {speedup:.2f}x (>= {minimum:.1f}x) OK")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke case list")
    parser.add_argument("--out", default="BENCH_hotpath.json", help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed artifact to diff against (fails on regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="maximum tolerated slowdown vs the baseline (default 2.0x)",
    )
    parser.add_argument(
        "--no-speedup-check", action="store_true",
        help="skip the full-run EA-Prune speedup assertions",
    )
    args = parser.parse_args(argv)
    baseline = artifact.load_baseline(args.baseline) if args.baseline else None

    calibrate.pin_to_one_core()
    mode = "quick" if args.quick else "full"
    cases = QUICK_CASES if args.quick else FULL_CASES
    out_path = Path(args.out)
    payload = run(cases, out_path, mode)

    failed = False
    if mode == "full" and not args.no_speedup_check:
        if not check_speedup_targets(
            payload["speedups"], FULL_SPEEDUP_TARGETS, "speedup"
        ):
            failed = True
    if baseline is not None:
        if not artifact.check_baseline(payload, baseline, args.max_regression):
            failed = True

    for speedup in payload["speedups"]:
        key = speedup["key"]
        print(
            f"speedup {key['topology']:6s} n={key['n']:2d} "
            f"{key['strategy']:8s}: {speedup['speedup']:6.2f}x "
            f"({speedup['reference_seconds']:.3f}s -> {speedup['indexed_seconds']:.3f}s)"
        )
    print(f"wrote {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
