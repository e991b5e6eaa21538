"""The paper's evaluation (Eich & Moerkotte, ICDE 2015, Sec. 5) in one sweep.

Figs. 15-18, Table 2 and the Def. 4 ablation all read one matrix: every
seeded random query is planned once per variant, and each figure is
derived from those plans.  The tables print beside the paper's values and
go to ``BENCH_paper.json`` (format: ``artifact.py``).

* Queries are ``generate_query(n, random.Random(seed * 7919 + n))``: a
  full run covers n = 3…16 with 100 seeds a size, a quick run n = 3…8
  with 10, so a quick run's queries are a prefix of a full run's.
* Variants: DPhyp, H1, EA-Prune, H2 at four tolerance factors, EA-Prune
  with Def. 4 cut down to cost only and to cost + cardinality, and EA-All
  through n = 7 (quick: 6) — at 8 it averages half a minute a query.
* Every run is cold (memo caches cleared, a fresh ``Query``) and timed
  once; its wall time is scaled to the calibration kernel's nominal
  speed, and a size's time is the median over its seeds.  The four TPC-H
  queries are timed with ``artifact.measure``.

Checks: a claim of the paper this reproduction asserts (``claims``) fails
the run with exit 1; EA-Prune ≠ EA-All on any query exits 2 — which is
also the ablation's "full criteria keep the optimum".  ``--baseline``
compares *costs*, never seconds: each case keeps its costs in seed order,
and a run's must equal the committed costs of the same seeds (rel 1e-9).

Usage::

    python benchmarks/bench_paper.py --out benchmarks/BENCH_paper.json   # full run
    python benchmarks/bench_paper.py --quick --baseline benchmarks/BENCH_paper.json
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

import artifact
import calibrate
from repro.optimizer import OptimizerConfig, optimize
from repro.optimizer.planinfo import clear_memo_caches
from repro.optimizer.strategies import EaPruneStrategy, reset_prune_caches
from repro.tpch import TPCH_QUERIES
from repro.workload import generate_query

#: mode → (relation counts, seeds per size, largest n EA-All plans)
MODES = {"full": (range(3, 17), 100, 7), "quick": (range(3, 9), 10, 6)}

FACTORS = (1.01, 1.03, 1.05, 1.1)
HEURISTICS = ("h1",) + tuple(f"h2@{factor}" for factor in FACTORS)
CRITERIA = ("cost-only", "cost-card")
#: the ablation's columns: Def. 4's criteria → the variant that prunes by them
ABLATION = {"cost-only": "cost-only", "cost-card": "cost-card", "full": "ea-prune"}

#: variant → the config of one run; a new strategy object per run, since
#: EA-Prune keeps its counters on it
VARIANTS = {
    "dphyp": lambda: OptimizerConfig(strategy="dphyp"),
    "h1": lambda: OptimizerConfig(strategy="h1"),
    "ea-prune": lambda: OptimizerConfig(strategy="ea-prune"),
    **{f"h2@{f}": (lambda f=f: OptimizerConfig(strategy="h2", factor=f)) for f in FACTORS},
    **{c: (lambda c=c: OptimizerConfig(strategy=EaPruneStrategy(c))) for c in CRITERIA},
    "ea-all": lambda: OptimizerConfig(strategy="ea-all"),
}

TPCH_STRATEGIES = ("ea-prune", "h1", "h2", "dphyp")

#: Table 2 of the paper, against DPhyp: (measure, strategy) → Ex, Q3, Q5, Q10
PAPER_TABLE2 = {
    ("time", "ea-prune"): (1.9, 1.42, 7.34, 1.96),
    ("time", "h1"): (1.55, 1.13, 1.02, 1.16),
    ("time", "h2"): (1.26, 1.31, 1.26, 2.04),
    ("cost", "ea-prune"): (6.1e-4, 0.65, 0.9, 0.58),
    ("cost", "h1"): (6.1e-4, 0.92, 0.9, 0.58),
    ("cost", "h2"): (6.1e-4, 0.65, 0.9, 0.58),
}


def cold_run(n: int, seed: int, variant: str) -> dict:
    """Plan seed *seed*'s query of *n* relations under *variant*, cold,
    timed once and scaled."""
    clear_memo_caches()
    reset_prune_caches()
    query = generate_query(n, random.Random(seed * 7919 + n))
    config = VARIANTS[variant]()
    speed = calibrate.cpu_speed()
    started = perf_counter()
    result = optimize(query, config=config)
    raw = perf_counter() - started
    speed = (speed + calibrate.cpu_speed()) / 2
    return {
        "cost": result.cost,
        "seconds": raw * speed,
        "raw": raw,
        "table": sum(result.table_sizes.values()),
        "above": result.stats.get("strategy.plans_above_ceiling", 0),
        "built": result.plans_built,
        "bounded": "ceiling.source" in result.stats,
    }


def size_case(n: int, variant: str, records: list) -> dict:
    seconds = [record["seconds"] for record in records]
    case = {
        "key": {"n": n, "variant": variant},
        "seconds": statistics.median(seconds),
        "raw_seconds": statistics.median(record["raw"] for record in records),
        "max_seconds": max(seconds),
        "costs": [record["cost"] for record in records],
        "mean_table_size": statistics.mean(record["table"] for record in records),
    }
    if variant == "ea-prune":
        above = sum(record["above"] for record in records)
        case["above_ceiling_share"] = above / (above + sum(r["built"] for r in records))
        case["bounded_runs"] = sum(record["bounded"] for record in records)
    return case


def sweep(mode: str, payload: dict, out_path: Path) -> dict:
    """``(n, variant) → [one cold run per seed]``, each size's cases
    appended to *payload* and written as soon as they are planned."""
    sizes, seeds, ea_all_max = MODES[mode]
    runs = {}
    for n in sizes:
        started = perf_counter()
        for variant in VARIANTS:
            if variant == "ea-all" and n > ea_all_max:
                continue
            runs[n, variant] = [cold_run(n, seed, variant) for seed in range(seeds)]
            payload["cases"].append(size_case(n, variant, runs[n, variant]))
        artifact.write(out_path, payload)
        print(f"n={n:2d}: {seeds} queries planned in {perf_counter() - started:.1f}s", flush=True)
    return runs


def tpch_cases() -> dict:
    """``(query, strategy) → case``: Table 2's runs, cold, via ``artifact.measure``."""
    cases = {}
    for name, build in TPCH_QUERIES.items():
        for strategy in TPCH_STRATEGIES:
            def cold_start(build=build):
                clear_memo_caches()
                reset_prune_caches()
                return (build(1.0),)

            config = OptimizerConfig(strategy=strategy)
            result, timing = artifact.measure(
                lambda query: optimize(query, config=config), setup=cold_start
            )
            cases[name, strategy] = {
                "key": {"query": name, "strategy": strategy}, **timing, "costs": [result.cost]
            }
    return cases


def ratios(runs: dict, n: int, over: str, under: str) -> list:
    """Per seed, the cost of *over*'s plan relative to *under*'s."""
    return [
        a["cost"] / b["cost"] if b["cost"] > 0 else 1.0
        for a, b in zip(runs[n, over], runs[n, under])
    ]


def optimum(runs: dict, n: int) -> str:
    """The variant whose costs are the optimum at size *n*."""
    return "ea-all" if (n, "ea-all") in runs else "ea-prune"


def median_seconds(runs: dict, n: int, variant: str):
    records = runs.get((n, variant))
    return statistics.median(r["seconds"] for r in records) if records else None


def figure(title: str, paper: str, columns: list, rows: list) -> dict:
    return {"title": title, "paper": paper, "columns": columns, "rows": rows}


def derive(runs: dict, sizes, tpch: dict) -> dict:
    """Every figure and table, as rows of numbers beside the paper's."""
    fig15, fig16, fig17, fig18, ablation, ceiling = [], [], [], [], [], []
    for n in sizes:
        lazy = ratios(runs, n, "dphyp", "ea-prune")
        fig15.append([n, statistics.geometric_mean(lazy), statistics.median(lazy), max(lazy),
                      {3: 1.0, 13: 18.0}.get(n)])
        times = [median_seconds(runs, n, v) for v in ("dphyp", "h1", "ea-prune", "ea-all")]
        fig16.append([n, *times, times[1] / times[0], 2.6])
        row = [n]
        for heuristic in HEURISTICS:
            over = ratios(runs, n, heuristic, "ea-prune")
            row += [statistics.mean(over), max(over)]
        fig17.append(row + [1.07 if n == 13 else None])
        h1, h2 = median_seconds(runs, n, "h1"), median_seconds(runs, n, "h2@1.03")
        fig18.append([n, h1, h2, h2 / h1])
        best = optimum(runs, n)
        over = {c: ratios(runs, n, variant, best) for c, variant in ABLATION.items()}
        ablation.append(
            [n, best]
            + [statistics.mean(over[c]) for c in ABLATION]
            + [max(over[c]) for c in CRITERIA]
            + [statistics.mean(r["table"] for r in runs[n, v]) for v in ABLATION.values()]
        )
        case = size_case(n, "ea-prune", runs[n, "ea-prune"])
        ceiling.append([n, case["above_ceiling_share"], case["bounded_runs"]])
    names = list(TPCH_QUERIES)
    table2 = []
    for (measure, strategy), paper in PAPER_TABLE2.items():
        field = "seconds" if measure == "time" else "costs"
        row = [f"{measure} {strategy}/dphyp"]
        for name, theirs in zip(names, paper):
            ours, base = tpch[name, strategy][field], tpch[name, "dphyp"][field]
            row += [ours / base if measure == "time" else ours[0] / base[0], theirs]
        table2.append(row)
    return {
        "fig15": figure("Fig. 15 — plan cost of DPhyp relative to EA-Prune",
                        "≈ 1 at n = 3, growing to ≈ 18 at n = 13; outliers up to 17,500×",
                        ["n", "geo-mean", "median", "max", "paper"], fig15),
        "fig16": figure("Fig. 16 — optimization time, median seconds (scaled)",
                        "EA-All > 1 s at n ≈ 7, EA-Prune at n ≈ 11, DPhyp < 1 s through 20 "
                        "(C++); H1 ≈ 2.6 × DPhyp",
                        ["n", "dphyp", "h1", "ea-prune", "ea-all", "h1/dphyp", "paper"], fig16),
        "fig17": figure("Fig. 17 — heuristic plan cost relative to EA-Prune (mean, max)",
                        "all ≥ 1, ≈ 1.15 on average; H2@1.03 closest, ≈ 1.07 at n = 13; "
                        "worst 10.3 (H1) and 9.7 (H2)",
                        ["n"] + [f"{h} {s}" for h in HEURISTICS for s in ("mean", "max")]
                        + ["paper h2@1.03 mean"], fig17),
        "fig18": figure("Fig. 18 — H2@1.03 time relative to H1, median seconds (scaled)",
                        "H2/H1 ≈ 0.92–1.08 at every size",
                        ["n", "h1", "h2@1.03", "h2/h1"], fig18),
        "table2": figure("Table 2 — TPC-H, relative to DPhyp (ours, paper)",
                         "Ex gains most (6.1e-4), Q5 least; no query gets worse",
                         ["row"] + [f"{q} {s}" for q in names for s in ("ours", "paper")], table2),
        "ablation": figure("Def. 4 ablation — cost over the optimum (mean, max), "
                           "mean DP-table size",
                           "only all three criteria (full) keep the optimum",
                           ["n", "optimum"] + [f"{c} cost" for c in ABLATION]
                           + [f"{c} max" for c in CRITERIA]
                           + [f"{c} table" for c in ABLATION], ablation),
        "ceiling": figure("EA-Prune's H1 ceiling — share of candidates above it, runs bounded",
                          "not in the paper: this implementation's bound",
                          ["n", "share above", "bounded runs"], ceiling),
    }


def claims(runs: dict, sizes, tpch: dict) -> list:
    """The paper's claims this reproduction asserts; the ones that fail."""
    failed = []
    geo = {n: statistics.geometric_mean(ratios(runs, n, "dphyp", "ea-prune")) for n in sizes}
    if min(geo.values()) < 1 - 1e-9:
        failed.append(f"Fig. 15: DPhyp/EA-Prune geo-mean below 1: {geo}")
    if max(geo.values()) <= 2:
        failed.append("Fig. 15: DPhyp/EA-Prune geo-mean never above 2")
    for n in sizes:
        for heuristic in HEURISTICS:
            mean = statistics.mean(ratios(runs, n, heuristic, "ea-prune"))
            if not 1 - 1e-9 <= mean < 12:
                failed.append(f"Fig. 17: n={n} {heuristic}/EA-Prune mean {mean:.3f} not in [1, 12)")
        tables = {v: statistics.mean(r["table"] for r in runs[n, v])
                  for v in ("cost-only", "ea-prune")}
        if tables["cost-only"] > tables["ea-prune"] + 1e-9:
            failed.append(f"ablation: n={n} cost-only keeps more plans than full: {tables}")
    lost = (r > 1 + 1e-9 for n in sizes if 4 <= n <= 7
            for r in ratios(runs, n, "cost-only", optimum(runs, n)))
    if not any(lost):
        failed.append("ablation: cost-only pruning never lost the optimum for n in 4…7")
    rel = {name: tpch[name, "ea-prune"]["costs"][0] / tpch[name, "dphyp"]["costs"][0]
           for name in TPCH_QUERIES}
    if rel["Ex"] >= 1e-3:
        failed.append(f"Table 2: Ex's EA-Prune/DPhyp cost {rel['Ex']:.3g} not below 1e-3")
    if max(rel.values()) > 1 + 1e-9:
        failed.append(f"Table 2: EA-Prune costs more than DPhyp: {rel}")
    if rel["Ex"] != min(rel.values()):
        failed.append(f"Table 2: Ex does not gain most: {rel}")
    return failed


def check_costs(payload: dict, baseline: dict) -> bool:
    """Every cost equals the committed cost of the same case and seed."""
    committed = {tuple(sorted(c["key"].items())): c["costs"] for c in baseline["cases"]}
    ok, compared = True, 0
    for case in payload["cases"]:
        theirs = committed.get(tuple(sorted(case["key"].items())))
        if theirs is None:
            continue
        pairs = list(zip(case["costs"], theirs))
        compared += len(pairs)
        moved = [seed for seed, (a, b) in enumerate(pairs) if not math.isclose(a, b, rel_tol=1e-9)]
        if moved:
            ok = False
            label = " ".join(f"{k}={v}" for k, v in case["key"].items())
            print(f"baseline {label}: cost differs at seeds {moved}", file=sys.stderr)
    print(f"baseline: {compared} costs compared, {'equal' if ok else 'NOT EQUAL'}")
    return ok and compared > 0


def cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.4g}"


def show(fig: dict) -> None:
    table = [fig["columns"]] + [[cell(value) for value in row] for row in fig["rows"]]
    widths = [max(len(line[i]) for line in table) + 2 for i in range(len(fig["columns"]))]
    print(f"\n{fig['title']}\n  paper: {fig['paper']}")
    for line in table:
        print("".join(f"{text:>{width}}" for text, width in zip(line, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="n = 3…8, 10 seeds a size (CI)")
    parser.add_argument("--out", default="BENCH_paper.json", help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed artifact whose costs this run must equal (seconds are not compared)",
    )
    args = parser.parse_args(argv)
    baseline = artifact.load_baseline(args.baseline) if args.baseline else None
    if baseline is not None and baseline.get("benchmark") != "paper":
        raise SystemExit(f"baseline {args.baseline}: not a bench_paper.py artifact")

    calibrate.pin_to_one_core()
    mode = "quick" if args.quick else "full"
    sizes, seeds, ea_all_max = MODES[mode]
    out_path = Path(args.out)
    payload = artifact.new_payload("paper", mode)
    payload["sweep"] = {"sizes": [sizes[0], sizes[-1]], "seeds": seeds, "ea_all_max": ea_all_max}
    started = perf_counter()
    tpch = tpch_cases()
    payload["cases"] += tpch.values()
    runs = sweep(mode, payload, out_path)
    payload["sweep"]["wall_seconds"] = perf_counter() - started
    payload["figures"] = derive(runs, sizes, tpch)
    artifact.write(out_path, payload)
    for fig in payload["figures"].values():
        show(fig)
    print(f"\nwrote {out_path} ({payload['sweep']['wall_seconds']:.0f}s)")

    mismatches = [
        (n, seed)
        for n in sizes if (n, "ea-all") in runs
        for seed, (a, b) in enumerate(zip(runs[n, "ea-all"], runs[n, "ea-prune"]))
        if not math.isclose(a["cost"], b["cost"], rel_tol=1e-9)
    ]
    if mismatches:
        print(f"EA-PRUNE != EA-ALL (n, seed): {mismatches}", file=sys.stderr)
        return 2
    failed = claims(runs, sizes, tpch)
    for failure in failed:
        print(f"CLAIM FAILED {failure}", file=sys.stderr)
    if baseline is not None and not check_costs(payload, baseline):
        failed.append("baseline")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
