"""The one format of ``benchmarks/BENCH_*.json`` and the one gate over it.

``bench_hotpath.py``, ``bench_fig16_scale.py``, ``bench_async_server.py`` and
``bench_paper.py`` measure different things and record them the same way::

    {"schema": "repro-bench/v1", "benchmark": "hotpath", "mode": "full",
     "generated_unix": ...,
     "env": {"platform", "python", "nproc", "numpy", "commit",
             "kernel_nominal_seconds"},
     "cases": [{"key": {...}, "seconds": ..., "raw_seconds": ..., ...}],
     "speedups": [{"key": {...}, "speedup": ..., ...}],
     ...}                     # what only one benchmark derives (correlation, slo, figures)

A case is named by its ``key`` dict.  ``raw_seconds`` is the wall time
measured; ``seconds`` is that time at the nominal speed of the calibration
kernel of ``benchmarks/e2e/calibrate.py`` — what the end-to-end benchmark
reports too, so numbers recorded on a core that was running slow compare
with numbers that were not.  ``check_baseline`` compares ``seconds``;
``bench_paper.py`` gates on the plan costs its cases keep instead, since a
cost is exact where a time is not.

Importing this module puts ``src/`` and ``benchmarks/e2e/`` on ``sys.path``:
the scripts run without ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import calibrate  # noqa: E402

SCHEMA = "repro-bench/v1"

#: baseline cases shorter than this are noise, not compared
NOISE_FLOOR_SECONDS = 0.05

#: a case under FAST_CASE_SECONDS is run FAST_CASE_REPEAT times, the minimum kept
FAST_CASE_SECONDS = 5.0
FAST_CASE_REPEAT = 3


def _commit() -> Optional[str]:
    def git(*args: str) -> str:
        return subprocess.run(
            ("git", *args), cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        dirty = git("status", "--porcelain") != ""
        return git("rev-parse", "--short", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def new_payload(benchmark: str, mode: str) -> dict:
    return {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "mode": mode,
        "generated_unix": int(time.time()),
        "env": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "numpy": importlib.util.find_spec("numpy") is not None,
            "commit": _commit(),
            "kernel_nominal_seconds": calibrate.CPU_KERNEL_NOMINAL_SECONDS,
        },
        "cases": [],
        "speedups": [],
    }


def write(out_path: Path, payload: dict) -> None:
    """Atomic rewrite, so a killed run never leaves a truncated artifact."""
    tmp = out_path.with_suffix(out_path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_path)


def measure(work: Callable, setup: Optional[Callable[[], tuple]] = None) -> Tuple[object, dict]:
    """Time ``work(*setup())`` in this process; ``(its result, timing fields)``.

    The wall time is scaled by the core's speed just before and just after
    the call, as ``plan_cold`` scales its cases.  Short cases are repeated
    and the fastest (scaled) run kept; *setup* runs before each, untimed.
    """
    best = result = None
    repeats = 0
    while repeats < FAST_CASE_REPEAT:
        args = setup() if setup is not None else ()
        speed = calibrate.cpu_speed()
        started = perf_counter()
        result = work(*args)
        raw = perf_counter() - started
        speed = (speed + calibrate.cpu_speed()) / 2
        repeats += 1
        if best is None or raw * speed < best[0]:
            best = (raw * speed, raw)
        if raw >= FAST_CASE_SECONDS:
            break
    return result, {"seconds": best[0], "raw_seconds": best[1], "repeats": repeats}


def _frozen(key: dict) -> tuple:
    return tuple(sorted(key.items()))


def pair_speedups(cases: List[dict], field: str, fast: str, slow: str) -> List[dict]:
    """Cases whose keys differ only in *field*, *slow* over *fast* seconds."""
    by_key = {_frozen(case["key"]): case for case in cases}
    speedups = []
    for case in cases:
        if case["key"][field] != fast:
            continue
        other = by_key.get(_frozen({**case["key"], field: slow}))
        if other is not None:
            speedups.append({
                "key": {k: v for k, v in case["key"].items() if k != field},
                f"{fast}_seconds": case["seconds"],
                f"{slow}_seconds": other["seconds"],
                "speedup": other["seconds"] / case["seconds"],
            })
    return speedups


def load_baseline(path: str) -> dict:
    """The committed artifact to diff against; exits with one line if unusable."""
    try:
        baseline = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"baseline {path}: {error}") from None
    if baseline.get("schema") != SCHEMA:
        raise SystemExit(
            f"baseline {path}: schema {baseline.get('schema')!r}, this gate reads "
            f"{SCHEMA!r} only — re-record it with a full run (benchmarks/README.md)"
        )
    return baseline


def check_baseline(payload: dict, baseline: dict, max_regression: float) -> bool:
    """No case slower than *max_regression* × its same-keyed baseline case."""
    committed = {_frozen(case["key"]): case for case in baseline["cases"]}
    ok = True
    compared = 0
    for case in payload["cases"]:
        base = committed.get(_frozen(case["key"]))
        if base is None or base["seconds"] < NOISE_FLOOR_SECONDS:
            continue
        compared += 1
        ratio = case["seconds"] / base["seconds"]
        regressed = ratio > max_regression
        ok = ok and not regressed
        label = " ".join(str(value) for value in case["key"].values())
        print(
            f"baseline {label}: {base['seconds']:.3f}s -> {case['seconds']:.3f}s "
            f"({ratio:.2f}x) {'REGRESSION' if regressed else 'ok'}"
        )
    if compared == 0:
        print(f"baseline: no comparable cases (none at or above {NOISE_FLOOR_SECONDS * 1e3:.0f} ms)")
    return ok
