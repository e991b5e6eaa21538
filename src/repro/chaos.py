"""Fault injection for robustness tests — disabled unless armed via env.

The chaos layer lets the test suite (and the CI ``chaos-smoke`` job)
inject failures at the exact seams the serving tier is supposed to
survive: worker crashes, worker hangs, pathologically slow planning,
snapshot corruption, and dropped response frames.  It is **test-build
plumbing only**: every hook is a no-op unless the ``REPRO_CHAOS``
environment variable is set to a truthy value in the process (worker
subprocesses inherit the server's environment), so production paths pay
one cached ``os.environ`` read.

Faults are *marker-driven*, not process-global: a hook fires only for
requests whose SQL (or query) carries a marker substring, so a clean
follow-up query through the same worker behaves normally — which is
exactly what the recovery tests assert.  SQL table aliases survive
binding as ``RelationInfo.name``, so markers written as aliases
(``FROM nation chaos_slow_200 JOIN ...``) are visible both to the
serving tier (raw SQL) and to the optimizer driver (query relations).

Markers:

* ``chaos_crash`` — the worker process exits hard (``os._exit``) before
  planning, simulating a segfault/OOM kill.
* ``chaos_hang``  — the worker sleeps for ``REPRO_CHAOS_HANG_SECONDS``
  (default 3600) before planning, simulating a wedged worker.
* ``chaos_slow`` / ``chaos_slow_<ms>`` — planning sleeps ``<ms>``
  (default 100) at every deadline check point inside the DP loop,
  simulating a query whose enumeration outruns its budget.  Only fires
  while a deadline is armed, so the heuristic fallback run stays fast.
* ``chaos_drop`` — the async worker swallows the request frame and
  never responds, simulating a lost frame (the front times out).

Snapshot damage is request-independent and armed separately via
``REPRO_CHAOS_SNAPSHOT=truncate|corrupt``: the next snapshot written is
truncated / bit-flipped in place, so the following warm start must
refuse it and cold-start.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Optional

CRASH_MARKER = "chaos_crash"
HANG_MARKER = "chaos_hang"
SLOW_MARKER = "chaos_slow"
DROP_MARKER = "chaos_drop"

#: Exit code used by injected crashes, so supervisors/tests can tell a
#: chaos kill from a real fault.
CRASH_EXIT_CODE = 23

_DEFAULT_SLOW_MS = 100.0


def enabled() -> bool:
    """True when fault injection is armed in this process."""
    value = os.environ.get("REPRO_CHAOS", "")
    return value not in ("", "0", "false", "no")


def _hang_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_CHAOS_HANG_SECONDS", "3600"))
    except ValueError:
        return 3600.0


def before_request(text: str) -> None:
    """Crash/hang injection point — call with the raw SQL before planning.

    No-op unless chaos is armed and *text* carries a marker.
    """
    if not enabled() or not text:
        return
    if CRASH_MARKER in text:
        os._exit(CRASH_EXIT_CODE)
    if HANG_MARKER in text:
        time.sleep(_hang_seconds())


def should_drop(payload: bytes) -> bool:
    """True when an async worker should swallow this request frame."""
    return enabled() and DROP_MARKER.encode() in payload


def planning_delay(relation_names: Iterable[str]) -> Optional[float]:
    """Per-deadline-check sleep (seconds) for a query, or None.

    ``chaos_slow_250`` → 0.25s per check; bare ``chaos_slow`` → 0.1s.
    The driver applies the delay only at deadline check points, so the
    injected slowness is scoped to the budgeted run.
    """
    if not enabled():
        return None
    for name in relation_names:
        if SLOW_MARKER not in name:
            continue
        suffix = name.rsplit(SLOW_MARKER, 1)[1].lstrip("_")
        try:
            return float(suffix) / 1000.0 if suffix else _DEFAULT_SLOW_MS / 1000.0
        except ValueError:
            return _DEFAULT_SLOW_MS / 1000.0
    return None


def damage_snapshot(path: str) -> Optional[str]:
    """Apply the armed snapshot fault to *path*; returns the fault name.

    ``REPRO_CHAOS_SNAPSHOT=truncate`` cuts the file roughly in half;
    ``corrupt`` flips one bit mid-file.  Either way the snapshot's
    checksum validation must reject it on the next warm start.
    """
    if not enabled():
        return None
    mode = os.environ.get("REPRO_CHAOS_SNAPSHOT", "")
    if mode not in ("truncate", "corrupt"):
        return None
    try:
        size = os.path.getsize(path)
    except OSError:
        return None
    if size < 2:
        return None
    if mode == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
    else:
        offset = size // 2
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0x40]))
    return mode
