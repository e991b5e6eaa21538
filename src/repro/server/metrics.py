"""The HTTP surface apart from its transport: the route table, JSON body
parsing (the shard workers parse with it too), admission errors and
thread-safe per-endpoint request metrics.

Every finished exchange records its endpoint, status class and wall
latency.  Latencies are kept in a bounded per-endpoint window (newest
``WINDOW`` samples) so percentiles reflect recent behaviour without
unbounded memory; counters are cumulative since server start.

``snapshot()`` produces the ``uptime_seconds`` / ``requests`` part of
``GET /stats``; the ``plans`` / ``executions`` / ``cache`` blocks come
from the shards' serving cores (:meth:`repro.service.core.ServingCore.stats`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict

from repro.service.core import RequestError, WINDOW, percentile, window_summary

__all__ = ["ServerMetrics", "WINDOW", "percentile"]

#: the HTTP surface: every routable path and the one method it takes.
#: Anything else is a 404 (and metered under one ``<other>`` bucket, so
#: arbitrary client paths cannot grow the metrics dict).
ENDPOINTS = {
    "/optimize": "POST",
    "/explain": "POST",
    "/batch": "POST",
    "/execute": "POST",
    "/stats_update": "POST",
    "/stats": "GET",
    "/healthz": "GET",
}


def check_route(method: str, path: str) -> None:
    """404 for an unknown *path*, 405 for a known one asked the wrong way."""
    expected = ENDPOINTS.get(path)
    if expected is None:
        raise RequestError(404, "not_found", f"no such endpoint: {path}")
    if method != expected:
        raise RequestError(
            405, "method_not_allowed", f"{path} expects {expected}, got {method}"
        )


def parse_body(raw: bytes) -> dict:
    """The JSON object in *raw*; anything else is a 400 ``bad_json``."""
    try:
        body = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError(400, "bad_json", f"invalid JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise RequestError(400, "bad_json", "body must be a JSON object")
    return body


def check_admission(draining: bool, inflight: int, limit: int) -> None:
    """503 once draining, 429 while *limit* requests are in flight."""
    if draining:
        raise RequestError(503, "draining", "server is draining and no longer accepts work")
    if inflight >= limit:
        raise RequestError(
            429,
            "overloaded",
            f"admission queue full ({inflight} requests in flight); retry with backoff",
        )


def worker_abandoned(budget_seconds: float) -> RequestError:
    """The 504 for a planner that outlived its budget plus grace — a
    healthy one answers (or degrades) first, so it is wedged."""
    message = f"worker unresponsive past the {budget_seconds:g}s budget plus grace"
    return RequestError(504, "timeout", f"{message} — request abandoned")


class _EndpointStats:
    __slots__ = ("count", "errors_4xx", "errors_5xx", "rejected", "latencies_ms")

    def __init__(self) -> None:
        self.count = 0
        self.errors_4xx = 0
        self.errors_5xx = 0
        self.rejected = 0
        self.latencies_ms: Deque[float] = deque(maxlen=WINDOW)


class ServerMetrics:
    """Per-endpoint counters and latency windows, lock-protected."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._endpoints: Dict[str, _EndpointStats] = {}

    def record_request(self, method: str, path: str, status: int, elapsed_seconds: float) -> None:
        """One finished HTTP exchange (including rejected/errored ones),
        keyed ``"<METHOD> <path>"``; unroutable paths and odd methods
        share ``<other>`` buckets so clients cannot grow the dict."""
        if method not in ("GET", "POST"):
            method = "<other>"
        endpoint = f"{method} {path if path in ENDPOINTS else '<other>'}"
        with self._lock:
            stats = self._endpoints.setdefault(endpoint, _EndpointStats())
            stats.count += 1
            if status == 429:
                stats.rejected += 1
            if 400 <= status < 500:
                stats.errors_4xx += 1
            elif status >= 500:
                stats.errors_5xx += 1
            stats.latencies_ms.append(elapsed_seconds * 1000.0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of every counter, consistent under the lock."""
        with self._lock:
            endpoints = {}
            for name, stats in self._endpoints.items():
                window = list(stats.latencies_ms)
                endpoints[name] = {
                    "count": stats.count,
                    "errors_4xx": stats.errors_4xx,
                    "errors_5xx": stats.errors_5xx,
                    "rejected_429": stats.rejected,
                    **window_summary(window),
                    "mean_ms": sum(window) / len(window) if window else None,
                }
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": endpoints,
            }
