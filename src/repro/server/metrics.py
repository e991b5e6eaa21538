"""Thread-safe per-endpoint request metrics, shared by both HTTP fronts.

Every finished exchange records its endpoint, status class and wall
latency.  Latencies are kept in a bounded per-endpoint window (newest
``WINDOW`` samples) so percentiles reflect recent behaviour without
unbounded memory; counters are cumulative since server start.

``snapshot()`` produces the ``uptime_seconds`` / ``requests`` part of
``GET /stats``; the ``plans`` / ``executions`` / ``cache`` blocks come
from the serving core(s) (:meth:`repro.service.core.ServingCore.stats`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict

from repro.service.core import ENDPOINTS, WINDOW, percentile, window_summary

__all__ = ["ServerMetrics", "WINDOW", "percentile"]


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
