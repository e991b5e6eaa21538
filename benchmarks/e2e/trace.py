"""A span recorder kept outside the program it measures.

Spans are ``(name, start, end, parent, request_id)`` rows in memory,
opened around each public call a replay makes into a layer; nothing
inside ``repro`` is instrumented.  A disabled tracer hands out one shared
no-op span, so the untraced replay runs the same code path — the ratio
of the two replays' walls is the tracing overhead.

Three kinds of span:

* ``request`` — one in-process request (parent ``None``);
* layer spans — direct children of a request, e.g. ``sql.bind``;
* probes — layer calls made *outside* any request to time something the
  request only does internally (``tokenize`` inside ``parse_select``,
  ``lower`` inside ``run_plan``).  Their parent is ``"probe"`` and they
  do not count towards coverage.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from calibrate import cpu_speed

RECALIBRATE_SECONDS = 0.05


class _Span:
    __slots__ = ("tracer", "name", "parent", "request_id", "start")

    def __init__(self, tracer, name, parent, request_id):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.request_id = request_id

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.tracer.spans.append((self.name, self.start, end, self.parent, self.request_id))
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._request: Optional[int] = None
        #: (time, cpu_speed) samples; a span is scaled by the sample before it
        self._sampled_at: List[float] = []
        self._speeds: List[float] = []
        self.speed = 1.0

    def calibrate(self, force: bool = False) -> None:
        """Sample the core's speed (see ``calibrate.py``), at most every 50 ms.

        Called between requests by the replays, traced or not, so both
        replays do the same work and both can scale their walls.
        """
        now = perf_counter()
        if force or not self._sampled_at or now - self._sampled_at[-1] > RECALIBRATE_SECONDS:
            self.speed = cpu_speed()
            self._sampled_at.append(perf_counter())
            self._speeds.append(self.speed)

    def speed_at(self, start: float) -> float:
        at = bisect_right(self._sampled_at, start) - 1
        return self._speeds[at] if at >= 0 else 1.0

    def request(self, request_id: int):
        self._request = request_id
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, "request", None, request_id)

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, "request", self._request)

    def probe(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, "probe", self._request)

    # -- reading -------------------------------------------------------------
    def durations_ms(self) -> Dict[str, List[float]]:
        """Span durations by name, scaled to nominal speed."""
        out: Dict[str, List[float]] = {}
        for name, start, end, _parent, _rid in self.spans:
            out.setdefault(name, []).append((end - start) * self.speed_at(start) * 1e3)
        return out

    def _total(self, parent) -> float:
        return sum((e - s) * self.speed_at(s) for _n, s, e, p, _r in self.spans if p == parent)

    def coverage(self) -> float:
        """Σ layer spans ÷ Σ request spans (the rest is glue between calls)."""
        requests = self._total(None)
        return self._total("request") / requests if requests else 0.0

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, median ms, share of all in-request time."""
        requests = self._total(None) * 1e3
        in_request = {n for n, _s, _e, p, _r in self.spans if p == "request"}
        out = {}
        for name, values in sorted(self.durations_ms().items()):
            out[name] = {
                "calls": len(values),
                "median_ms": median(values),
                "share": sum(values) / requests if name in in_request and requests else None,
            }
        return out

    def write(self, path: str) -> None:
        """One JSON object per line: name, start, end (raw seconds), parent,
        request, and the speed the span's duration is to be multiplied by."""
        with open(path, "w") as out:
            for name, start, end, parent, request_id in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request_id,
                    "speed": self.speed_at(start),
                }) + "\n")


def median_ms(durations: Dict[str, List[float]], name: str) -> float:
    """Median of a span name, 0.0 when the workload never enters that layer."""
    values = durations.get(name)
    return median(values) if values else 0.0
