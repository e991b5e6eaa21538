"""The plan server: a concurrent JSON-over-HTTP front end for planning.

This package turns the library into a daemon — the ROADMAP's serving
system finally *accepts traffic*:

* :mod:`repro.server.config` — :class:`ServerConfig`, the validated knobs,
* :mod:`repro.server.service` — :class:`PlanService`, the HTTP-free
  adapter over :class:`~repro.service.core.ServingCore`: one lock +
  process pool + bounded admission,
* :mod:`repro.server.app` — :class:`PlanServer`, the
  ``ThreadingHTTPServer`` front end with graceful drain,
* :mod:`repro.server.metrics` — per-endpoint latency/error counters
  behind ``GET /stats`` (shared with the async front),
* :mod:`repro.server.client` — :class:`ServerClient`, the stdlib client
  the benchmark's closed-loop load generator (and the tests) drive.

Start one from the command line with ``python -m repro serve``; see
``docs/architecture.md`` for how the layers compose.
"""

from repro import lazy_exports
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.service.core import RequestError

__getattr__ = lazy_exports(__name__, {
    "PlanServer": "repro.server.app",
    "PlanService": "repro.server.service",
    "ServerClient": "repro.server.client",
    "ServerError": "repro.server.client",
})

__all__ = [
    "PlanServer",
    "PlanService",
    "RequestError",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
]
