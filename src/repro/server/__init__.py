"""The HTTP pieces around the async serving tier (:mod:`repro.asyncserver`).

* :mod:`repro.server.metrics` — the route table, JSON body parsing,
  admission errors and the per-endpoint latency/error counters behind
  ``GET /stats``,
* :mod:`repro.server.client` — :class:`ServerClient`, the stdlib client
  the benchmark's closed-loop load generator (and the tests) drive.

Start a server from the command line with ``python -m repro serve``; see
``docs/architecture.md`` for how the layers compose.
"""

from repro import lazy_exports
from repro.server.metrics import ServerMetrics
from repro.service.core import RequestError

__getattr__ = lazy_exports(__name__, {
    "ServerClient": "repro.server.client",
    "ServerError": "repro.server.client",
})

__all__ = [
    "RequestError",
    "ServerClient",
    "ServerError",
    "ServerMetrics",
]
