"""The client side of the async serving tier (:mod:`repro.asyncserver`).

:mod:`repro.server.client` holds :class:`ServerClient`, the stdlib client
the benchmark's closed-loop load generator (and the tests) drive, and
:class:`ServerError`.  The server's own HTTP pieces — routes, admission
errors, request metrics — live with its front in
:mod:`repro.asyncserver.app`.

Start a server from the command line with ``python -m repro serve``; see
``docs/architecture.md`` for how the layers compose.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "ServerClient": "repro.server.client",
    "ServerError": "repro.server.client",
})

__all__ = [
    "ServerClient",
    "ServerError",
]
