"""The HTTP front end: `ThreadingHTTPServer` routing into `PlanService`.

JSON over HTTP, stdlib only::

    POST /optimize   {"sql": ..., "strategy"?, "factor"?, "cost_model"?, "include_plan"?}
    POST /batch      {"queries": [...], ..., "include_plans"?}
    POST /explain    {"sql": ..., ...}
    POST /execute    {"sql": ..., "executor"?, "limit"?, ...}
    POST /stats_update {"table": ..., "cardinality_factor" | "cardinality"}
    GET  /stats
    GET  /healthz

Each connection gets an I/O thread (``ThreadingHTTPServer``); CPU-bound
optimization runs in the service's process pool, so threads mostly park
on futures.  Admission is bounded — one slot per in-flight optimizing
request, 429 when full, 503 once draining.  Every exchange emits one
structured JSON log line on the ``repro.server`` logger.

:class:`PlanServer` wraps the socket server with a background serve
thread and a graceful :meth:`~PlanServer.drain` (stop admitting → wait
for in-flight work → shut the socket down), which is what ``python -m
repro serve`` hangs off SIGTERM.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.server.config import ServerConfig
from repro.server.metrics import check_route, parse_body
from repro.server.service import PlanService
from repro.service.core import RequestError, error_body

logger = logging.getLogger("repro.server")

#: largest accepted request body; protects the JSON parser from abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: the service method behind each admission-controlled POST endpoint.
_BODIES = {
    "/optimize": PlanService.optimize_body,
    "/batch": PlanService.batch_body,
    "/explain": PlanService.explain_body,
    # Execution is CPU-bound in the request thread, so it takes an
    # admission slot like optimization does.
    "/execute": PlanService.execute_body,
}


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes one exchange into the service and serialises the outcome."""

    server_version = "repro-plan-server/1.0"
    protocol_version = "HTTP/1.1"
    # Responses are two small writes (headers, body); with Nagle on, the
    # second write stalls ~40ms behind the peer's delayed ACK, putting a
    # hard floor under warm-cache latency.
    disable_nagle_algorithm = True

    # The service hangs off the socket server (see _PlanHTTPServer).
    @property
    def service(self) -> PlanService:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    def _handle(self, method: str) -> None:
        # The whole exchange — routing, response send, metrics record —
        # counts against wait_idle(), so a drain cannot close the socket
        # under a response that is still being written (see
        # PlanService.track_exchange).
        with self.service.track_exchange():
            self._exchange(method)

    def _exchange(self, method: str) -> None:
        import time

        started = time.perf_counter()
        path = urlsplit(self.path).path.rstrip("/") or "/"
        status, payload = 500, error_body("internal", "unhandled")
        try:
            # Consume the body up front even for requests about to be
            # rejected (429/404/...): unread body bytes would be parsed as
            # the next request line on this keep-alive connection.
            raw = self._read_body_bytes() if method == "POST" else b""
            status, payload = self._route(method, path, raw)
        except RequestError as error:
            status, payload = error.status, error.to_body()
        except ConnectionError:  # client went away mid-exchange
            return
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            logger.exception("unhandled error serving %s %s", method, path)
            status, payload = 500, error_body("internal", f"{type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        self._send(status, payload)
        self.service.metrics.record_request(method, path, status, elapsed)
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "request",
                    "method": method,
                    "path": path,
                    "status": status,
                    "ms": round(elapsed * 1000.0, 3),
                    "client": self.client_address[0],
                    "cache_hit": payload.get("cache_hit") if isinstance(payload, dict) else None,
                    "error": (payload.get("error") or {}).get("code")
                    if isinstance(payload, dict)
                    else None,
                }
            ),
        )

    def _route(self, method: str, path: str, raw: bytes) -> Tuple[int, dict]:
        check_route(method, path)
        service = self.service
        if path == "/healthz":
            return service.healthz_body()
        if path == "/stats":
            return 200, service.stats_body()
        if path == "/stats_update":
            # Control-plane: applies a catalog delta without taking an
            # admission slot — drift must land even under 429 pressure.
            return 200, service.stats_update_body(parse_body(raw))
        with service.admit():
            return 200, _BODIES[path](service, parse_body(raw))

    def _read_body_bytes(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Unknown body length: the connection cannot be reused either.
            self.close_connection = True
            raise RequestError(
                400, "bad_request", "Content-Length must be an integer"
            ) from None
        if length > MAX_BODY_BYTES:
            # Refusing to read means the connection cannot be reused.
            self.close_connection = True
            raise RequestError(413, "too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length > 0 else b""

    def _send(self, status: int, payload: dict) -> None:
        try:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if status in (429, 503):
                # Backpressure statuses advertise a retry hint that
                # ServerClient's opt-in retry loop honours.
                self.send_header("Retry-After", "1")
            self.end_headers()
            self.wfile.write(data)
        except (ConnectionError, BrokenPipeError):  # client gone; nothing to do
            pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        """Silence the default per-line stderr chatter (we log JSON)."""


class _PlanHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: PlanService  # assigned by PlanServer


class PlanServer:
    """The daemon: socket server + service + background serve thread.

    Usage::

        with PlanServer(ServerConfig(port=0, workers=2)) as server:
            print(server.port)          # bound ephemeral port
            ...                         # serve
            server.drain()              # graceful stop (also via SIGTERM)
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config if config is not None else ServerConfig()
        self.service = PlanService(self.config)
        try:
            self._httpd = _PlanHTTPServer(
                (self.config.host, self.config.port), _RequestHandler
            )
        except OSError:  # port taken: do not leave the service's thread behind
            self.service.close()
            raise
        self._httpd.service = self.service
        self._thread: Optional[threading.Thread] = None

    # -- addressing ----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "PlanServer":
        """Serve in a background thread; returns self once accepting."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-plan-server",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "start",
                    "url": self.url,
                    "workers": self.config.effective_workers,
                    "max_inflight": self.config.effective_max_inflight,
                    "strategy": self.config.strategy,
                }
            ),
        )
        return self

    def drain(self, grace: Optional[float] = None) -> bool:
        """Graceful stop: refuse new work, wait for in-flight, shut down.

        Returns True when every in-flight request finished inside the
        grace period (default: the config's ``drain_grace_seconds``).
        """
        grace = self.config.drain_grace_seconds if grace is None else grace
        self.service.begin_drain()
        drained = self.service.wait_idle(grace)
        self.close()
        logger.info("%s", json.dumps({"event": "drain", "clean": drained}))
        return drained

    def close(self) -> None:
        """Immediate stop (idempotent); in-flight requests are abandoned."""
        if self._thread is not None:  # shutdown() deadlocks unless serving
            self._httpd.shutdown()
        self._httpd.server_close()
        self.service.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "PlanServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
