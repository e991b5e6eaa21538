"""A small stdlib HTTP client for the plan server.

One :class:`ServerClient` keeps one persistent (keep-alive) connection,
so repeated calls pay no TCP handshake — exactly what the closed-loop
benchmark clients need.  A client is therefore **not** thread-safe; give
each thread its own instance.

Error handling mirrors the server's JSON shape: any non-2xx response
raises :class:`ServerError` carrying the HTTP status and the body's
``error.code`` / ``error.message`` (``/healthz`` is exempt — a draining
server's 503 is an answer, not a failure).

Retries are **opt-in** (``retries=N``): transient failures — connection
errors and 429/503 responses, which the server emits for backpressure,
draining, and open circuit breakers — are retried with capped
exponential backoff and *full jitter* (each sleep is uniform in
``[0, min(cap, base * 2**attempt)]``, so a thundering herd of clients
decorrelates instead of re-arriving in lockstep).  A ``Retry-After``
response header, which the server attaches to 429/503, takes precedence
over the computed backoff.  Non-transient errors (400/404/500/504)
never retry: a 504 means a planning budget was truly blown and a retry
would blow it again.  Nor does a client-side timeout: the server may
still be working on the request.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Optional

#: HTTP statuses worth retrying: backpressure and temporary
#: unavailability.  Everything else is either a client bug (4xx) or a
#: deterministic failure (500/504) that a retry cannot fix.
RETRYABLE_STATUSES = frozenset({429, 503})


class ServerError(RuntimeError):
    """A non-2xx response from the plan server."""

    def __init__(self, status: int, code: str, message: str, body: Optional[dict] = None,
                 retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.body = body if body is not None else {}
        #: the response's Retry-After hint in seconds, when present.
        self.retry_after = retry_after


class ServerClient:
    """Typed access to every plan-server endpoint over one connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 60.0,
                 retries: int = 0, backoff_base: float = 0.1, backoff_cap: float = 2.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            conn.connect()
            # Headers and body go out as separate writes; without
            # TCP_NODELAY the body waits on the server's delayed ACK
            # (~40ms) and dominates warm-cache latency.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> None:
        """Sleep before retry *attempt* (0-based): server hint, else full
        jitter on a capped exponential."""
        if retry_after is not None and retry_after >= 0:
            delay = min(retry_after, self.backoff_cap)
        else:
            delay = random.uniform(
                0.0, min(self.backoff_cap, self.backoff_base * (2 ** attempt))
            )
        if delay > 0:
            time.sleep(delay)

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 raise_for_status: bool = True) -> dict:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        attempts = max(1, self.retries + 1)
        for attempt in range(attempts):
            last = attempt == attempts - 1
            try:
                decoded, status, retry_after = self._exchange(method, path, payload, headers)
            except TimeoutError:
                raise  # the server may be working on it: never send it twice
            except (ConnectionError, http.client.HTTPException, OSError):
                if last:
                    raise
                self._backoff(attempt, None)
                continue
            if raise_for_status and status >= 400:
                error = decoded.get("error") or {}
                server_error = ServerError(
                    status,
                    error.get("code", "unknown"),
                    error.get("message", f"HTTP {status}"),
                    decoded,
                    retry_after=retry_after,
                )
                if status in RETRYABLE_STATUSES and not last:
                    self._backoff(attempt, retry_after)
                    continue
                raise server_error
            if isinstance(decoded, dict):
                decoded.setdefault("_status", status)
            return decoded
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange(self, method, path, payload, headers):
        """One request/response on the keep-alive connection.

        A request that fails on a connection reused from an earlier call
        is sent **once** more on a fresh one, regardless of the retry
        policy: the server restarted, or reaped the idle connection
        between calls — not a server failure.  A failure on a fresh
        connection, and a timeout on any, are raised as they are: the
        server may have the request, and sending it again could apply it
        twice.
        """
        for attempt in (0, 1):
            reused = self._conn is not None
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError) as error:
                self.close()
                if attempt or not reused or isinstance(error, TimeoutError):
                    raise
        retry_after: Optional[float] = None
        raw_hint = response.getheader("Retry-After")
        if raw_hint is not None:
            try:
                retry_after = float(raw_hint)
            except ValueError:
                retry_after = None
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except json.JSONDecodeError:
            decoded = {"raw": data.decode("utf-8", "replace")}
        if not isinstance(decoded, dict):
            decoded = {"value": decoded}
        return decoded, response.status, retry_after

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------------
    def optimize(self, sql: str, **knobs) -> dict:
        """``POST /optimize``: plan one statement (knobs: strategy, factor,
        cost_model, include_plan)."""
        return self._request("POST", "/optimize", {"sql": sql, **knobs})

    def batch(self, queries, **knobs) -> dict:
        """``POST /batch``: plan many statements with per-item errors."""
        return self._request("POST", "/batch", {"queries": list(queries), **knobs})

    def explain(self, sql: str, **knobs) -> dict:
        """``POST /explain``: plan and render one statement."""
        return self._request("POST", "/explain", {"sql": sql, **knobs})

    def execute(self, sql: str, **knobs) -> dict:
        """``POST /execute``: plan one statement and run it against the
        server's dataset (knobs: executor, limit, strategy, ...)."""
        return self._request("POST", "/execute", {"sql": sql, **knobs})

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        """Health probe — returns the body even for a draining 503."""
        return self._request("GET", "/healthz", raise_for_status=False)
