"""The async serving tier: one event loop in front of sharded workers.

Architecture (see ``docs/architecture.md``)::

    clients ──keep-alive HTTP/1.1──▶ event loop (this module)
                                        │ route: SQL → fingerprint → shard
                                        ├──frames──▶ worker 0 (own PlanCache)
                                        ├──frames──▶ worker 1 (own PlanCache)
                                        └──frames──▶ ...

The front process never optimizes and never touches a plan cache: it
parses HTTP, routes each request by structural fingerprint to the worker
that owns that fingerprint's cache shard, and relays the worker's
ready-made JSON response bytes verbatim.  A bounded route cache
(SQL text → shard) makes the steady-state front cost independent of SQL
parsing; ``/batch`` scatters slices to every involved shard and merges
the per-item results; ``/stats`` aggregates all shards plus the front's
own request metrics.

A plan request (``/optimize``, ``/explain``, ``/execute``) is a relay,
not a coroutine: ``data_received`` admits it, routes it and submits its
frame inline, and the shard's reply callback settles it — releases the
admission slot, counts it, and writes every reply now at the head of the
connection's line.  Only the endpoints that talk to several shards run
as a task.

The HTTP surface apart from its transport lives here too: the route
table (:data:`ENDPOINTS`), admission errors and the per-endpoint request
metrics (:class:`ServerMetrics`); JSON body parsing is the core's
(:func:`repro.service.core.parse_body`), which the shard workers parse
with too.  :class:`repro.server.client.ServerClient` speaks the result.

**One owner.**  The front's state — the admission count, the route
cache, the metrics — belongs to the event loop's thread and takes no
lock: only code running on that loop changes it.  A caller on another
thread goes through the loop (``asyncio.run_coroutine_threadsafe``), as
the sync facade's drain and close do, for anything more than one
attribute read — a metrics snapshot included.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Tuple

from repro.asyncserver import frames
from repro.asyncserver.supervisor import (
    WORKER_BOOT_SECONDS,
    Outcome,
    WorkerCrashed,
    WorkerHandle,
    WorkerSupervisor,
    WorkerUnavailable,
)
from repro.service.config import ServingConfig
from repro.service.core import (
    WINDOW,
    RequestError,
    batch_item,
    batch_queries,
    batch_report,
    error_body,
    merge_stats,
    parse_body,
    parse_sql,
    sum_counters,
    window_summary,
)
from repro.service.fingerprint import query_fingerprint, shard_for_fingerprint
from repro.sql.catalog import Catalog

logger = logging.getLogger("repro.asyncserver")

#: largest accepted request body; protects the JSON parser from abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

#: entries of the front's SQL text → shard memo.
ROUTE_CACHE_CAPACITY = 4096

_PLAN_FRAMES = {
    "/optimize": frames.OPTIMIZE,
    "/explain": frames.EXPLAIN,
    "/execute": frames.EXECUTE,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


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
    """The front's per-endpoint counters and latency windows — the
    ``uptime_seconds`` / ``requests`` part of ``GET /stats``.

    Every finished exchange records its endpoint, status class and wall
    latency; latencies are kept in a bounded window per endpoint (the
    newest :data:`~repro.service.core.WINDOW` samples), counters are
    cumulative since start.  Recorded and read on the loop's thread
    only, so it takes no lock.
    """

    def __init__(self) -> None:
        self._started = time.monotonic()
        self._endpoints: Dict[str, _EndpointStats] = {}

    def record_request(self, method: str, path: str, status: int, elapsed_seconds: float) -> None:
        """One finished HTTP exchange (including rejected/errored ones),
        keyed ``"<METHOD> <path>"``; unroutable paths and odd methods
        share ``<other>`` buckets so clients cannot grow the dict."""
        if method not in ("GET", "POST"):
            method = "<other>"
        endpoint = f"{method} {path if path in ENDPOINTS else '<other>'}"
        stats = self._endpoints.get(endpoint)
        if stats is None:
            stats = self._endpoints[endpoint] = _EndpointStats()
        stats.count += 1
        if status == 429:
            stats.rejected += 1
        if 400 <= status < 500:
            stats.errors_4xx += 1
        elif status >= 500:
            stats.errors_5xx += 1
        stats.latencies_ms.append(elapsed_seconds * 1000.0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of every counter."""
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


def _error_bytes(code: str, message: str) -> bytes:
    return json.dumps(error_body(code, message)).encode("utf-8")


def _response_bytes(status: int, body: bytes, *, close: bool = False) -> bytes:
    # Backpressure statuses advertise a retry hint that ServerClient's
    # opt-in retry loop honours.
    retry_after = "Retry-After: 1\r\n" if status in (429, 503) else ""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{retry_after}"
        f"{'Connection: close' + chr(13) + chr(10) if close else ''}"
        "\r\n"
    )
    return head.encode("latin-1") + body


class AsyncPlanService:
    """Loop-side state: supervisor, route cache, admission, metrics."""

    def __init__(self, config: ServingConfig):
        self.supervisor = WorkerSupervisor(config)
        self.config = self.supervisor.config  # the shard count, as decided at boot
        self.catalog = Catalog.from_tpch(scale_factor=config.scale_factor)
        self.metrics = ServerMetrics()
        self.inflight = 0
        self.draining = False
        self._idle: Optional[asyncio.Event] = None
        # SQL text → shard.  Bounded LRU; on a hit the front routes
        # without parsing at all.
        self._routes: "OrderedDict[str, int]" = OrderedDict()
        self._route_hits = 0
        self._route_misses = 0
        self.started = time.monotonic()

    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        await self.supervisor.start()

    # -- routing -------------------------------------------------------------
    def route(self, sql) -> int:
        """The shard owning *sql*'s structural fingerprint."""
        routes = self._routes
        shard = routes.get(sql) if isinstance(sql, str) else None
        if shard is not None:
            self._route_hits += 1
            routes.move_to_end(sql)
            return shard
        query = parse_sql(sql, self.catalog)
        self._route_misses += 1
        shard = shard_for_fingerprint(
            query_fingerprint(query), self.supervisor.shards
        )
        routes[sql] = shard
        if len(routes) > ROUTE_CACHE_CAPACITY:
            routes.popitem(last=False)
        return shard

    # -- admission -----------------------------------------------------------
    def _admit(self) -> None:
        check_admission(self.draining, self.inflight, self.config.effective_max_inflight)
        self.inflight += 1
        if self._idle is not None:
            self._idle.clear()

    def _release(self) -> None:
        self.inflight -= 1
        if self.inflight == 0 and self._idle is not None:
            self._idle.set()

    # -- endpoints -----------------------------------------------------------
    def dispatch(self, exchange: "_Exchange", body: bytes) -> None:
        """Start *exchange* on its way to :meth:`_Exchange.settle`.

        ``/optimize``, ``/explain`` and ``/execute`` are a relay: admitted,
        routed by fingerprint — the executing shard is the one whose cache
        shard owns the plan — and handed to that shard right here; its
        reply frame settles the exchange from the pipe's callback.  The
        hard (budget + grace) timeout rides along: the worker's
        cooperative deadline fires at the budget and answers first, so
        this one expiring means the worker is wedged.  Every other
        endpoint runs its coroutine as one task.
        """
        try:
            check_route(exchange.method, exchange.path)
            kind = _PLAN_FRAMES.get(exchange.path)
            if kind is None:
                task = asyncio.get_running_loop().create_task(
                    self._route_request(exchange.path, body)
                )
                exchange.task = task
                task.add_done_callback(exchange.task_done)
                return
            self._admit()
            exchange.admitted = True
            payload = parse_body(body)
            exchange.worker = worker = self.supervisor.worker(self.route(payload.get("sql")))
            worker.submit(kind, body, self.config.hard_timeout_seconds, exchange.settle)
        except Exception as error:  # noqa: BLE001 - the front must not die
            exchange.settle(error)

    def error_reply(self, error: Exception, method: str, path: str) -> Tuple[int, bytes]:
        """The reply an exchange that ended in *error* gets."""
        if isinstance(error, asyncio.TimeoutError):
            error = worker_abandoned(self.config.request_timeout_seconds)
        elif isinstance(error, WorkerUnavailable):
            error = RequestError(503, "shard_unavailable", str(error))
        elif isinstance(error, WorkerCrashed):
            error = RequestError(500, "worker_pool_failure", str(error))
        if isinstance(error, RequestError):
            return error.status, _error_bytes(error.code, error.message)
        logger.error("unhandled error on %s %s", method, path, exc_info=error)
        return 500, _error_bytes("internal", f"{type(error).__name__}: {error}")

    async def _route_request(self, path: str, body: bytes) -> Tuple[int, bytes]:
        if path == "/stats":
            return 200, json.dumps(await self.stats_body()).encode("utf-8")
        if path == "/healthz":
            status, payload = self.healthz_body()
            return status, json.dumps(payload).encode("utf-8")
        if path == "/batch":
            return await self._batch_request(body)
        if path == "/stats_update":
            return await self._stats_update_request(body)
        raise KeyError(path)  # an endpoint check_route knows and this front does not

    async def _batch_request(self, body: bytes) -> Tuple[int, bytes]:
        self._admit()
        try:
            payload = parse_body(body)
            queries = batch_queries(payload)
            started = time.perf_counter()
            front_items = []  # items answered without a worker (parse errors)
            per_shard: dict = {}
            for index, sql in enumerate(queries):
                try:
                    shard = self.route(sql)
                except RequestError as error:
                    front_items.append(batch_item(index, error, False))
                    continue
                per_shard.setdefault(shard, []).append([index, sql])

            passthrough = {
                key: payload[key]
                for key in ("strategy", "factor", "cost_model", "include_plans")
                if key in payload
            }

            async def one_shard(shard: int, chunk):
                request = dict(passthrough)
                request["queries"] = chunk

                def failed(error: str, stage: str = "optimize", **extra):
                    """The whole slice shares one fate: an item each."""
                    return [
                        dict(index=index, error=error, stage=stage, **extra)
                        for index, _sql in chunk
                    ]

                try:
                    status, response = await self.supervisor.request(
                        shard,
                        frames.BATCH,
                        json.dumps(request).encode("utf-8"),
                        timeout=self.config.hard_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    self.supervisor.worker(shard).reap("batch hard-timeout")
                    return failed("worker timeout", timeout=True)
                except WorkerUnavailable as unavailable:
                    return failed(str(unavailable), stage="route")
                except WorkerCrashed:
                    return failed("worker crashed while optimizing")
                if status != 200:
                    error = json.loads(response).get("error", {})
                    detail = error.get("message", "")
                    if 400 <= status < 500:
                        # A shard refuses a slice only for what the slices
                        # share (a bad override): the whole request's fault.
                        raise RequestError(status, error.get("code", "bad_request"), detail)
                    return failed(detail)
                return json.loads(response)["items"]

            shard_items = await asyncio.gather(
                *(one_shard(shard, chunk) for shard, chunk in per_shard.items())
            )
            items = front_items + [item for chunk in shard_items for item in chunk]
            items.sort(key=lambda item: item["index"])
            report = batch_report(items, started)
            return 200, json.dumps(report).encode("utf-8")
        finally:
            self._release()

    async def _stats_update_request(self, body: bytes) -> Tuple[int, bytes]:
        """``POST /stats_update`` — broadcast one statistics drift.

        Every shard owns a private catalog copy, so the delta goes to
        all of them (each marks its own entries stale and revalidates a
        bounded inline batch — an independent per-shard task).  The
        control plane takes no admission slot: drift must land even
        under 429 pressure.  Any shard rejecting the update (unknown
        table, bad body) fails the whole request with that shard's
        error, since a half-applied drift would leave shards planning
        under different statistics.
        """
        payload = parse_body(body)  # reject bad JSON before fan-out
        replies = await self.supervisor.broadcast(
            frames.STATS_UPDATE, json.dumps(payload).encode("utf-8")
        )
        shards: list = []
        for reply in replies:
            if reply is None:
                continue
            status, response = reply
            detail = json.loads(response)
            if status != 200:
                error = detail.get("error", {})
                raise RequestError(
                    status,
                    error.get("code", "stats_update_failed"),
                    error.get("message", "shard rejected the statistics update"),
                )
            shards.append(detail)
        if not shards:
            raise RequestError(503, "shard_unavailable", "no shard answered the update")
        # Every shard applied the same delta to the same statistics, so
        # the first reply describes it; the lifecycle counts add up.
        additive = ("marked_stale", "stale_entries", "revalidated_inline")
        merged = {key: value for key, value in shards[0].items() if key != "shard"}
        merged["shards"] = len(shards)
        merged.update(
            sum_counters({key: shard[key] for key in additive} for shard in shards)
        )
        return 200, json.dumps(merged).encode("utf-8")

    # -- introspection -------------------------------------------------------
    def healthz_body(self) -> Tuple[int, dict]:
        if self.draining:
            return 503, {"status": "draining", "inflight": self.inflight}
        return 200, {
            "status": "ok",
            "mode": "async",
            "shards": self.supervisor.shards,
            "strategy": self.config.strategy,
            "inflight": self.inflight,
        }

    async def stats_body(self) -> dict:
        """``GET /stats`` — front metrics + all shards, merged.

        Per-shard counters come from each worker's single-threaded
        snapshot, so no individual shard's numbers can tear; the merge
        is one pass over already-consistent snapshots.
        """
        replies = await self.supervisor.broadcast(frames.STATS, b"{}")
        details = [
            json.loads(payload)
            for reply in replies
            if reply is not None
            for status, payload in (reply,)
            if status == 200
        ]
        payload = self.metrics.snapshot()
        payload["mode"] = "async"
        payload["inflight"] = self.inflight
        payload["draining"] = self.draining
        payload["max_inflight"] = self.config.effective_max_inflight
        payload["shards"] = self.supervisor.shards
        payload["restarts"] = self.supervisor.total_restarts
        payload["supervision"] = self.supervisor.shard_states()
        payload["degradation"] = self.config.degradation
        payload.update(merge_stats(details))
        payload["persistence"] = self.supervisor.persistence
        payload["route_cache"] = {
            "size": len(self._routes),
            "capacity": ROUTE_CACHE_CAPACITY,
            "hits": self._route_hits,
            "misses": self._route_misses,
        }
        payload["shard_detail"] = details
        return payload

    # -- lifecycle -----------------------------------------------------------
    async def drain(self, grace: Optional[float] = None) -> bool:
        """Refuse new work, wait for in-flight, snapshot shards, stop.

        Idempotent; returns True when every in-flight request finished
        inside the grace period.
        """
        grace = self.config.drain_grace_seconds if grace is None else grace
        self.draining = True
        clean = True
        if self._idle is not None and self.inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=grace)
            except asyncio.TimeoutError:
                clean = False
        await self.supervisor.drain()
        return clean


class _HttpConnection(asyncio.Protocol):
    """One keep-alive client connection on the front event loop.

    Minimal HTTP/1.1: request line + Content-Length framing, no chunked
    bodies.  Pipelined requests are dispatched **concurrently** (each
    fans out to its shard immediately, so one connection can keep every
    worker busy and the workers see batched frames) while responses are
    written strictly in request order — a per-connection FIFO of
    exchanges; whichever settles writes every reply now at its head.
    """

    def __init__(self, service: AsyncPlanService):
        self.service = service
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self._head: Optional[Tuple[str, str, int, bool]] = None
        self._exchanges: Deque[_Exchange] = deque()

    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass

    def connection_lost(self, exc) -> None:
        """Nobody is left to answer.  A coroutine endpoint is cancelled; a
        relayed request cannot be — the shard is working on it — so it
        keeps its admission slot until the shard's reply (or the hard
        timeout) settles it, and its reply is dropped."""
        for exchange in self._exchanges:
            if exchange.task is not None:
                exchange.task.cancel()
        self._exchanges.clear()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._parse()

    # -- request framing -----------------------------------------------------
    def _parse(self) -> None:
        while True:
            if self._head is None:
                end = self.buffer.find(b"\r\n\r\n")
                if end < 0:
                    if len(self.buffer) > MAX_HEADER_BYTES:
                        self._reject(400, "bad_request", "request head too large")
                    return
                head = bytes(self.buffer[: end])
                del self.buffer[: end + 4]
                try:
                    self._head = self._parse_head(head)
                except RequestError as error:
                    self._reject(error.status, error.code, error.message)
                    return
            method, path, length, close_after = self._head
            if length > MAX_BODY_BYTES:
                self._reject(413, "too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
                return
            if len(self.buffer) < length:
                return
            body = bytes(self.buffer[:length])
            del self.buffer[:length]
            self._head = None
            exchange = _Exchange(self, method, path, close_after)
            self._exchanges.append(exchange)
            self.service.dispatch(exchange, body)

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, int, bool]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise RequestError(400, "bad_request", "undecodable head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise RequestError(400, "bad_request", f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        length = 0
        connection = ""
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                continue
            name = name.strip().lower()
            if name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise RequestError(400, "bad_request", "bad Content-Length") from None
                if length < 0:
                    raise RequestError(400, "bad_request", "bad Content-Length")
            elif name == "connection":
                connection = value.strip().lower()
        close_after = connection == "close" or version == "HTTP/1.0"
        return method, target.split("?", 1)[0], length, close_after

    def _reject(self, status: int, code: str, message: str) -> None:
        """Protocol-level failure: answer and close (resync impossible)."""
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(
                _response_bytes(status, _error_bytes(code, message), close=True)
            )
            self.transport.close()

    # -- responses -----------------------------------------------------------
    def write_settled(self) -> None:
        """Write the reply of every settled exchange at the head of the
        line — up to the first one still waiting, so replies leave in
        request order whatever order the shards answered in."""
        exchanges = self._exchanges
        transport = self.transport
        while exchanges and exchanges[0].reply is not None:
            exchange = exchanges.popleft()
            if transport.is_closing():
                continue
            transport.write(exchange.reply)
            if exchange.close_after:
                transport.close()


class _Exchange:
    """One request of a connection, from its parsed head to its reply.

    Every exchange ends in :meth:`settle`, exactly once — called inline
    for a request refused at the door, by the shard's reply callback for
    a relayed plan request, by the task's done-callback for a coroutine
    endpoint — which is where the admission slot is released, the error
    (if that is how it ended) becomes a reply, and the request is counted.
    """

    __slots__ = (
        "connection", "method", "path", "close_after", "started",
        "admitted", "worker", "task", "reply",
    )

    def __init__(self, connection: _HttpConnection, method: str, path: str, close_after: bool):
        self.connection = connection
        self.method = method
        self.path = path
        self.close_after = close_after
        self.started = time.perf_counter()
        #: holds an admission slot (a relayed plan request, until settled).
        self.admitted = False
        #: the shard a relayed request was handed to.
        self.worker: Optional[WorkerHandle] = None
        #: the coroutine of an endpoint that is not a relay.
        self.task: Optional[asyncio.Task] = None
        #: the response bytes, once settled.
        self.reply: Optional[bytes] = None

    def settle(self, outcome: Outcome) -> None:
        """End the exchange with *outcome*: a ``(status, body bytes)``
        reply, or the exception that stands for one."""
        service = self.connection.service
        if self.admitted:
            service._release()
        if isinstance(outcome, Exception):
            if isinstance(outcome, asyncio.TimeoutError) and self.worker is not None:
                # Kill the wedged worker so the supervisor's crash path
                # restarts the shard.
                self.worker.reap("request hard-timeout")
            outcome = service.error_reply(outcome, self.method, self.path)
        status, payload = outcome
        service.metrics.record_request(
            self.method, self.path, status, time.perf_counter() - self.started
        )
        self.reply = _response_bytes(status, payload, close=self.close_after)
        self.connection.write_settled()

    def task_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return  # the client is gone; the coroutine released what it held
        error = task.exception()
        self.settle(error if error is not None else task.result())


class AsyncPlanServer:
    """The async daemon: supervisor + event-loop HTTP front.

    Two usage styles:

    * **async** (the CLI): ``await server.async_start()`` inside a
      running loop, later ``await server.async_drain()``.
    * **sync facade** (tests)::

          with AsyncPlanServer(ServingConfig(port=0, shards=2)) as server:
              ...  # server.port, server.url
              server.drain()

      which hosts a private event loop in a background thread.
    """

    def __init__(self, config: Optional[ServingConfig] = None):
        self.service = AsyncPlanService(config if config is not None else ServingConfig())
        self.config = self.service.config
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._done: Optional[asyncio.Future] = None

    # -- addressing ----------------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- async API -----------------------------------------------------------
    async def async_start(self) -> "AsyncPlanServer":
        await self.service.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpConnection(self.service), self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "start",
                    "mode": "async",
                    "url": self.url,
                    "shards": self.service.supervisor.shards,
                    "max_inflight": self.config.effective_max_inflight,
                    "cache_dir": self.config.cache_dir,
                }
            ),
        )
        return self

    async def async_drain(self, grace: Optional[float] = None) -> bool:
        """Graceful stop: 503 new work, finish in-flight, snapshot, exit."""
        clean = await self.service.drain(grace)
        await self.async_close()
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "drain",
                    "clean": clean,
                    "persistence": self.service.supervisor.persistence,
                }
            ),
        )
        return clean

    async def async_close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.supervisor.kill()

    # -- sync facade (background-thread event loop) --------------------------
    def start(self) -> "AsyncPlanServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-async-plan-server", daemon=True
        )
        self._thread.start()
        boot_budget = WORKER_BOOT_SECONDS + 30.0
        if not self._ready.wait(timeout=boot_budget):
            raise RuntimeError(f"async server failed to boot within {boot_budget}s")
        if self._startup_error is not None:
            self._join()
            raise RuntimeError("async server failed to start") from self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._loop = None

    async def _main(self) -> None:
        self._done = asyncio.get_running_loop().create_future()
        try:
            await self.async_start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._startup_error = error
            await self.async_close()
            self._ready.set()
            return
        self._ready.set()
        await self._done

    def _finish(self) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    def _join(self) -> None:
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def drain(self, grace: Optional[float] = None) -> bool:
        """Sync-facade :meth:`async_drain`: True when every in-flight
        request finished inside *grace*."""
        loop = self._loop
        if loop is None or self._thread is None:
            return True

        async def _do() -> bool:
            try:
                return await self.async_drain(grace)
            finally:
                self._finish()

        timeout = (grace if grace is not None else self.config.drain_grace_seconds)
        clean = asyncio.run_coroutine_threadsafe(_do(), loop).result(
            timeout=timeout + self.config.request_timeout_seconds + 30.0
        )
        self._join()
        return clean

    def close(self) -> None:
        """Sync-facade immediate stop (idempotent)."""
        loop = self._loop
        if loop is None or self._thread is None:
            return

        async def _do() -> None:
            try:
                await self.async_close()
            finally:
                self._finish()

        asyncio.run_coroutine_threadsafe(_do(), loop).result(timeout=30.0)
        self._join()

    def __enter__(self) -> "AsyncPlanServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
