"""Worker-shard supervisor: spawn, talk to, restart, and drain workers.

The supervisor owns the ``shards`` worker subprocesses.  For each shard
it keeps one :class:`WorkerHandle` — the subprocess, the callbacks of
its pending requests, and a per-iteration send buffer (writes are
coalesced via ``call_soon`` so a burst of requests costs one pipe
write).

:meth:`WorkerHandle.submit` is the one way a frame leaves: it files
``request id → (callback, hard-timeout timer)`` and queues the frame.
The worker's stdout arrives at a ``SubprocessProtocol``, is cut into
frames by :func:`frames.feed <repro.asyncserver.frames.feed>`, and each
reply is handed to its callback then and there — no reader task, no
future, nothing awaited between the pipe and whoever asked.  The
callback gets an ``asyncio.TimeoutError`` instead when its timer fires first and
a :class:`WorkerCrashed` when the worker exits first; exactly one of the
three, once.  :meth:`WorkerHandle.request` wraps that in a future for
the callers that are coroutines anyway (``/batch``, ``/stats``,
``/stats_update``, snapshot, exit).

Crash policy: a worker that dies outside a drain takes its pending
requests down with 500 ``worker_pool_failure`` responses and is
restarted with capped exponential backoff (the fresh worker warm-starts
from the shard's last snapshot when persistence is on, so a crash loses
at most the plans cached since the previous drain).  A crash *loop* —
:data:`BREAKER_THRESHOLD` crashes inside :data:`BREAKER_WINDOW_SECONDS` —
opens the shard's circuit breaker: its fingerprints answer 503
(:class:`WorkerUnavailable`) for :data:`BREAKER_COOLDOWN_SECONDS` while the
other shards keep serving, then a single restart probe closes the
breaker if the worker boots.  During a drain, exits are expected and no
restart happens.

Boot: the supervisor fixes the shard count once (``shards``, or
:func:`~repro.service.config.default_shards` when unset) and every
worker, first start or restart, boots from its shard index and
``dataclasses.asdict`` of that one
:class:`~repro.service.config.ServingConfig`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os
import sys
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.asyncserver import frames
from repro.service.config import ServingConfig

#: how long a spawn waits for the worker's hello.
WORKER_BOOT_SECONDS = 60.0
#: first restart delay; it doubles with every crash in the window.
RESTART_BACKOFF_BASE_SECONDS = 0.5
#: ceiling of the exponential restart backoff.
RESTART_BACKOFF_CAP_SECONDS = 30.0
#: crashes inside the window that open a shard's circuit breaker.
BREAKER_THRESHOLD = 5
#: sliding window in which crashes count towards the circuit breaker.
BREAKER_WINDOW_SECONDS = 60.0
#: how long an open breaker answers 503 before one restart probe.
BREAKER_COOLDOWN_SECONDS = 30.0


class WorkerCrashed(Exception):
    """The shard's worker died while holding this request."""


class WorkerUnavailable(WorkerCrashed):
    """The shard has no serving worker right now (restart backoff or
    open circuit breaker) — the front answers 503 so clients retry,
    rather than queueing onto a process that does not exist."""


#: what a request's callback is handed, once: the reply ``(status, body
#: bytes)``, or the exception that ended the wait — ``asyncio.TimeoutError`` past
#: its timeout, :class:`WorkerCrashed` when the worker went first.
Outcome = Union[Tuple[int, bytes], Exception]


class _ShardPipes(asyncio.SubprocessProtocol):
    """The pipes of one spawned worker process: reply frames in, its end
    noticed.  A respawn gets new pipes; the handle outlives them."""

    def __init__(self, handle: "WorkerHandle", loop: asyncio.AbstractEventLoop):
        self.handle = handle
        self.transport: Optional[asyncio.SubprocessTransport] = None
        self.stdin: Optional[asyncio.WriteTransport] = None
        self.buffer = bytearray()
        #: the reply stream stopped parsing; nothing after that is read.
        self.corrupt = False
        #: the worker's boot announcement, or why it never came.
        self.hello: asyncio.Future = loop.create_future()
        self.booted = False
        #: resolved when the process has exited and both pipes are closed.
        self.gone: asyncio.Future = loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.stdin = transport.get_pipe_transport(0)

    def pipe_data_received(self, fd: int, data: bytes) -> None:
        if self.corrupt:
            return
        self.buffer += data
        try:
            ready = frames.feed(self.buffer)
        except ValueError as error:
            # No way to find the next frame: the worker goes, and takes
            # its pending requests with it like any other crash.
            self.corrupt = True
            self.buffer.clear()
            self.handle.reap(f"corrupt reply stream ({error})")
            return
        pending = self.handle.pending
        for request_id, status, payload in ready:
            waiting = pending.pop(request_id, None)
            if waiting is not None:
                callback, timer = waiting
                timer.cancel()
                callback((status, payload))
            elif status == frames.HELLO and not self.hello.done():
                self.booted = True
                self.hello.set_result(json.loads(payload))

    def connection_lost(self, exc) -> None:
        """The process has exited and both pipes are closed."""
        if not self.hello.done():
            self.hello.set_exception(WorkerCrashed("worker exited before its hello"))
        self.transport.close()  # nothing left to close, but it warns unless told
        self.gone.set_result(None)
        self.handle.worker_gone(self)


class WorkerHandle:
    """One shard's subprocess plus its in-flight request bookkeeping."""

    def __init__(self, shard: int, supervisor: "WorkerSupervisor"):
        self.shard = shard
        self.supervisor = supervisor
        #: request id → (callback, hard-timeout timer) of every frame sent
        #: and not yet answered.
        self.pending: Dict[int, Tuple[Callable[[Outcome], None], asyncio.TimerHandle]] = {}
        self.hello: dict = {}
        self.restarts = 0
        self.breaker_open = False
        #: the delay currently (or last) applied before a respawn.
        self.current_backoff = 0.0
        self._crash_times: Deque[float] = deque()
        self._pipes: Optional[_ShardPipes] = None
        self._send_buffer = bytearray()
        self._flush_scheduled = False
        self._restart_task: Optional[asyncio.Task] = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        config = self.supervisor.worker_config(self.shard)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
        loop = asyncio.get_running_loop()
        pipes = _ShardPipes(self, loop)
        await loop.subprocess_exec(
            lambda: pipes,
            sys.executable,
            "-m",
            "repro.asyncserver.worker",
            json.dumps(config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # workers share the front's stderr for diagnostics
            env=env,
        )
        self._pipes = pipes
        self.hello = await asyncio.wait_for(pipes.hello, timeout=WORKER_BOOT_SECONDS)
        self.supervisor.note_persistence(self.hello.get("persistence"))

    def worker_gone(self, pipes: _ShardPipes) -> None:
        """*pipes*' process has exited.  The live worker's exit fails
        what it was holding and, outside a drain, starts the restart
        loop — unless it never said hello: then :meth:`start` raises and
        whoever called it decides."""
        if pipes is not self._pipes:
            return  # a worker this handle had given up on already
        self._pipes = None
        self._fail_pending(WorkerCrashed(f"shard {self.shard} worker exited"))
        if pipes.booted and self._restart_task is None and not (
            self._draining or self.supervisor.closed
        ):
            self._restart_task = asyncio.get_running_loop().create_task(self._restart())

    def _fail_pending(self, error: WorkerCrashed) -> None:
        failed = list(self.pending.values())
        self.pending.clear()
        for callback, timer in failed:
            timer.cancel()
            callback(error)

    async def _restart(self) -> None:
        """Crash outside a drain: restart the shard (warm-starting from
        its last snapshot when persistence is on), backing off
        exponentially, and opening the circuit breaker on a crash loop.
        While this coroutine sleeps, :meth:`submit` raises
        WorkerUnavailable → the front answers 503 for this shard and the
        other shards keep serving."""
        try:
            while not (self._draining or self.supervisor.closed):
                self.restarts += 1
                delay = self._note_crash()
                state = "breaker open; cooling down" if self.breaker_open else "backing off"
                print(
                    f"[supervisor] shard {self.shard} worker died "
                    f"(restart #{self.restarts}); {state} {delay:.2f}s before respawn",
                    file=sys.stderr,
                    flush=True,
                )
                if delay > 0:
                    await asyncio.sleep(delay)
                if self._draining or self.supervisor.closed:
                    return
                try:
                    await self.start()
                except Exception as error:  # noqa: BLE001 - keep serving other shards
                    print(
                        f"[supervisor] shard {self.shard} restart failed: {error}",
                        file=sys.stderr,
                        flush=True,
                    )
                    pipes, self._pipes = self._pipes, None
                    if pipes is not None:
                        _kill(pipes.transport)
                    continue
                # Half-open probe booted: close the breaker.  Crash history
                # stays in the window, so an immediate re-crash (a
                # deterministic crasher being retried) reopens it at once.
                self.breaker_open = False
                self.current_backoff = 0.0
                return
        finally:
            self._restart_task = None

    def _note_crash(self) -> float:
        """Record one crash; return the pre-respawn delay.

        Exponential backoff doubles from :data:`RESTART_BACKOFF_BASE_SECONDS`
        per crash in the sliding window, capped; reaching
        :data:`BREAKER_THRESHOLD` crashes in the window opens the breaker
        and switches the delay to the breaker cooldown.
        """
        now = time.monotonic()
        self._crash_times.append(now)
        while self._crash_times and now - self._crash_times[0] > BREAKER_WINDOW_SECONDS:
            self._crash_times.popleft()
        crashes = len(self._crash_times)
        if crashes >= BREAKER_THRESHOLD:
            self.breaker_open = True
            delay = BREAKER_COOLDOWN_SECONDS
        else:
            delay = min(
                RESTART_BACKOFF_CAP_SECONDS,
                RESTART_BACKOFF_BASE_SECONDS * (2 ** (crashes - 1)),
            )
        self.current_backoff = delay
        return delay

    def _alive(self) -> bool:
        pipes = self._pipes
        return pipes is not None and pipes.transport.get_returncode() is None

    def reap(self, reason: str) -> None:
        """Kill a wedged worker (hard-timeout expiry on the front, or a
        reply stream that no longer parses).

        The kill surfaces as the process's exit, which runs the normal
        crash accounting — backoff, breaker, restart — so a hang is just
        a crash the supervisor has to cause itself.
        """
        if self._alive():
            print(
                f"[supervisor] shard {self.shard}: killing wedged worker ({reason})",
                file=sys.stderr,
                flush=True,
            )
            _kill(self._pipes.transport)

    def describe(self) -> dict:
        """Supervision state for ``/stats`` (front-process truth only)."""
        return {
            "shard": self.shard,
            "alive": self._alive(),
            "restarts": self.restarts,
            "backoff_seconds": self.current_backoff,
            "breaker_open": self.breaker_open,
            "crashes_in_window": len(self._crash_times),
        }

    # -- request path --------------------------------------------------------
    def submit(
        self, kind: int, payload: bytes, timeout: float, callback: Callable[[Outcome], None]
    ) -> None:
        """Queue one frame.  *callback* is called exactly once, from the
        loop, with the worker's ``(status, body bytes)`` — or with the
        ``asyncio.TimeoutError`` of *timeout* seconds without one, or the
        :class:`WorkerCrashed` of a worker that exited first.  A shard
        with no worker to send to raises :class:`WorkerUnavailable`
        instead, and nothing is queued."""
        if self.breaker_open:
            raise WorkerUnavailable(
                f"shard {self.shard} circuit breaker open after repeated crashes; "
                "cooling down"
            )
        if self._pipes is None:
            raise WorkerUnavailable(
                f"shard {self.shard} has no live worker (restarting)"
            )
        request_id = next(self.supervisor.request_ids)
        loop = asyncio.get_running_loop()
        self.pending[request_id] = (
            callback,
            loop.call_later(timeout, self._expire, request_id),
        )
        self._send_buffer += frames.pack(request_id, kind, payload)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush)

    def _expire(self, request_id: int) -> None:
        callback, _timer = self.pending.pop(request_id)
        # asyncio's class, which is what every consumer tests: the builtin
        # only from Python 3.11 on.
        callback(asyncio.TimeoutError(f"shard {self.shard}: no reply in time"))

    def _flush(self) -> None:
        self._flush_scheduled = False
        buffer = bytes(self._send_buffer)
        self._send_buffer.clear()
        stdin = self._pipes.stdin if self._pipes is not None else None
        if stdin is None or stdin.is_closing():
            return  # the pending requests fail when the worker is gone
        stdin.write(buffer)

    async def request(self, kind: int, payload: bytes, timeout: float) -> Tuple[int, bytes]:
        """:meth:`submit` for a coroutine: the reply, or the exception raised."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def settle(outcome: Outcome) -> None:
            if future.done():
                return  # the waiting coroutine was cancelled meanwhile
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

        self.submit(kind, payload, timeout, settle)
        return await future

    # -- shutdown ------------------------------------------------------------
    async def drain(self, *, snapshot: bool, timeout: float) -> Optional[dict]:
        """Ask the worker to (optionally) snapshot its shard, then exit."""
        self._draining = True
        saved: Optional[dict] = None
        try:
            if snapshot:
                status, payload = await self.request(frames.SNAPSHOT, b"{}", timeout)
                if status == 200:
                    saved = json.loads(payload)
                    self.supervisor.note_persistence(saved.get("persistence"))
            await self.request(frames.EXIT, b"{}", timeout)
        except (WorkerCrashed, asyncio.TimeoutError):
            pass  # fall through to kill
        await self.terminate()
        return saved

    async def terminate(self) -> None:
        task = self._restart_task
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        pipes, self._pipes = self._pipes, None
        if pipes is not None:
            pipes.stdin.close()  # end of input is the worker's cue to leave
            exited, _ = await asyncio.wait([pipes.gone], timeout=5.0)
            if not exited:
                _kill(pipes.transport)
                await pipes.gone
        self._fail_pending(WorkerCrashed(f"shard {self.shard} terminated"))


def _kill(transport: asyncio.SubprocessTransport) -> None:
    try:
        transport.kill()
    except ProcessLookupError:
        pass


class WorkerSupervisor:
    """All shards: spawn on start, route by shard index, drain together."""

    def __init__(self, config: ServingConfig):
        # The shard count is decided here, once: routing, admission and
        # every (re)started shard's snapshot path read this config.
        self.config = dataclasses.replace(config, shards=config.effective_shards)
        self.shards = self.config.shards
        self.workers: List[WorkerHandle] = [
            WorkerHandle(shard, self) for shard in range(self.shards)
        ]
        self.request_ids = itertools.count(1)
        self.closed = False
        self.started_at = time.monotonic()
        # Persistence totals survive worker restarts (each hello /
        # snapshot response folds its counters in here).
        self._persistence = {"loaded": 0, "saved": 0, "rejected": 0}

    def worker_config(self, shard: int) -> dict:
        """What shard *shard*'s process boots from: its index and the
        server's :class:`ServingConfig`, field by field."""
        return {"shard": shard, "config": dataclasses.asdict(self.config)}

    def note_persistence(self, counters: Optional[dict]) -> None:
        if not counters:
            return
        for key in self._persistence:
            self._persistence[key] += int(counters.get(key, 0))

    @property
    def persistence(self) -> dict:
        return dict(self._persistence)

    async def start(self) -> None:
        await asyncio.gather(*(worker.start() for worker in self.workers))

    def worker(self, shard: int) -> WorkerHandle:
        return self.workers[shard]

    @property
    def total_restarts(self) -> int:
        return sum(worker.restarts for worker in self.workers)

    def shard_states(self) -> List[dict]:
        """Per-shard supervision state (restarts/backoff/breaker) for /stats."""
        return [worker.describe() for worker in self.workers]

    async def request(
        self, shard: int, kind: int, payload: bytes, timeout: float
    ) -> Tuple[int, bytes]:
        """One request to *shard*, given up on after *timeout* seconds."""
        return await self.workers[shard].request(kind, payload, timeout)

    async def broadcast(self, kind: int, payload: bytes) -> List[Optional[Tuple[int, bytes]]]:
        """Send *kind* to every shard; crashed shards yield ``None``.

        Each shard gets the hard (budget + grace) timeout: a shard answers
        frames in order, so this one may queue behind a plan that runs
        out its budget, and a shard given up on may still apply it.
        """

        async def one(worker: WorkerHandle):
            try:
                return await worker.request(kind, payload, self.config.hard_timeout_seconds)
            except (WorkerCrashed, asyncio.TimeoutError):
                return None

        return list(await asyncio.gather(*(one(worker) for worker in self.workers)))

    async def drain(self, *, snapshot: Optional[bool] = None) -> dict:
        """Snapshot (when persistence is on) and stop every worker.

        Idempotent: the second call is a no-op, so a SIGTERM racing an
        explicit ``drain()`` cannot double-count ``persistence.saved``.
        """
        if self.closed:
            return self.persistence
        self.closed = True
        if snapshot is None:
            snapshot = self.config.cache_dir is not None
        timeout = max(self.config.drain_grace_seconds, 1.0)
        await asyncio.gather(
            *(worker.drain(snapshot=snapshot, timeout=timeout) for worker in self.workers)
        )
        return self.persistence

    async def kill(self) -> None:
        self.closed = True
        await asyncio.gather(*(worker.terminate() for worker in self.workers))
