"""Worker-shard supervisor: spawn, talk to, restart, and drain workers.

The supervisor owns the ``shards`` worker subprocesses.  For each shard
it keeps one :class:`WorkerHandle` — the subprocess, its pending
request futures, and a per-iteration send buffer (writes are coalesced
via ``call_soon`` so a burst of requests costs one pipe write).

Crash policy: a worker that dies outside a drain takes its pending
requests down with 500 ``worker_pool_failure`` responses and is
restarted with capped exponential backoff (the fresh worker warm-starts
from the shard's last snapshot when persistence is on, so a crash loses
at most the plans cached since the previous drain).  A crash *loop* —
``breaker_threshold`` crashes inside :data:`BREAKER_WINDOW_SECONDS` — opens
the shard's circuit breaker: its fingerprints answer 503
(:class:`WorkerUnavailable`) for ``breaker_cooldown_seconds`` while the
other shards keep serving, then a single restart probe closes the
breaker if the worker boots.  During a drain, exits are expected and no
restart happens.
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
from typing import Deque, Dict, List, Optional, Tuple

from repro.asyncserver import frames
from repro.asyncserver.config import AsyncServerConfig
from repro.service.config import ServingConfig

#: how long a spawn waits for the worker's hello.
WORKER_BOOT_SECONDS = 60.0
#: ceiling of the exponential restart backoff.
RESTART_BACKOFF_CAP_SECONDS = 30.0
#: sliding window in which crashes count towards the circuit breaker.
BREAKER_WINDOW_SECONDS = 60.0


class WorkerCrashed(Exception):
    """The shard's worker died while holding this request."""


class WorkerUnavailable(WorkerCrashed):
    """The shard has no serving worker right now (restart backoff or
    open circuit breaker) — the front answers 503 so clients retry,
    rather than queueing onto a process that does not exist."""


class WorkerHandle:
    """One shard's subprocess plus its in-flight request bookkeeping."""

    def __init__(self, shard: int, supervisor: "WorkerSupervisor"):
        self.shard = shard
        self.supervisor = supervisor
        self.process: Optional[asyncio.subprocess.Process] = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.hello: dict = {}
        self.restarts = 0
        self.breaker_open = False
        #: the delay currently (or last) applied before a respawn.
        self.current_backoff = 0.0
        self._crash_times: Deque[float] = deque()
        self._send_buffer = bytearray()
        self._flush_scheduled = False
        self._reader_task: Optional[asyncio.Task] = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        config = self.supervisor.worker_config(self.shard)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.asyncserver.worker",
            json.dumps(config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # workers share the front's stderr for diagnostics
            env=env,
        )
        hello = await asyncio.wait_for(
            self._read_hello(), timeout=WORKER_BOOT_SECONDS
        )
        self.hello = hello
        self.supervisor.note_persistence(hello.get("persistence"))

    async def _read_hello(self) -> dict:
        assert self.process is not None and self.process.stdout is not None
        header = await self.process.stdout.readexactly(frames.HEADER_SIZE)
        _request_id, kind, length = frames.HEADER.unpack(header)
        payload = await self.process.stdout.readexactly(length)
        if kind != frames.HELLO:
            raise RuntimeError(f"shard {self.shard}: expected hello, got kind {kind}")
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return json.loads(payload)

    async def _read_loop(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        stdout = self.process.stdout
        try:
            while True:
                header = await stdout.readexactly(frames.HEADER_SIZE)
                request_id, status, length = frames.HEADER.unpack(header)
                payload = await stdout.readexactly(length)
                future = self.pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result((status, payload))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # worker exited — handled below
        except asyncio.CancelledError:
            raise
        await self._on_exit()

    async def _on_exit(self) -> None:
        if self.process is not None:
            await self.process.wait()
        failed = list(self.pending.values())
        self.pending.clear()
        for future in failed:
            if not future.done():
                future.set_exception(WorkerCrashed(f"shard {self.shard} worker exited"))
        if self._draining or self.supervisor.closed:
            return
        # Crash outside a drain: restart the shard (warm-starting from
        # its last snapshot when persistence is on), backing off
        # exponentially, and opening the circuit breaker on a crash
        # loop.  While this coroutine sleeps, send() raises
        # WorkerUnavailable → the front answers 503 for this shard and
        # the other shards keep serving.
        self.process = None
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
                process, self.process = self.process, None
                if process is not None and process.returncode is None:
                    try:
                        process.kill()
                    except ProcessLookupError:
                        pass
                continue
            # Half-open probe booted: close the breaker.  Crash history
            # stays in the window, so an immediate re-crash (a
            # deterministic crasher being retried) reopens it at once.
            self.breaker_open = False
            self.current_backoff = 0.0
            return

    def _note_crash(self) -> float:
        """Record one crash; return the pre-respawn delay.

        Exponential backoff doubles from the configured base per crash in
        the sliding window, capped; reaching ``breaker_threshold`` crashes
        in the window opens the breaker and switches the delay to the
        breaker cooldown.
        """
        config = self.supervisor.config
        now = time.monotonic()
        self._crash_times.append(now)
        while self._crash_times and now - self._crash_times[0] > BREAKER_WINDOW_SECONDS:
            self._crash_times.popleft()
        crashes = len(self._crash_times)
        if crashes >= config.breaker_threshold:
            self.breaker_open = True
            delay = config.breaker_cooldown_seconds
        else:
            delay = min(
                RESTART_BACKOFF_CAP_SECONDS,
                config.restart_backoff_base_seconds * (2 ** (crashes - 1)),
            )
        self.current_backoff = delay
        return delay

    def reap(self, reason: str) -> None:
        """Kill a wedged worker (hard-timeout expiry on the front).

        The kill surfaces as process exit in the reader loop, which runs
        the normal crash accounting — backoff, breaker, restart — so a
        hang is just a crash the supervisor has to cause itself.
        """
        process = self.process
        if process is not None and process.returncode is None:
            print(
                f"[supervisor] shard {self.shard}: killing wedged worker ({reason})",
                file=sys.stderr,
                flush=True,
            )
            try:
                process.kill()
            except ProcessLookupError:
                pass

    def describe(self) -> dict:
        """Supervision state for ``/stats`` (front-process truth only)."""
        process = self.process
        return {
            "shard": self.shard,
            "alive": process is not None and process.returncode is None,
            "restarts": self.restarts,
            "backoff_seconds": self.current_backoff,
            "breaker_open": self.breaker_open,
            "crashes_in_window": len(self._crash_times),
        }

    # -- request path --------------------------------------------------------
    def send(self, kind: int, payload: bytes) -> asyncio.Future:
        """Queue one frame; returns a future of ``(status, body_bytes)``."""
        if self.breaker_open:
            raise WorkerUnavailable(
                f"shard {self.shard} circuit breaker open after repeated crashes; "
                "cooling down"
            )
        if self.process is None or self.process.stdin is None:
            raise WorkerUnavailable(
                f"shard {self.shard} has no live worker (restarting)"
            )
        request_id = next(self.supervisor.request_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self._send_buffer += frames.pack(request_id, kind, payload)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        return future

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._send_buffer:
            return
        buffer = bytes(self._send_buffer)
        self._send_buffer.clear()
        stdin = self.process.stdin if self.process else None
        if stdin is None or stdin.is_closing():
            return  # pending futures fail via _on_exit
        stdin.write(buffer)

    async def request(self, kind: int, payload: bytes, timeout: float) -> Tuple[int, bytes]:
        future = self.send(kind, payload)
        return await asyncio.wait_for(future, timeout=timeout)

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
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        process, self.process = self.process, None
        if process is None:
            return
        if process.stdin is not None:
            try:
                process.stdin.close()
            except (BrokenPipeError, ConnectionResetError):
                pass
        if process.returncode is None:
            try:
                await asyncio.wait_for(process.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        for future in self.pending.values():
            if not future.done():
                future.set_exception(WorkerCrashed(f"shard {self.shard} terminated"))
        self.pending.clear()


class WorkerSupervisor:
    """All shards: spawn on start, route by shard index, drain together."""

    def __init__(self, config: AsyncServerConfig):
        self.config = config
        self.shards = config.effective_shards
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
        """What shard *shard*'s process boots from: its identity, plus the
        shared serving settings its :class:`ServingCore` is built from."""
        config = self.config
        return {
            "shard": shard,
            "shards": self.shards,
            "snapshot_path": config.shard_path(shard),
            "revalidate_batch": config.revalidate_batch,
            "serving": {
                field.name: getattr(config, field.name)
                for field in dataclasses.fields(ServingConfig)
            },
        }

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
        self, shard: int, kind: int, payload: bytes, timeout: Optional[float] = None
    ) -> Tuple[int, bytes]:
        """One request to *shard*.  *timeout* defaults to the request
        budget; planning endpoints pass the hard (budget + grace) timeout
        instead so the worker's cooperative deadline answers first."""
        if timeout is None:
            timeout = self.config.request_timeout_seconds
        return await self.workers[shard].request(kind, payload, timeout)

    async def broadcast(self, kind: int, payload: bytes) -> List[Optional[Tuple[int, bytes]]]:
        """Send *kind* to every shard; crashed shards yield ``None``."""

        async def one(worker: WorkerHandle):
            try:
                return await worker.request(
                    kind, payload, self.config.request_timeout_seconds
                )
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
