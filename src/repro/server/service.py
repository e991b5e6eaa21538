"""`PlanService` — the threaded tier's adapter over the serving core.

What a request *means* lives in :class:`~repro.service.core.ServingCore`
— the same core a shard worker of the async tier serves from.  This
class adds what only the threaded transport owns: the bounded admission
counter behind 429 backpressure and graceful drain, a shared
:class:`~concurrent.futures.ProcessPoolExecutor` for CPU-bound optimizer
runs, and the lock that makes many HTTP threads one owner of the core.
The HTTP layer (:mod:`repro.server.app`) translates requests into these
methods; tests can drive the service directly without sockets.

Threading model: whatever reads or changes the core's memos, cache and
counters happens under :attr:`PlanService._lock`, and the lock is held
for that only — never across a pool wait, an execution or a replan.  A
request probes the cache under the lock (a warm hit ends there), its
misses go to the pool as one wave while other threads use the core, and
the results are stored back under the lock again; ``/execute`` runs its
plan and the revalidation thread re-costs unlocked, then record under
the lock.  HTTP threads park cheaply on ``Future.result()`` while at
most ``workers`` processes burn CPU in the DP enumerator; worker runs
return :class:`~repro.service.batch.WorkerOutcome` envelopes, so a
poisoned query is a per-request (or per-batch-item) error, not a dead
pool.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import List, Optional, Tuple, Union

from repro import chaos
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics, check_admission, worker_abandoned
from repro.service.batch import Miss, WorkerOutcome, plan_miss, plan_wave
from repro.service.core import (
    Planned,
    RequestError,
    ServingCore,
    batch_item,
    batch_queries,
    batch_report,
    explain_reply,
    optimize_reply,
)

#: how often the revalidation thread looks for stale entries nobody
#: announced: marked at serve time (banded keys), or requeued by a failure.
REVALIDATE_POLL_SECONDS = 1.0


class PlanService:
    """Everything behind the HTTP handler: core, lock, pool, admission."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.core = ServingCore(config)
        self.metrics = ServerMetrics()
        self._lock = threading.Lock()  # the core's one owner; see above
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._inflight = 0
        self._exchanges = 0
        self._idle = threading.Condition()
        self._draining = threading.Event()
        self._closed = threading.Event()
        # Stale-while-revalidate, off the request path: this thread drains
        # the backlog one entry at a time while requests keep being served.
        self._stale_kick = threading.Event()
        self._revalidator = threading.Thread(
            target=self._revalidate_loop, name="repro-revalidate", daemon=True
        )
        self._revalidator.start()

    # -- admission / lifecycle ----------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        with self._idle:
            return self._inflight

    @contextlib.contextmanager
    def admit(self):
        """Hold one admission slot; 503 while draining, 429 when full."""
        with self._idle:
            check_admission(self.draining, self._inflight, self.config.effective_max_inflight)
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    @contextlib.contextmanager
    def track_exchange(self):
        """Count one whole HTTP exchange, response send included.

        ``admit()`` bounds *optimizing* work and releases its slot the
        moment the handler has a payload — but the response bytes and
        the metrics record land after that.  A drain waiting on the
        admission counter alone can observe idle while the final
        response is still being written, close the socket under it, and
        lose that exchange's metrics record.  ``wait_idle`` therefore
        waits for both counters to reach zero.
        """
        with self._idle:
            self._exchanges += 1
        try:
            yield
        finally:
            with self._idle:
                self._exchanges -= 1
                if self._exchanges == 0 and self._inflight == 0:
                    self._idle.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting new optimization requests (idempotent)."""
        self._draining.set()

    def wait_idle(self, grace: Optional[float] = None) -> bool:
        """Block until no exchange is in flight; False if *grace* expired."""
        deadline = None if grace is None else time.monotonic() + grace
        with self._idle:
            while self._inflight > 0 or self._exchanges > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Release the pool and the revalidation thread (idempotent)."""
        self._closed.set()
        self._stale_kick.set()
        self._revalidator.join(timeout=5.0)
        self._reset_pool()

    def _revalidate_loop(self) -> None:
        while not self._closed.is_set():
            self._stale_kick.wait(timeout=REVALIDATE_POLL_SECONDS)
            self._stale_kick.clear()
            # One entry per round, re-costed or replanned outside the lock;
            # stops when drained or when all that is left fails — next poll.
            progressed = self.core.stale_backlog()
            while progressed and not self._closed.is_set():
                counts = self.core.revalidator.drain(limit=1)
                with self._lock:
                    progressed = self.core.record_revalidation(counts)

    # -- dispatch ------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                # Never fork from a multithreaded daemon: HTTP threads may
                # hold locks (logging, metrics) that a forked child would
                # inherit in a locked state and deadlock on.
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "forkserver" if "forkserver" in methods else "spawn"
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.config.effective_workers,
                    mp_context=context,
                    initializer=chaos.adopt,
                    initargs=(chaos.environment(),),
                )
            return self._executor

    def _reset_pool(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _dispatch(self, leaders: List[Miss]) -> List[WorkerOutcome]:
        """Plan one wave's leading tickets, in the pool or (workers=0)
        right here.

        A wave shares its arrival and so its ``deadline_at``: arrival
        plus ``request_timeout_seconds``, so time already burnt on parsing
        and cache probes — and queued for a pool worker — is charged.
        :func:`~repro.service.batch.plan_miss` arms what remains as a
        cooperative deadline inside each run, which degrades to a
        heuristic plan or raises (``config.degradation``); the pool wait
        itself uses the *hard* timeout (budget + grace) purely as a
        wedged-worker backstop — a healthy worker always answers first.
        """
        if self.config.effective_workers == 0:
            return [plan_miss(miss) for miss in leaders]
        hard_deadline = leaders[0].deadline_at + (
            self.config.hard_timeout_seconds - self.config.request_timeout_seconds
        )
        futures: list = []
        try:
            executor = self._pool()
            futures += [executor.submit(plan_miss, miss) for miss in leaders]
            return [
                future.result(timeout=max(0.0, hard_deadline - time.monotonic()))
                for future in futures
            ]
        except FutureTimeout:
            for pending in futures:
                pending.cancel()
            raise worker_abandoned(self.config.request_timeout_seconds) from None
        except Exception as exc:  # BrokenProcessPool and friends
            self._reset_pool()
            raise RequestError(
                500, "worker_pool_failure", f"worker pool failed: {exc}"
            ) from exc

    def _plan_wave(self, bodies: List[dict], batch=False) -> List[Union[Planned, RequestError]]:
        """Plan *bodies* as one wave; each slot gets its ``(result,
        config, query)`` or the :class:`RequestError` that request earned.
        Probes all under the lock, sends the misses through
        :func:`~repro.service.batch.plan_wave` (lock released; one run
        per distinct key), completes them under the lock.
        """
        arrived = time.monotonic()
        core = self.core
        slots: List[Union[Planned, RequestError, Miss]] = []
        with self._lock:
            for body in bodies:
                try:
                    slots.append(core.probe(body, arrived))
                except RequestError as error:
                    slots.append(core.batch_error(error) if batch else error)
        missed = [(slot, found) for slot, found in enumerate(slots) if type(found) is Miss]
        if not missed:
            return slots
        outcomes = list(plan_wave([miss for _slot, miss in missed], self._dispatch))
        with self._lock:
            for (slot, miss), outcome in zip(missed, outcomes):
                try:
                    slots[slot] = core.complete(miss, outcome)
                except RequestError as error:
                    slots[slot] = error
        return slots

    def _plan(self, body: dict) -> Planned:
        (planned,) = self._plan_wave([body])
        if isinstance(planned, RequestError):
            raise planned
        return planned

    # -- request bodies ------------------------------------------------------
    def optimize_body(self, body: dict) -> dict:
        started = time.perf_counter()
        return optimize_reply(body, self._plan(body), started)

    def explain_body(self, body: dict) -> dict:
        return explain_reply(self._plan(body))

    def execute_body(self, body: dict) -> dict:
        started = time.perf_counter()
        executor, limit = self.core.check_execute(body)  # reads boot-time config only
        # Execution and row serialisation are CPU-bound in this thread and
        # read only the dataset: unlocked.  Counting the outcome is not.
        outcome = self.core.run(self._plan(body), executor, limit, started)
        with self._lock:
            return self.core.record_run(outcome)

    def batch_body(self, body: dict) -> dict:
        started = time.perf_counter()
        include_plans = bool(body.get("include_plans", False))
        with self._lock:
            bodies = self.core.batch_bodies(body, batch_queries(body))
        wave = self._plan_wave(bodies, batch=True)
        items = [
            batch_item(index, planned, include_plans)
            for index, planned in enumerate(wave)
        ]
        return batch_report(items, started)

    def stats_update_body(self, body: dict) -> dict:
        # Nothing revalidates inline here: the reply returns at once and
        # the background thread takes the backlog.
        with self._lock:
            payload = self.core.stats_update(body, inline=0)
        self._stale_kick.set()
        return payload

    def healthz_body(self) -> Tuple[int, dict]:
        """``GET /healthz`` — 200 while serving, 503 once draining."""
        if self.draining:
            return 503, {"status": "draining", "inflight": self.inflight}
        return 200, {
            "status": "ok",
            "workers": self.config.effective_workers,
            "strategy": self.config.strategy,
            "inflight": self.inflight,
        }

    def stats_body(self) -> dict:
        """``GET /stats`` — request metrics plus the core's counters, in
        the async tier's shape (there: merged over shards) so dashboards
        scrape either: one unsharded in-process core, no persistence."""
        payload = self.metrics.snapshot()
        with self._lock:
            payload.update(self.core.stats())
        payload.update(
            mode="sync",
            inflight=self.inflight,
            draining=self.draining,
            max_inflight=self.config.effective_max_inflight,
            workers=self.config.effective_workers,
            degradation=self.config.degradation,
            shards=1,
            persistence={"loaded": 0, "saved": 0, "rejected": 0},
        )
        return payload
