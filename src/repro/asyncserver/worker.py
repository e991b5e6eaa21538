"""One worker shard: a process that *owns* its plan-cache shard.

``python -m repro.asyncserver.worker '<json config>'`` — spawned by the
:mod:`~repro.asyncserver.supervisor`, one per shard, with its shard
index and the server's
:class:`~repro.service.config.ServingConfig` as ``dataclasses.asdict``
made it.  Each worker rebuilds that config and from it its own serving
core — TPC-H catalog and a **private**
:class:`~repro.service.cache.PlanCache` —
the shard router guarantees every structural fingerprint always arrives
at the same worker, so there is no cross-process lock anywhere on the
warm path — and, the worker being single-threaded, no lock at all: its
stats snapshots are consistent by construction.

Requests arrive as :mod:`~repro.asyncserver.frames` on stdin; responses
(HTTP status + ready-to-send JSON body) leave on stdout.  What a request
*means* is the :class:`~repro.service.core.ServingCore`'s business; this
module is its frame transport.  The steady-state warm hit is: memo lookup → cache key →
``PlanCache.serve_entry`` (which hands out the copy it made for that
spelling last time) → ``json.dumps`` of a small dict around the plan's
already rendered tree.  Cold misses
optimize in-process, blocking the shard — queries racing to the same
shard queue behind the miss, which is the sharding contract (one owner
per fingerprint).

Persistence: on boot the worker warm-starts from its snapshot file when
the catalog fingerprint and layout version match (mismatches are
*refused* and counted as ``rejected`` — a stale plan served after a
catalog change is a correctness bug); on the supervisor's ``SNAPSHOT``
command (graceful drain) it writes the shard back to disk atomically.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from typing import Optional

from repro import chaos
from repro.asyncserver import frames
from repro.service.cache import SnapshotError
from repro.service.config import ServingConfig
from repro.service.core import (
    RequestError,
    ServingCore,
    error_body,
    parse_body,
    tune_gc_for_serving,
)
from repro.service.fingerprint import catalog_fingerprint


class ShardWorker:
    """One shard's process: a :class:`ServingCore` plus what only a
    shard owns — its id, snapshot persistence, and the ``"shard"`` stamp
    on every reply."""

    def __init__(self, boot: dict):
        self.shard = int(boot["shard"])
        self.config = ServingConfig(**boot["config"])
        self.snapshot_path = self.config.shard_path(self.shard)
        self.core = ServingCore(self.config)
        self.cache = self.core.cache
        self.catalog_fp = catalog_fingerprint(self.core.catalog)
        self.persistence = {"loaded": 0, "saved": 0, "rejected": 0}
        self.persistence_error: Optional[str] = None
        self._started = time.monotonic()

    # -- persistence ---------------------------------------------------------
    def warm_start(self) -> None:
        if not self.snapshot_path or not os.path.exists(self.snapshot_path):
            return
        try:
            self.persistence["loaded"] = self.cache.load_snapshot(
                self.snapshot_path, catalog_fingerprint=self.catalog_fp
            )
        except SnapshotError as error:
            # Refused: cold-start instead of serving stale plans.  The
            # file is left in place for post-mortems.
            self.persistence["rejected"] += 1
            self.persistence_error = f"{error.reason}: {error.message}"
            print(
                f"[shard {self.shard}] snapshot refused ({error.reason}): "
                f"{error.message}",
                file=sys.stderr,
                flush=True,
            )

    def snapshot(self) -> dict:
        if not self.snapshot_path:
            return {"saved": 0, "path": None, "persistence": dict(self.persistence)}
        os.makedirs(os.path.dirname(self.snapshot_path) or ".", exist_ok=True)
        saved = self.cache.save_snapshot(
            self.snapshot_path,
            catalog_fingerprint=self.catalog_fp,
            meta={"shard": self.shard, "shards": self.config.effective_shards},
        )
        self.persistence["saved"] += saved
        if chaos.enabled():
            # Injected snapshot damage (tests/CI): the next warm start
            # must refuse this file and cold-start.
            fault = chaos.damage_snapshot(self.snapshot_path)
            if fault:
                print(
                    f"[shard {self.shard}] chaos: snapshot {fault}d on disk",
                    file=sys.stderr,
                    flush=True,
                )
        return {
            "saved": saved,
            "path": self.snapshot_path,
            "persistence": dict(self.persistence),
        }

    # -- commands ------------------------------------------------------------
    def handle(self, kind: int, payload: bytes, arrived: float) -> dict:
        """Answer one frame through the core, stamped with this shard."""
        core = self.core
        if kind == frames.OPTIMIZE:
            body = core.optimize(parse_body(payload), arrived)
        elif kind == frames.EXPLAIN:
            body = core.explain(parse_body(payload), arrived)
        elif kind == frames.EXECUTE:
            body = core.execute(parse_body(payload), arrived)
        elif kind == frames.BATCH:
            # A shard's slice of one /batch: ``[[index, sql], ...]``.
            request = parse_body(payload)
            body = {"items": core.batch_items(request, request.get("queries", ()), arrived)}
        elif kind == frames.STATS_UPDATE:
            # Inline revalidation is bounded; the rest of the backlog
            # drains in the serve loop's idle gaps.
            body = core.stats_update(parse_body(payload), inline=self.config.revalidate_batch)
        elif kind == frames.STATS:
            body = core.stats()
            body.update(
                pid=os.getpid(),
                uptime_seconds=time.monotonic() - self._started,
                persistence=dict(self.persistence),
                persistence_error=self.persistence_error,
            )
        elif kind == frames.SNAPSHOT:
            return self.snapshot()
        else:
            raise RequestError(400, "bad_command", f"unknown kind {kind}")
        body["shard"] = self.shard
        return body

    def hello_payload(self) -> dict:
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "catalog_fingerprint": self.catalog_fp,
            "cache_size": len(self.cache),
            "persistence": dict(self.persistence),
            "persistence_error": self.persistence_error,
        }


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


#: responses are flushed at least every this-many frames, bounding the
#: head-of-line latency a burst adds (16 warm hits ~ a millisecond)
#: while still amortising the pipe syscall over the batch.
FLUSH_EVERY = 16


def _write_all(out_fd: int, out: bytearray) -> None:
    data = bytes(out)
    out.clear()
    written = 0
    while written < len(data):
        written += os.write(out_fd, data[written:])


def serve(worker: ShardWorker, in_fd: int, out_fd: int) -> None:
    """The blocking frame loop: read a chunk, answer the complete frames
    in it, flushing responses in bounded batches."""
    buffer = bytearray()
    out = bytearray()
    running = True
    while running:
        try:
            chunk = os.read(in_fd, 1 << 16)
        except InterruptedError:  # pragma: no cover - EINTR
            continue
        if not chunk:  # supervisor went away: exit without snapshotting
            break
        buffer += chunk
        # Frames in this chunk share an arrival stamp: planning budgets
        # start when the request reaches the worker's queue, so time
        # spent queued behind earlier frames counts against them.
        arrived = time.monotonic()
        answered = 0
        for request_id, kind, payload in frames.feed(buffer):
            if kind == frames.EXIT:
                out += frames.pack(request_id, 200, _dumps({"ok": True}))
                running = False
                break
            if chaos.should_drop(payload):
                # Injected frame loss: swallow the request, never answer
                # (the front's hard timeout fires and reaps this worker).
                continue
            try:
                status, body = 200, worker.handle(kind, payload, arrived)
            except RequestError as failure:
                status, body = failure.status, failure.to_body()
            except Exception as error:  # noqa: BLE001 - the shard must not die
                status, body = 500, error_body("internal", f"{type(error).__name__}: {error}")
            out += frames.pack(request_id, status, _dumps(body))
            answered += 1
            if answered % FLUSH_EVERY == 0:
                _write_all(out_fd, out)
        if out:
            _write_all(out_fd, out)
        # Idle-gap revalidation: with every received frame answered and
        # flushed, drain the stale backlog one entry at a time, yielding
        # the moment new input arrives — the tier's "task per
        # shard" revalidator, expressed in this blocking loop.
        while running and worker.core.stale_backlog():
            ready, _, _ = select.select([in_fd], [], [], 0)
            if ready:
                break
            if not worker.core.revalidate(1):
                break  # backlog is all failures; retry on a later gap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.asyncserver.worker '<json config>'", file=sys.stderr)
        return 2
    boot = json.loads(argv[0])

    # The frame channel owns fd 1.  Point fd 1 at stderr so any stray
    # print()/traceback inside the optimizer cannot corrupt the stream.
    out_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    worker = ShardWorker(boot)
    worker.warm_start()
    # A worker process exists only to serve its shard: adopt the
    # latency-oriented GC posture (frozen boot heap, rare full passes).
    tune_gc_for_serving()
    hello = frames.pack(0, frames.HELLO, _dumps(worker.hello_payload()))
    os.write(out_fd, hello)
    serve(worker, 0, out_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
