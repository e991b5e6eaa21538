"""Server child processes and the closed-loop HTTP load generator.

Callers of the plan server wait for each reply before they send again, so
the load is a closed loop: ``CONNECTIONS`` keep-alive connections pull
requests from one queue, all driven from this single process by a
``selectors`` loop.  The loop does the least it can per request — bytes
built beforehand go out, the reply is framed by Content-Length and kept
as bytes — because the client shares one core with the front and the
shard (see ``calibrate.py``).  Between replies it lets the run's
``SpeedTrack`` sample the core's speed.  Replies are decoded and checked
after the run.
"""

from __future__ import annotations

import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

CONNECTIONS = 2  # callers that each wait for their reply
BOOT_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 15.0
HERE = Path(__file__).resolve().parent


class ServerProcess:
    """``python -m repro serve ...`` (or ``serve_child.py``) on an ephemeral port.

    Runs in its own session, so the kill fallback takes the shard / pool
    processes down with the front instead of orphaning them.
    """

    def __init__(self, argv: Sequence[str], env: dict, track):
        self.argv = list(argv)
        self.env = env
        self.track = track  # a calibrate.SpeedTrack, sampled while the server boots
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def __enter__(self) -> "ServerProcess":
        self.process = subprocess.Popen(
            self.argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_SECONDS
        while not select.select([self.process.stdout], [], [], 0.05)[0]:
            self.track.tick(time.perf_counter())
            if time.monotonic() > deadline:
                raise RuntimeError(f"server printed nothing: {' '.join(self.argv)}")
        banner = self.process.stdout.readline()
        if "listening on http://" not in banner:
            raise RuntimeError(
                f"server did not start (exit {self.process.poll()}): {' '.join(self.argv)}"
            )
        address = banner.split("listening on http://", 1)[1].split()[0]
        self.port = int(address.rstrip("/").rsplit(":", 1)[1])
        while True:
            self.track.tick(time.perf_counter())
            try:
                status, _body = request_once(self.address, b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
                if status == 200:
                    return
            except OSError:
                pass
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never answered /healthz: {' '.join(self.argv)}")
            time.sleep(0.02)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def peak_rss_mb(self) -> float:
        """Σ peak resident set (VmHWM) over the server's process tree."""
        return sum(_vm_hwm_kb(pid) for pid in _process_tree(self.process.pid)) / 1024.0

    def __exit__(self, *exc) -> None:
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT_SECONDS)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # Whatever is left of the session (a wedged front, an orphaned
            # shard) goes now; a clean drain has already emptied it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()


def server_argv(workload) -> List[str]:
    """The command line that serves *workload* (an ``HttpWorkload``)."""
    if workload.revalidate_batch is not None:
        # no CLI flag for revalidate_batch: same server through the public classes
        return [
            sys.executable, str(HERE / "serve_child.py"),
            "--cache-size", str(workload.cache_capacity),
            "--band-width", str(workload.band_width),
            "--revalidate-batch", str(workload.revalidate_batch),
        ]
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-size", str(workload.cache_capacity)]
    argv += ["--async", "--shards", "1"] if workload.tier == "async" else ["--workers", "1"]
    if workload.dataset is not None:
        argv += ["--dataset", workload.dataset]
    return argv


def _process_tree(root: int) -> List[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        tree += children
        frontier += children
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path("/proc", str(pid), "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- HTTP ----------------------------------------------------------------------


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=120.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _frame(buffer: bytearray) -> Optional[Tuple[int, bytes]]:
    """``(status, body)`` once *buffer* holds one whole reply, consuming it."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buffer[:head_end]).lower()
    at = head.find(b"content-length:")
    length = int(head[at + 15:].split(b"\r\n", 1)[0]) if at >= 0 else 0
    total = head_end + 4 + length
    if len(buffer) < total:
        return None
    status = int(buffer[9:12])
    body = bytes(buffer[head_end + 4:total])
    del buffer[:total]
    return status, body


def request_once(address, raw: bytes) -> Tuple[int, bytes]:
    """One request on its own connection (health probes, /stats)."""
    with _connect(address) as sock:
        sock.sendall(raw)
        buffer = bytearray()
        while True:
            reply = _frame(buffer)
            if reply is not None:
                return reply
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-reply")
            buffer += chunk


def get(address, path: str) -> Tuple[int, bytes]:
    return request_once(address, f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())


def run_round(address, requests: Sequence, track):
    """Send *requests* closed-loop; ``(started, ended, sent, answered, replies)``.

    Times are ``perf_counter`` seconds; the last three are indexed like
    *requests*.  Each connection sends its next request only after it has
    the previous reply.  *track* (a ``calibrate.SpeedTrack``) samples the
    core's speed between replies.
    """
    count = len(requests)
    sent = [0.0] * count
    answered = [0.0] * count
    replies: List[Tuple[int, bytes]] = [(0, b"")] * count
    selector = selectors.DefaultSelector()
    lanes = []
    try:
        for _ in range(min(CONNECTIONS, count)):
            sock = _connect(address)
            lane = {"sock": sock, "buffer": bytearray(), "index": -1, "sent": 0.0}
            selector.register(sock, selectors.EVENT_READ, lane)
            lanes.append(lane)
        clock = time.perf_counter
        next_index = 0
        started = clock()
        for lane in lanes:
            lane["index"], next_index = next_index, next_index + 1
            lane["sent"] = clock()
            lane["sock"].sendall(requests[lane["index"]].raw)
        pending = count
        while pending:
            for key, _events in selector.select():
                lane = key.data
                chunk = lane["sock"].recv(262144)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                lane["buffer"] += chunk
                reply = _frame(lane["buffer"])
                if reply is None:
                    continue
                done = clock()
                index = lane["index"]
                sent[index] = lane["sent"]
                answered[index] = done
                replies[index] = reply
                pending -= 1
                if next_index < count:
                    lane["index"], next_index = next_index, next_index + 1
                    lane["sent"] = clock()
                    lane["sock"].sendall(requests[lane["index"]].raw)
                else:
                    selector.unregister(lane["sock"])
                track.tick(done)
        ended = clock()
    finally:
        selector.close()
        for lane in lanes:
            lane["sock"].close()
    return started, ended, sent, answered, replies
