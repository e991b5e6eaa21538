"""Calibration: how fast is this core *right now*, relative to a fixed kernel?

The reference box is a shared two-vCPU VM whose cores change speed every
0.05-40 s: a core runs at 1.0x, ~0.65x or ~0.3x of its best depending on
what the host is doing, while the guest's steal-time counter stays at 0.  Raw
wall times of identical work therefore differ by 30-50 % between runs, far
beyond any regression bound.  The benchmark cancels this the way a lab
cancels a drifting instrument:

* **one core** — ``pin_to_one_core()`` confines the benchmark and every
  process it starts (servers, shards) to a single CPU.  The serving
  workloads are serial anyway (closed loop, one shard: client, front and
  shard take turns), so they lose almost nothing, and the speed of the
  work is then the speed of *one* core, which can be measured;
* **a fixed kernel next to every measurement** — ``SpeedTrack`` runs a
  0.3 ms pure-Python kernel on that core every 15 ms while the work runs and
  measures the kernel's *CPU time* (so time spent preempted by the server
  does not count, but a slowed core does).  Every reported time is the
  integral of the measured speed over the interval: the seconds the same
  work would have taken had the kernel run at its nominal time throughout.

The kernel lives here, in the benchmark's directory, and never calls into
``repro`` — a change to the program cannot move it.  A speed of 1.0 means
"the kernel took exactly its nominal time", roughly this box at its best.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from time import perf_counter, process_time
from typing import List

#: nominal duration — a constant of the benchmark, not a measurement
CPU_KERNEL_NOMINAL_SECONDS = 0.00026
SAMPLE_EVERY_SECONDS = 0.015


def pin_to_one_core() -> None:
    """Confine this process, and all it starts from now on, to one CPU.

    The highest-numbered one it may use: interrupts and housekeeping
    threads favour CPU 0.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


_CELLS = list(range(64))


def _cpu_kernel() -> int:
    """Interpreter work on 64 cells: no allocation, nothing to miss a cache.

    (A kernel that builds a dict slows down as the process's heap grows —
    the load generator keeps every reply — and then reports a slower core
    than the one the servers are running on.)
    """
    cells, total = _CELLS, 0
    for i in range(5000):
        total += cells[i & 63] ^ i
    return total


def kernel_speed() -> float:
    """Speed of this core now: nominal kernel time / CPU time of one run."""
    started = process_time()
    _cpu_kernel()
    return CPU_KERNEL_NOMINAL_SECONDS / (process_time() - started)


def cpu_speed() -> float:
    """The fastest of three kernel runs (around a single in-process call)."""
    return max(kernel_speed(), kernel_speed(), kernel_speed())


class SpeedTrack:
    """The core's speed over this process's life, sampled while work runs.

    ``tick()`` is cheap and is called wherever the benchmark is about to
    wait or has just been answered; it samples at most every 15 ms.
    ``nominal(a, b)`` is ∫ speed dt over ``[a, b]`` (``perf_counter``
    seconds), the speed between two samples being their mean.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.speeds: List[float] = []
        self._area: List[float] = []  # ∫ speed dt from times[0] to times[i]
        self.sample()

    def sample(self) -> None:
        speed = kernel_speed()
        now = perf_counter()
        if self.times:
            mean = (self.speeds[-1] + speed) / 2
            self._area.append(self._area[-1] + (now - self.times[-1]) * mean)
        else:
            self._area.append(0.0)
        self.times.append(now)
        self.speeds.append(speed)

    def tick(self, now: float) -> None:
        if now - self.times[-1] >= SAMPLE_EVERY_SECONDS:
            self.sample()

    def _area_at(self, t: float) -> float:
        at = bisect_right(self.times, t) - 1
        if at < 0:  # before the first sample: its speed
            return (t - self.times[0]) * self.speeds[0]
        if at + 1 < len(self.times):
            speed = (self.speeds[at] + self.speeds[at + 1]) / 2
        else:  # after the last sample: its speed
            speed = self.speeds[at]
        return self._area[at] + (t - self.times[at]) * speed

    def nominal(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have lasted at nominal speed."""
        return self._area_at(end) - self._area_at(start)
