"""Cooperative planning deadlines for the DP enumeration loops.

A :class:`Deadline` is a cheap, cooperative budget check threaded through
:func:`repro.optimizer.optimize`: the driver calls :meth:`Deadline.tick`
once per enumerated csg-cmp-pair, and the tick reads the clock only every
``check_every`` ccps (plus once on the very first ccp, so tiny budgets
fire deterministically even on small queries).  The driver has one ccp
loop, so one check site covers every strategy; the test oracle
(:mod:`repro.optimizer.reference`) takes no deadline.

When the budget is exhausted the tick raises
:class:`PlanningDeadlineExceeded` from inside the DP.  What happens next
is the caller's policy — ``OptimizerConfig.degradation``:

* ``"heuristic"`` (default) — the driver returns the same prepared
  query's plan under the paper's cheap greedy strategy (H1, Fig. 10),
  marked ``degraded=True``: the result a bounded run already planned for
  its ceiling, or one planned on the spot with no deadline.  Degraded
  plans are never cached.
* ``"error"`` — the exception propagates to the caller (servers map it
  to HTTP 504).

Budgets come from two places: ``OptimizerConfig.deadline_seconds``
(relative, armed when the run starts) or an explicit ``Deadline`` passed
to :func:`~repro.optimizer.optimize` (absolute, used by the serving
tier to charge queue time against the request budget).
"""

from __future__ import annotations

import time
from typing import Callable

#: Clock reads per DP loop: one on the first ccp, then every N ccps.
#: Small enough that even short enumerations (chain n=4 is ~10 ccps) get
#: a handful of checks; a no-op tick is a decrement + compare.
DEFAULT_CHECK_EVERY = 16


class PlanningDeadlineExceeded(Exception):
    """Raised from inside the DP when a planning budget is exhausted."""

    def __init__(self, message: str, *, budget_seconds: float = 0.0, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds


class Deadline:
    """A monotonic-clock budget checked cooperatively every N ticks."""

    __slots__ = ("budget_seconds", "check_every", "expires_at", "_clock", "_countdown")

    def __init__(
        self,
        seconds: float,
        *,
        check_every: int = DEFAULT_CHECK_EVERY,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget_seconds = max(0.0, float(seconds))
        self.check_every = max(1, int(check_every))
        self._clock = clock
        self.expires_at = clock() + self.budget_seconds
        # First tick checks immediately: a 2-relation query has one ccp,
        # and a zero budget must still fire.
        self._countdown = 1

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Read the clock now; raise if the budget is exhausted."""
        left = self.remaining()
        if left <= 0.0:
            raise PlanningDeadlineExceeded(
                f"planning deadline of {self.budget_seconds:.3f}s exceeded "
                f"(over by {-left:.3f}s)",
                budget_seconds=self.budget_seconds,
                elapsed_seconds=self.budget_seconds - left,
            )

    def tick(self) -> bool:
        """Count one unit of work; check the clock at every boundary.

        Returns True when this tick actually read the clock (used by the
        driver to scope chaos-injected planning delays to check points).
        """
        self._countdown -= 1
        if self._countdown > 0:
            return False
        self._countdown = self.check_every
        self.check()
        return True
