"""`ServerConfig` — the threaded plan server's knobs, validated eagerly.

Everything both tiers share (bind address, optimizer settings, cache
capacity, budgets, dataset) lives on
:class:`~repro.service.config.ServingConfig`; this adds the one thing
only the threaded transport owns — its optimizer process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.service.batch import default_workers
from repro.service.config import ServingConfig


@dataclass(frozen=True)
class ServerConfig(ServingConfig):
    """Immutable threaded-tier settings.

    ``workers`` — optimizer processes behind the HTTP threads.  ``None``
    auto-sizes like the batch driver; ``0`` runs optimization inside the
    request thread (no pool — handy for tests and tiny deployments, but
    CPU-bound requests then serialise on the GIL).  ``max_inflight``
    defaults to ``2 * workers + 8``.
    """

    workers: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = in-thread), got {self.workers}")

    @property
    def effective_workers(self) -> int:
        """The worker-pool size (0 = optimize in the request thread)."""
        return self.workers if self.workers is not None else default_workers()

    @property
    def effective_max_inflight(self) -> int:
        """The admission bound actually enforced."""
        if self.max_inflight is not None:
            return self.max_inflight
        return 2 * max(1, self.effective_workers) + 8
