"""`AsyncServerConfig` — the serving tier's knobs, validated eagerly.

The tier is one asyncio event loop in front of ``shards`` worker
*processes*, each owning a private
:class:`~repro.service.cache.PlanCache` shard — so capacity knobs here
are **per shard**.  ``cache_dir`` enables persistence: shards snapshot
to ``<cache_dir>/shard-<i>-of-<N>.plancache`` on graceful drain and
warm-start from the same files on boot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.service.batch import default_workers
from repro.service.config import ServingConfig


def default_shards() -> int:
    """Worker-shard count when unspecified: one per core, capped at 4.

    Unlike the batch pool (CPU-bound misses, more workers help), the
    serving tier's warm path is dominated by per-request overhead; extra
    shards past the core count only add context switching.
    """
    return min(default_workers(), 4)


@dataclass(frozen=True)
class AsyncServerConfig(ServingConfig):
    """Immutable serving-tier settings (on top of :class:`ServingConfig`).

    ``shards`` — worker processes, each owning one serving core and so
    one plan-cache shard (``None`` auto-sizes via :func:`default_shards`);
    ``cache_capacity`` is therefore **per shard**.  ``cache_dir`` —
    directory for shard snapshots; ``None`` disables persistence.
    ``max_inflight`` defaults to ``16 * shards + 32`` — the tier is built
    for open-loop traffic.  ``revalidate_batch`` bounds inline
    revalidation per ``STATS_UPDATE`` frame (the rest drains in
    serve-loop idle gaps).

    Crash supervision (restart backoff, the per-shard circuit breaker),
    the boot wait and the route-memo size are constants of
    :mod:`~repro.asyncserver.supervisor` / :mod:`~repro.asyncserver.app`.
    """

    shards: Optional[int] = None
    cache_dir: Optional[str] = None
    revalidate_batch: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.revalidate_batch < 1:
            raise ValueError(
                f"revalidate_batch must be >= 1, got {self.revalidate_batch}"
            )

    @property
    def effective_shards(self) -> int:
        return self.shards if self.shards is not None else default_shards()

    @property
    def effective_max_inflight(self) -> int:
        if self.max_inflight is not None:
            return self.max_inflight
        return 16 * self.effective_shards + 32

    def shard_path(self, shard: int) -> Optional[str]:
        """The snapshot file for *shard*, or None when persistence is off.

        The shard count is baked into the filename: re-sharding changes
        the fingerprint → shard mapping, so a ``shard-0-of-2`` file must
        never warm-start shard 0 of a 4-shard server.
        """
        if self.cache_dir is None:
            return None
        shards = self.effective_shards
        return os.path.join(
            self.cache_dir, f"shard-{shard:03d}-of-{shards:03d}.plancache"
        )
