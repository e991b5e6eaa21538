"""`ServingConfig` — everything a serving process is configured with.

The same philosophy as :class:`~repro.optimizer.config.OptimizerConfig`:
one frozen value object instead of scattered kwargs, rejected at
construction rather than at first use.  It is stated once: ``repro
serve``'s flags take their defaults from its field defaults (which take
the optimizer's from :class:`OptimizerConfig`), the front builds one,
and every shard process rebuilds the same value from
``dataclasses.asdict`` of it — a
:class:`~repro.service.core.ServingCore` reads the core's fields, the
transport reads the rest (shards, persistence, inline revalidation).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.optimizer.config import OptimizerConfig
from repro.service.batch import default_workers


def default_shards() -> int:
    """Worker-shard count when unspecified: one per core, capped at 4.

    Unlike the batch pool (CPU-bound misses, more workers help), the
    serving tier's warm path is dominated by per-request overhead; extra
    shards past the core count only add context switching.
    """
    return min(default_workers(), 4)


@dataclass(frozen=True)
class ServingConfig:
    """Immutable settings of one server: its front and every shard's core.

    ``max_inflight`` bounds admitted-but-unfinished requests across all
    endpoints that plan; excess requests get an immediate 429 (``None``
    = ``16 * shards + 32``, the tier is built for open-loop traffic).
    ``cache_capacity`` — plan-cache entries per serving core, i.e. per
    shard; at least 1, the cache is what a core serves from.
    ``request_timeout_seconds`` caps one request's planning budget: time
    already spent queued or parsing is charged against it and the
    remainder is armed as a cooperative deadline inside the DP, with
    ``degradation`` deciding what a blown budget returns —
    ``"heuristic"`` a cheap greedy plan marked ``degraded: true`` (HTTP
    200), ``"error"`` an HTTP 504.  A hard wait of
    :attr:`hard_timeout_seconds` (budget + grace) backstops wedged
    workers.  ``drain_grace_seconds`` is how long a drain waits for
    in-flight requests before giving up.  Both take ``inf`` as
    unbounded; NaN is rejected.

    ``snapshot_band_width`` (log10 decades, ``None`` = exact) enables
    banded cache keys so nearby statistics snapshots share entries; a
    stale entry is re-costed against
    :data:`~repro.optimizer.recost.RECOST_BOUND`.

    ``dataset`` enables ``POST /execute``: a
    :func:`~repro.data.provision.dataset_from_spec` spec
    (``tpch-sf0.01`` or a directory of data files) loaded at boot by
    every serving core — generation is deterministic, so all processes
    hold identical data.  ``default_executor`` is the backend used when
    a request names none (``"columnar"`` — the serving-oriented one).

    ``shards`` — worker processes, each owning one serving core and so
    one plan-cache shard (``None`` = :func:`default_shards`, decided once
    when a server boots).  ``cache_dir`` — directory for shard snapshots
    (``None`` disables persistence).  ``revalidate_batch`` bounds inline
    revalidation per ``/stats_update`` (the rest drains in a shard's
    idle gaps).  Crash supervision (restart backoff, the per-shard
    circuit breaker), the boot wait and the route-memo size are
    constants of :mod:`~repro.asyncserver.supervisor` /
    :mod:`~repro.asyncserver.app`.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: Optional[int] = None
    scale_factor: float = 1.0
    strategy: str = OptimizerConfig.strategy
    factor: float = OptimizerConfig.factor
    cost_model: str = OptimizerConfig.cost_model
    cache_capacity: int = OptimizerConfig.cache_capacity
    request_timeout_seconds: float = 120.0
    drain_grace_seconds: float = 10.0
    degradation: str = OptimizerConfig.degradation
    snapshot_band_width: Optional[float] = OptimizerConfig.snapshot_band_width
    dataset: Optional[str] = None
    default_executor: str = "columnar"
    shards: Optional[int] = None
    cache_dir: Optional[str] = None
    revalidate_batch: int = 8

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535] (0 = ephemeral), got {self.port}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.cache_capacity is None or self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        from repro.sql.catalog import check_scale_factor

        check_scale_factor(self.scale_factor)
        if not self.request_timeout_seconds > 0:
            raise ValueError(
                f"request_timeout_seconds must be > 0, got {self.request_timeout_seconds}"
            )
        if not self.drain_grace_seconds >= 0:
            raise ValueError(
                f"drain_grace_seconds must be >= 0, got {self.drain_grace_seconds}"
            )
        from repro.exec import EXECUTORS

        if self.default_executor not in EXECUTORS:
            raise ValueError(
                f"default_executor must be one of {', '.join(EXECUTORS)}, "
                f"got {self.default_executor!r}"
            )
        if self.dataset is not None:
            from repro.data.provision import validate_dataset_spec

            validate_dataset_spec(self.dataset)
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.revalidate_batch < 1:
            raise ValueError(
                f"revalidate_batch must be >= 1, got {self.revalidate_batch}"
            )
        # Validate the optimizer-facing fields eagerly, like everything else.
        self.optimizer_config()

    def optimizer_config(self) -> OptimizerConfig:
        """The optimizer settings a serving core plans under."""
        return OptimizerConfig(
            strategy=self.strategy,
            factor=self.factor,
            cost_model=self.cost_model,
            cache_capacity=self.cache_capacity,
            degradation=self.degradation,
            snapshot_band_width=self.snapshot_band_width,
        )

    @property
    def hard_timeout_seconds(self) -> float:
        """The hard wait on a worker before declaring it wedged (504).

        The cooperative deadline inside the worker fires at
        ``request_timeout_seconds``; the grace margin lets a degraded
        (or 504-bound) answer travel back before the wait gives up, so
        the hard timeout only triggers for genuinely stuck workers.
        """
        return self.request_timeout_seconds + max(
            2.0, 0.25 * self.request_timeout_seconds
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
        return os.path.join(
            self.cache_dir,
            f"shard-{shard:03d}-of-{self.effective_shards:03d}.plancache",
        )
