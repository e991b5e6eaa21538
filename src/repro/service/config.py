"""`ServingConfig` — the knobs every serving core is built from, validated eagerly.

The same philosophy as :class:`~repro.optimizer.config.OptimizerConfig`:
one frozen value object instead of scattered kwargs, rejected at
construction rather than at first use.
:class:`repro.asyncserver.AsyncServerConfig` extends it with what only
the transport owns (shards, persistence, inline revalidation);
:class:`~repro.service.core.ServingCore` is built from the base alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.optimizer.config import OptimizerConfig


@dataclass(frozen=True)
class ServingConfig:
    """Immutable settings of one serving core (and the front's bind address).

    ``max_inflight`` bounds admitted-but-unfinished requests across all
    endpoints that plan; excess requests get an immediate 429 (``None``
    lets the transport derive a bound from its parallelism).
    ``cache_capacity`` — plan-cache entries per serving core, i.e. per
    process; at least 1, the cache is what a core serves from.
    ``request_timeout_seconds`` caps one request's planning budget: time
    already spent queued or parsing is charged against it and the
    remainder is armed as a cooperative deadline inside the DP, with
    ``degradation`` deciding what a blown budget returns —
    ``"heuristic"`` a cheap greedy plan marked ``degraded: true`` (HTTP
    200), ``"error"`` an HTTP 504.  A hard wait of
    :attr:`hard_timeout_seconds` (budget + grace) backstops wedged
    workers.  ``drain_grace_seconds`` is how long a drain waits for
    in-flight requests before giving up.

    Stale-while-revalidate: ``recost_bound`` is how far a re-costed
    stale plan may regress past the cheap-replan reference before full
    re-enumeration, and ``snapshot_band_width`` (log10 decades, ``None``
    = exact) enables banded cache keys so nearby statistics snapshots
    share entries.

    ``dataset`` enables ``POST /execute``: a
    :func:`~repro.data.provision.dataset_from_spec` spec
    (``tpch-sf0.01`` or a directory of data files) loaded at boot by
    every serving core — generation is deterministic, so all processes
    hold identical data.  ``default_executor`` is the backend used when
    a request names none (``"columnar"`` — the serving-oriented one).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: Optional[int] = None
    scale_factor: float = 1.0
    strategy: str = "ea-prune"
    factor: float = 1.03
    cost_model: str = "cout"
    cache_capacity: int = 512
    request_timeout_seconds: float = 120.0
    drain_grace_seconds: float = 10.0
    degradation: str = "heuristic"
    recost_bound: float = 2.0
    snapshot_band_width: Optional[float] = None
    dataset: Optional[str] = None
    default_executor: str = "columnar"

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535] (0 = ephemeral), got {self.port}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.cache_capacity is None or self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        from repro.sql.catalog import check_scale_factor

        check_scale_factor(self.scale_factor)
        if self.request_timeout_seconds <= 0:
            raise ValueError(
                f"request_timeout_seconds must be > 0, got {self.request_timeout_seconds}"
            )
        if self.drain_grace_seconds < 0:
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
        # Validate the optimizer-facing fields eagerly, like everything else.
        self.optimizer_config()

    def optimizer_config(self) -> OptimizerConfig:
        """The optimizer settings a serving core plans under."""
        return OptimizerConfig(
            strategy=self.strategy,
            factor=self.factor,
            cost_model=self.cost_model,
            workers=None,  # the transport owns its own processes
            cache_capacity=self.cache_capacity,
            degradation=self.degradation,
            snapshot_band_width=self.snapshot_band_width,
            recost_bound=self.recost_bound,
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
