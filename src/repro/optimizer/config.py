"""`OptimizerConfig` — one validated object instead of scattered kwargs.

Every caller of the seed passed ``strategy="ea-prune", factor=1.03,
workers=..., cache=...`` around by hand, each with its own conventions.
:class:`OptimizerConfig` freezes those knobs into a single immutable,
eagerly-validated value that threads unchanged through
:func:`repro.optimizer.optimize`, :func:`repro.service.optimize_many`,
:func:`repro.service.run_batch` (which take their settings from it
alone), the CLI and :class:`repro.api.PlannerSession`.

Per-call tweaks derive a new config instead of mutating::

    config = OptimizerConfig(strategy="h2", factor=1.05)
    quick = config.with_overrides(strategy="h1")   # re-validated copy

Strategy and cost model are selected *by name* through the registries
(:data:`~repro.optimizer.registry.STRATEGIES`,
:data:`~repro.optimizer.registry.COST_MODELS`), so third-party components
plug in without driver changes; instances are also accepted for
pre-parameterised components (e.g. ``EaPruneStrategy("cost-only")``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro.optimizer.costmodel import CostModel
from repro.optimizer.registry import COST_MODELS, STRATEGIES
from repro.optimizer.strategies import Strategy, check_factor


@dataclass(frozen=True)
class OptimizerConfig:
    """Immutable optimizer settings, validated at construction.

    ``strategy`` / ``cost_model`` — registry name (validated against the
    registries) or a ready instance.  ``factor`` — H2's eagerness
    tolerance F (≥ 1).  ``workers`` — batch-driver process count (None =
    auto).  ``cache_capacity`` — plan-cache entries for components that
    own a cache, e.g. a session (None or 0 = caching off).
    ``deadline_seconds`` — cooperative planning budget per optimize call
    (None = unbounded; 0 = already expired, useful when a request's
    queue time ate the whole budget).  ``degradation`` — what a blown
    deadline does: ``"heuristic"`` falls back to a cheap greedy plan
    marked ``degraded=True``, ``"error"`` raises
    :class:`~repro.optimizer.deadline.PlanningDeadlineExceeded`.
    ``snapshot_band_width`` — log10 band width for plan-cache snapshot
    keys (None = exact statistics in the key); with banding, nearby
    statistics share a structural cache entry and drift within a band
    makes it stale: a serving core re-costs it, a library caller (a
    session, ``run_batch``) plans it again.
    """

    strategy: Union[str, Strategy] = "ea-prune"
    factor: float = 1.03
    cost_model: Union[str, CostModel] = "cout"
    workers: Optional[int] = None
    cache_capacity: Optional[int] = 512
    deadline_seconds: Optional[float] = None
    degradation: str = "heuristic"
    snapshot_band_width: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            if self.strategy not in STRATEGIES:
                known = ", ".join(STRATEGIES.names())
                raise ValueError(
                    f"unknown strategy {self.strategy!r} (registered: {known})"
                )
        elif not isinstance(self.strategy, Strategy):
            raise TypeError(
                f"strategy must be a registered name or a Strategy, got {self.strategy!r}"
            )
        if isinstance(self.cost_model, str):
            if self.cost_model not in COST_MODELS:
                known = ", ".join(COST_MODELS.names())
                raise ValueError(
                    f"unknown cost model {self.cost_model!r} (registered: {known})"
                )
        elif not isinstance(self.cost_model, CostModel):
            raise TypeError(
                f"cost_model must be a registered name or a CostModel, got {self.cost_model!r}"
            )
        check_factor(self.factor)
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 (or None for auto), got {self.workers}")
        if self.cache_capacity is not None and self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0 (or None for no cache), got {self.cache_capacity}"
            )
        if self.deadline_seconds is not None and not self.deadline_seconds >= 0:
            raise ValueError(
                f"deadline_seconds must be >= 0 (or None for unbounded), got {self.deadline_seconds}"
            )
        if self.degradation not in ("heuristic", "error"):
            raise ValueError(
                f"degradation must be 'heuristic' or 'error', got {self.degradation!r}"
            )
        if self.snapshot_band_width is not None and not self.snapshot_band_width > 0:
            raise ValueError(
                "snapshot_band_width must be > 0 (or None for exact keys), "
                f"got {self.snapshot_band_width}"
            )

    # -- derivation ----------------------------------------------------------
    def with_overrides(self, **overrides) -> "OptimizerConfig":
        """A copy with *overrides* applied, validated like a fresh config."""
        valid = {f.name for f in fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ValueError(
                f"unknown OptimizerConfig field(s) {sorted(unknown)!r}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **overrides)

    # -- resolution ----------------------------------------------------------
    def resolve_strategy(self) -> Strategy:
        """The configured :class:`Strategy` instance."""
        if isinstance(self.strategy, Strategy):
            return self.strategy
        return STRATEGIES.create(self.strategy, factor=self.factor)

    def resolve_cost_model(self) -> CostModel:
        """The configured :class:`CostModel` instance."""
        if isinstance(self.cost_model, CostModel):
            return self.cost_model
        return COST_MODELS.create(self.cost_model)

    @property
    def strategy_name(self) -> str:
        """Canonical strategy name (resolving instances via ``.name``)."""
        return self.strategy if isinstance(self.strategy, str) else self.strategy.name

    @property
    def cost_model_name(self) -> str:
        """Canonical cost-model name (resolving instances via ``.name``)."""
        return self.cost_model if isinstance(self.cost_model, str) else self.cost_model.name

    @property
    def caching_enabled(self) -> bool:
        return bool(self.cache_capacity)
