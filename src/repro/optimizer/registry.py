"""Named registries for the optimizer's pluggable components.

The driver is parameterised by exactly two interchangeable pieces — the
*BuildPlans strategy* (Figs. 9–14) and the *cost model* (Sec. 4.4).  Both
plug in by name: factories register under one primary name (plus optional
aliases) and :class:`~repro.optimizer.config.OptimizerConfig` selects
them without the driver ever enumerating what exists.

Registration is decorator-based::

    from repro.optimizer import STRATEGIES, Strategy

    @STRATEGIES.register("greedy-top")
    def _greedy(factor=1.03, **_options):
        return GreedyTopStrategy()

Factories are called with keyword options; today the driver passes
``factor`` (H2's tolerance), so factories should accept ``**_options``
for forward compatibility.  Classes can be registered directly when their
constructor already fits (``COST_MODELS.register("cout")(CoutModel)``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TypeVar

F = TypeVar("F", bound=Callable)


class Registry:
    """A case-insensitive name → factory mapping with aliases."""

    #: what the registry holds, for error messages ("strategy", ...).
    kind = "component"

    def __init__(self) -> None:
        self._factories: Dict[str, Callable] = {}
        self._primary: List[str] = []
        #: primary name → every key (primary + aliases) of its registration,
        #: so a replacement retires the old aliases instead of leaving them
        #: pointing at the replaced factory.
        self._group: Dict[str, Tuple[str, ...]] = {}

    def register(self, name: str, *aliases: str, replace: bool = False) -> Callable[[F], F]:
        """Decorator: register the factory under *name* (and *aliases*).

        Registering an already-taken name raises unless ``replace=True``.
        Replacement addresses the *primary* name (replacing through an
        alias raises) and retires the previous registration's aliases —
        two spellings must never resolve to different components.
        """

        def decorator(factory: F) -> F:
            keys = [n.lower() for n in (name, *aliases)]
            primary = keys[0]
            if replace and primary in self._factories and primary not in self._group:
                raise ValueError(
                    f"{self.kind} {primary!r} is an alias; replace via its primary name"
                )
            retired = self._group.get(primary, ()) if replace else ()
            clashes = [k for k in keys if k in self._factories and k not in retired]
            if clashes:
                raise ValueError(f"{self.kind} {clashes[0]!r} is already registered")
            for key in retired:
                del self._factories[key]
            if primary not in self._primary:
                self._primary.append(primary)
            self._group[primary] = tuple(keys)
            for key in keys:
                self._factories[key] = factory
            return factory

        return decorator

    def create(self, name: str, **options):
        """Instantiate the component registered under *name*."""
        factory = self._factories.get(name.lower()) if isinstance(name, str) else None
        if factory is None:
            known = ", ".join(self.names())
            raise ValueError(f"unknown {self.kind} {name!r} (registered: {known})")
        return factory(**options)

    def names(self) -> Tuple[str, ...]:
        """Primary names, in registration order (aliases excluded)."""
        return tuple(self._primary)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._factories

    def __iter__(self):
        return iter(self._primary)


class StrategyRegistry(Registry):
    """Registry of BuildPlans strategies (:class:`~repro.optimizer.strategies.Strategy`)."""

    kind = "strategy"


class CostModelRegistry(Registry):
    """Registry of cost models (:class:`~repro.optimizer.costmodel.CostModel`)."""

    kind = "cost model"


#: the process-wide strategy registry; built-ins register on import of
#: :mod:`repro.optimizer.strategies`.
STRATEGIES = StrategyRegistry()

#: the process-wide cost-model registry; ``"cout"`` registers on import of
#: :mod:`repro.optimizer.costmodel` via :mod:`repro.optimizer.config`.
COST_MODELS = CostModelRegistry()
