"""repro — a reproduction of *Dynamic Programming: The Next Step*
(Eich & Moerkotte, ICDE 2015).

Eager aggregation in a DP-based query optimizer: the package implements
the paper's equivalences for pushing grouping through inner joins,
outerjoins, semijoins, antijoins and groupjoins, and the plan generators
DPhyp / EA-All / EA-Prune / H1 / H2 that explore the enlarged search
space.

The front door is :mod:`repro.api`::

    from repro.api import PlannerSession

    session = PlannerSession.tpch(scale_factor=1.0)
    handle = session.sql("SELECT ... GROUP BY ...").optimize()
    handle.explain(); handle.cost; handle.execute(database); handle.to_dict()

The layer-level entry points remain available (and are what the session
delegates to)::

    from repro.sql import Catalog, parse_query
    from repro.optimizer import optimize
    from repro.plans import render_plan
    from repro.exec import execute

See README.md for a guided tour and docs/architecture.md for the
architecture, including the batch-optimization service layer
(:mod:`repro.service`).
"""

__version__ = "1.1.0"


def lazy_exports(package: str, exports: dict):
    """A module ``__getattr__`` (PEP 562) importing ``exports[name]`` on
    first access — for packages whose light modules are imported by
    processes that must not load the heavy ones (a shard worker imports
    ``repro.asyncserver``, never its front)."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        import importlib

        return getattr(importlib.import_module(exports[name]), name)

    return __getattr__

__all__ = [
    "api",
    "algebra",
    "aggregates",
    "rewrites",
    "query",
    "hypergraph",
    "conflict",
    "cardinality",
    "plans",
    "optimizer",
    "service",
    "workload",
    "tpch",
    "sql",
    "exec",
]
