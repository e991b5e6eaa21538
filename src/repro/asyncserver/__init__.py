"""The serving tier: event-loop front, sharded worker processes.

One asyncio event loop routes each request by structural fingerprint to
a worker *process* owning a private plan-cache shard — no cross-process
lock on the warm path — plus shard snapshot/warm-start persistence and
crash-restart supervision.  Start it with::

    python -m repro serve --shards 4 --cache-dir /var/cache/repro

or in-process::

    from repro.asyncserver import AsyncPlanServer
    from repro.service.config import ServingConfig

    with AsyncPlanServer(ServingConfig(port=0, shards=2)) as server:
        ...                     # the HTTP surface of README "The contract"
        server.drain()          # snapshot shards + graceful stop

Every setting — the front's, the shards', each core's — is one
:class:`~repro.service.config.ServingConfig`.
"""

from repro import lazy_exports
from repro.service.config import ServingConfig, default_shards
from repro.service.core import tune_gc_for_serving

# Bridge for benchmarks/e2e/serve_child.py; the benchmark-only change deletes it, as optimize(engine=).
AsyncServerConfig = ServingConfig

__getattr__ = lazy_exports(__name__, {
    "AsyncPlanServer": "repro.asyncserver.app",
    "AsyncPlanService": "repro.asyncserver.app",
    "WorkerCrashed": "repro.asyncserver.supervisor",
    "WorkerSupervisor": "repro.asyncserver.supervisor",
})

__all__ = [
    "AsyncPlanServer",
    "AsyncPlanService",
    "AsyncServerConfig",
    "WorkerCrashed",
    "WorkerSupervisor",
    "default_shards",
    "tune_gc_for_serving",
]
