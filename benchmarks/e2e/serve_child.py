"""``repro serve --async --shards 1`` with the one knob the CLI lacks.

``serve_churn`` needs ``revalidate_batch=1`` (as ``bench_drift.py`` sets
it) so that stale entries outlive the ``/stats_update`` frame and are
served while revalidation catches up.  That setting is config-only, so
this child builds the same server through the public
``AsyncPlanServer(AsyncServerConfig(...))`` classes and otherwise does
what ``python -m repro serve --async`` does: print the listening line,
tune the GC for serving, drain on SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.asyncserver import AsyncPlanServer, AsyncServerConfig, tune_gc_for_serving


async def serve(config: AsyncServerConfig) -> int:
    server = AsyncPlanServer(config)
    await server.async_start()
    tune_gc_for_serving()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(f"repro plan server listening on {server.url}", flush=True)
    try:
        await stop.wait()
        drained = await server.async_drain()
    finally:
        await server.async_close()
    return 0 if drained else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--band-width", type=float, required=True)
    parser.add_argument("--revalidate-batch", type=int, required=True)
    args = parser.parse_args()
    config = AsyncServerConfig(
        port=0,
        shards=1,
        cache_capacity=args.cache_size,
        snapshot_band_width=args.band_width,
        revalidate_batch=args.revalidate_batch,
    )
    return asyncio.run(serve(config))


if __name__ == "__main__":
    sys.exit(main())
