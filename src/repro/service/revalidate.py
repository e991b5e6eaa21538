"""Background revalidation of stale plan-cache entries.

The serving half of stale-while-revalidate: when a
:meth:`~repro.sql.catalog.Catalog.update_stats` delta marks cache
entries stale, requests keep being served from them (the regression is
bounded — see :mod:`repro.optimizer.recost`) while a
:class:`StaleRevalidator` works through the backlog off the request
path:

1. claim a batch of stale entries, hottest first — a claim changes no
   state: the cache's one owner thread settles every claim of the batch
   before it claims again,
2. rebuild each entry's query under the *fresh* catalog by re-parsing
   its stored SQL; an entry stored without SQL cannot be rebuilt and is
   dropped,
3. re-cost the cached plan and apply the ``RECOST_BOUND`` test:
   within bound → refresh the entry in place (``plans.recosted``),
   past it → full re-optimization (``plans.replanned``),
4. a replan that deadline-degrades never overwrites the entry
   (:meth:`~repro.service.cache.PlanCache.refresh` refuses degraded
   results); the entry stays ``stale`` and is retried by a later drain.

``drain`` runs in the caller's thread, which must be the cache's owner —
the owner of a :class:`~repro.service.core.ServingCore` decides when: a
shard worker calls it with a ``limit`` inline on ``/stats_update`` and
in the idle gaps between requests.
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.optimizer.config import OptimizerConfig
from repro.service.cache import PlanCache, StaleClaim
from repro.service.fingerprint import plan_key

logger = logging.getLogger("repro.service.revalidate")

#: stale entries claimed per drain round — bounds how much work one round
#: commits to (each claim is settled before the next round claims).
CLAIM_BATCH = 32


class StaleRevalidator:
    """Re-cost or re-plan the stale entries of *cache* under *catalog*."""

    def __init__(self, cache: PlanCache, catalog, config: OptimizerConfig):
        self.cache = cache
        self.catalog = catalog
        self.config = config

    def drain(self, limit: Optional[int] = None) -> dict:
        """Process the stale backlog (up to *limit* entries); counts dict."""
        counts = {"recosted": 0, "replanned": 0, "dropped": 0, "failed": 0}
        processed = 0
        # Failed entries stay STALE (retryable on a *later* drain);
        # revalidating them again in this one would livelock — a
        # permanently failing entry (e.g. every replan deadline-degrades)
        # would be claimed and failed forever.
        failed_keys = set()
        while True:
            batch = CLAIM_BATCH
            if limit is not None:
                batch = min(batch, limit - processed)
                if batch <= 0:
                    break
            claims = self.cache.claim_stale(limit=batch)
            if not claims:
                break
            progressed = False
            for claim in claims:
                if claim.key in failed_keys:
                    continue
                outcome = self._revalidate(claim)
                if outcome == "failed":
                    failed_keys.add(claim.key)
                counts[outcome] += 1
                processed += 1
                progressed = True
            if not progressed:
                break
        return counts

    def _revalidate(self, claim: StaleClaim) -> str:
        from repro.optimizer.driver import optimize, prepare
        from repro.optimizer.recost import evaluate_stale, recosted_result

        try:
            if claim.sql is not None and self.catalog is not None:
                from repro.sql.binder import parse_query

                query = parse_query(claim.sql, self.catalog)
            else:
                self.cache.drop(claim.key)
                return "dropped"

            prepared = prepare(query)
            # The entry keeps *its* optimization settings: an entry stored
            # under a per-request strategy/factor/cost-model override must
            # be re-costed and re-keyed under those, not session defaults.
            overrides = {
                "strategy": claim.key.strategy,
                "cost_model": claim.key.cost_model,
            }
            if claim.key.factor is not None:
                overrides["factor"] = claim.key.factor
            entry_config = self.config.with_overrides(**overrides)
            new_key, exact = plan_key(query, entry_config)
            decision = evaluate_stale(
                query, claim.result, config=entry_config, prepared=prepared
            )
            if decision.serve:
                refreshed = recosted_result(
                    claim.result, decision.plan, decision.elapsed_seconds
                )
                self.cache.refresh(
                    claim.key, refreshed, exact_snapshot=exact, new_key=new_key
                )
                return "recosted"
            # Past the bound (or replay failed): full re-optimization.
            # The run respects the config's planning deadline; a degraded
            # fallback is refused by refresh() (the entry stays stale) —
            # the degraded-plan guard extends to the revalidation path.
            # evaluate_stale has just costed complete plans of this very
            # query — the replayed one, if it replayed, and H1's — so the
            # replan is bounded by the cheaper instead of planning H1 again.
            known = decision.bound_cost
            if decision.recost_cost is not None:
                known = min(known, decision.recost_cost)
            result = optimize(
                query, prepared=prepared, config=entry_config, known_cost=known
            )
            refreshed = self.cache.refresh(
                claim.key, result, exact_snapshot=exact, new_key=new_key
            )
            return "replanned" if refreshed else "failed"
        except Exception:  # noqa: BLE001 - per-entry fault isolation
            logger.exception("revalidation failed for %s", claim.key)
            return "failed"
