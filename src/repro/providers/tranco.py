"""The Tranco list simulator.

Tranco (Le Pochat et al., NDSS '19) hardens top lists against manipulation
and churn by aggregating Alexa, Umbrella, and Majestic over a 30-day window
with the Dowdall rule: a domain scores the sum of ``1/rank`` over every
(list, day) in the window, and domains are ranked by total score.

We reimplement the algorithm faithfully over our simulated component
lists.  Umbrella's FQDN entries are first folded to registrable domains
(best rank wins), matching the domain-level Tranco archive the paper used
(its Table 2 PSL deviation for Tranco is 0.0).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World

__all__ = ["TrancoProvider", "dowdall_scores", "site_rank_vector"]


def site_rank_vector(world: World, name_rows: Sequence[int]) -> np.ndarray:
    """Best 1-based rank per site for one published list (0 = absent).

    Folds name-table rows to registrable domains first (infrastructure
    names, ``site < 0``, contribute nothing) and keeps the best-ranked
    occurrence of each site — the same folding the batch Tranco path
    applies to its components.  The degraded-ingestion layer reuses this
    so a repaired or truncated day aggregates exactly like a clean one.
    """
    rows = np.asarray(name_rows, dtype=np.int64)
    sites = world.names.site[rows]
    ranks = np.zeros(world.n_sites, dtype=np.float64)
    position = np.arange(1, len(sites) + 1, dtype=np.float64)
    owned = sites >= 0
    site_ids, first = np.unique(sites[owned], return_index=True)
    ranks[site_ids] = position[owned][first]
    return ranks


def dowdall_scores(rank_vectors: Sequence[np.ndarray], n_sites: int) -> np.ndarray:
    """Dowdall-rule aggregation.

    Args:
        rank_vectors: per-(list, day) arrays of 1-based site ranks, with 0
          meaning "absent from that list".
        n_sites: universe size.

    Returns:
        Per-site total score (sum of reciprocal ranks).
    """
    scores = np.zeros(n_sites)
    for ranks in rank_vectors:
        present = ranks > 0
        scores[present] += 1.0 / ranks[present]
    return scores


class TrancoProvider(TopListProvider):
    """Dowdall aggregation of Alexa, Umbrella, and Majestic."""

    name = "tranco"
    granularity = Granularity.DOMAIN

    def __init__(
        self,
        world: World,
        traffic: TrafficModel,
        components: Sequence[TopListProvider],
    ) -> None:
        """Args:
        world: the shared world.
        traffic: the shared traffic model.
        components: the component providers (canonically Alexa, Umbrella,
          Majestic), already constructed over the same world.
        """
        super().__init__(world, traffic)
        if not components:
            raise ValueError("Tranco needs at least one component list")
        self._components = tuple(components)
        self._rank_cache: Dict[tuple, np.ndarray] = {}

    @property
    def components(self) -> tuple:
        """The aggregated component providers."""
        return self._components

    def _component_site_ranks(self, provider: TopListProvider, day: int) -> np.ndarray:
        """Best 1-based rank per site in a component's daily list (0 =
        absent), after folding entries to registrable domains."""
        key = (provider.name, day)
        cached = self._rank_cache.get(key)
        if cached is not None:
            return cached
        ranked = provider.daily_list(day)
        ranks = site_rank_vector(self._world, ranked.name_rows)
        self._rank_cache[key] = ranks
        return ranks

    def window_days(self, day: int) -> range:
        """The trailing aggregation window ending at ``day`` (inclusive),
        clipped at day 0 — the days whose component lists feed the Dowdall
        sum for ``day``."""
        window = self._world.config.tranco_window
        return range(max(0, day - window + 1), day + 1)

    def component_day_ranks(self, day: int) -> List[np.ndarray]:
        """One rank vector per component for a single ``day``, in canonical
        component order.

        This is the per-day unit of work the incremental pipeline
        (:mod:`repro.ranking`) folds into its rolling window: everything a
        new day contributes to the aggregation, and nothing older.
        """
        return [self._component_site_ranks(p, day) for p in self._components]

    def assemble_scores(self, scores: np.ndarray, day: int) -> RankedList:
        """Turn a per-site Dowdall score vector into the ranked list for
        ``day``, using the same ordering/truncation rules as the batch path."""
        name_rows = np.arange(self._world.n_sites)
        return self._assemble(scores, name_rows, day=day, min_score=0.0)

    def _build_daily(self, day: int) -> RankedList:
        """The Tranco list for ``day``: Dowdall over the trailing window."""
        days = self.window_days(day)
        vectors = [
            self._component_site_ranks(provider, d)
            for provider in self._components
            for d in days
        ]
        scores = dowdall_scores(vectors, self._world.n_sites)
        return self.assemble_scores(scores, day)
