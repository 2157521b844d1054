"""The Tranco list simulator.

Tranco (Le Pochat et al., NDSS '19) hardens top lists against manipulation
and churn by aggregating Alexa, Umbrella, and Majestic over a 30-day window
with the Dowdall rule: a domain scores the sum of ``1/rank`` over every
(list, day) in the window, and domains are ranked by total score.

We reimplement the algorithm faithfully over our simulated component
lists.  Umbrella's FQDN entries are first folded to registrable domains
(best rank wins), matching the domain-level Tranco archive the paper used
(its Table 2 PSL deviation for Tranco is 0.0).

:func:`gap_dowdall_scores` is the one Dowdall sum: the clean daily list
and the degraded-ingestion windows (:mod:`repro.ranking.degraded`) both
score through it, and :mod:`repro.qa.dowdall` checks it against an
independent reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World

__all__ = ["TrancoProvider", "gap_dowdall_scores", "site_rank_vector"]


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


def _dowdall_scores(rank_vectors: Sequence[np.ndarray], n_sites: int) -> np.ndarray:
    """Sum ``1/rank`` per site over ``rank_vectors``, in the given order."""
    scores = np.zeros(n_sites)
    for ranks in rank_vectors:
        present = np.flatnonzero(ranks)
        scores[present] += 1.0 / ranks[present]
    return scores


def gap_dowdall_scores(
    cells: Sequence[Sequence[Optional[np.ndarray]]], n_sites: int
) -> np.ndarray:
    """Dowdall aggregation over one window, holes allowed.

    Args:
        cells: per component, the window's 1-based site rank vectors
          (0 = absent) in day-ascending order, with ``None`` marking a
          day that could not be recovered (quarantined past the
          carry-forward bound, or retired).
        n_sites: universe size.

    The summation order is part of the definition, because float
    addition is not associative.  A complete window sums every vector
    into one accumulator, components outer and days ascending inner.  A
    window with holes sums each component separately, scales a
    component that skipped days by ``window_days / present_days`` (so it
    is not structurally outranked by complete components), and adds the
    components in order; a fully absent (retired) component contributes
    nothing, leaving the survivors' mutual ordering untouched.
    """
    if not cells:
        raise ValueError("need at least one component")
    expected = len(cells[0])
    if any(len(comp) != expected for comp in cells):
        raise ValueError("all components must cover the same window days")
    if expected == 0:
        raise ValueError("empty window")
    if all(v is not None for comp in cells for v in comp):
        return _dowdall_scores([v for comp in cells for v in comp], n_sites)
    total = np.zeros(n_sites)
    for comp in cells:
        present = [v for v in comp if v is not None]
        if not present:
            continue
        scores = _dowdall_scores(present, n_sites)
        if len(present) < expected:
            scores = scores * (float(expected) / float(len(present)))
        total = total + scores
    return total


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
        # (component, day) -> folded rank vector: at most components x
        # n_days entries, the bound of the daily_list memos it folds.
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

    def assemble_scores(self, scores: np.ndarray, day: int) -> RankedList:
        """Turn a per-site Dowdall score vector into the ranked list for
        ``day``: score descending, ties by site id, ``list_length`` long."""
        name_rows = np.arange(self._world.n_sites)
        return self._assemble(scores, name_rows, day=day, min_score=0.0)

    def window_scores(self, day: int) -> np.ndarray:
        """Per-site Dowdall scores of the clean window ending at ``day``."""
        window = self.window_days(day)
        cells = [
            [self._component_site_ranks(provider, d) for d in window]
            for provider in self._components
        ]
        return gap_dowdall_scores(cells, self._world.n_sites)

    def _build_daily(self, day: int) -> RankedList:
        """The Tranco list for ``day``: Dowdall over the trailing window."""
        return self.assemble_scores(self.window_scores(day), day)
