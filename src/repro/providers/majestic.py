"""The Majestic Million simulator.

Majestic ranks websites by the number of referring subnets/backlinks seen
by its SEO crawler.  Link authority correlates only loosely with traffic —
"there is little evidence to support that the number of links to a website
correlates strongly with page views" (Section 5.1) — and is strongly tilted
toward link-magnet categories (government, news, travel: Table 3).

Both properties live in the world's backlink model
(:mod:`repro.worldgen.sites`, ``majestic_link_fidelity``); this provider
just publishes the crawl's view of it.  Backlink counts drift slowly, so
the daily snapshots are nearly constant over a month, as the real list is.
"""

from __future__ import annotations

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World

__all__ = ["MajesticProvider"]


class MajesticProvider(TopListProvider):
    """Backlink-count ranking from a simulated SEO crawl."""

    name = "majestic"
    granularity = Granularity.DOMAIN

    def __init__(self, world: World, traffic: TrafficModel) -> None:
        super().__init__(world, traffic)
        # The crawler's view: true backlinks plus crawl-coverage noise
        # (a crawler sees a sample of the link graph, not all of it).
        rng = world.rng("majestic")
        coverage = rng.beta(8.0, 2.0, size=world.n_sites)
        self._crawled_links = world.sites.backlinks * coverage

    def _build_daily(self, day: int) -> RankedList:
        """The Majestic Million for ``day``.

        Day-to-day movement is limited to slow crawl-frontier drift.
        """
        rng = self._world.day_rng("majestic", day)
        drift = rng.lognormal(0.0, 0.01, size=self._world.n_sites)
        scores = self._crawled_links * drift
        name_rows = np.arange(self._world.n_sites)
        return self._assemble(scores, name_rows, day=day, min_score=0.5)
