"""The Chrome User Experience Report (CrUX) list simulator.

CrUX publishes, monthly, the set of origins whose completed pageloads
(measured at First Contentful Paint) place them in each rank order-of-
magnitude bucket: top 1K, 10K, 100K, 1M.  Entries are **origins**
(``https://www.example.com``), the ranking is **bucketed** (no individual
ranks — the reason the paper cannot compute Spearman correlations for
CrUX), and origins with too few distinct panel visitors are withheld for
privacy.

The list is derived from the same :class:`~repro.telemetry.chrome.
ChromeTelemetry` panel as the Section 6 analyses, aggregated over the whole
window, so within the simulation CrUX relates to Chrome telemetry exactly
as in reality: same data, different publication surface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.telemetry.chrome import ChromeTelemetry
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.nametable import NameKind
from repro.worldgen.world import World

__all__ = ["CruxProvider"]


class CruxProvider(TopListProvider):
    """Monthly, origin-aggregated, rank-magnitude-bucketed Chrome list."""

    name = "crux"
    granularity = Granularity.ORIGIN
    publishes_daily = False

    def __init__(
        self,
        world: World,
        traffic: TrafficModel,
        telemetry: Optional[ChromeTelemetry] = None,
    ) -> None:
        super().__init__(world, traffic)
        self._telemetry = (
            telemetry if telemetry is not None else ChromeTelemetry(world, traffic)
        )
        names = world.names
        self._origin_rows = names.rows_of_kind(NameKind.ORIGIN)
        self._origin_sites = names.site[self._origin_rows]
        self._origin_share = names.share[self._origin_rows]
        self._country_cache: dict = {}

    @property
    def telemetry(self) -> ChromeTelemetry:
        """The underlying Chrome panel."""
        return self._telemetry

    def _build_daily(self, day: int) -> RankedList:
        """CrUX does not publish daily; every day sees the monthly list."""
        return self.monthly_list()

    def country_list(self, code: str) -> RankedList:
        """The month's per-country CrUX table (cached per country).

        The real CrUX publishes one BigQuery table per country alongside
        the global one; this builds ours from the same telemetry panel,
        restricted to the country's clients (summed over platforms).

        Raises:
            KeyError: for unknown country codes.
        """
        from repro.worldgen.countries import country_index

        country = country_index(code)
        cached = self._country_cache.get(code)
        if cached is None:
            site_completed = (
                self._telemetry.metric_counts("completed", country, 0)
                + self._telemetry.metric_counts("completed", country, 1)
            )
            cached = self._publish(site_completed)
            self._country_cache[code] = cached
        return cached

    def _build_monthly(self) -> RankedList:
        """The month's CrUX release."""
        site_completed = self._telemetry.global_completed_by_site()
        return self._publish(site_completed)

    def _publish(self, site_completed) -> RankedList:
        """Aggregate site-level completed pageloads into a bucketed,
        privacy-thresholded origin list."""
        world = self._world
        origin_completed = (
            site_completed[self._origin_sites] * self._origin_share
        )

        # Privacy threshold: approximate distinct panel visitors per origin
        # by de-duplicating pageloads through visit depth.
        pages = self._traffic.pages_per_visit[self._origin_sites]
        approx_visitors = origin_completed / pages
        visible = approx_visitors >= world.config.crux_privacy_threshold

        rows = self._origin_rows[visible]
        scores = origin_completed[visible]
        order = np.argsort(-scores, kind="stable")
        ranked_rows = rows[order]

        limit = world.config.list_length
        ranked_rows = ranked_rows[:limit]
        bounds = np.array(
            [b for b in world.config.bucket_sizes if b <= len(ranked_rows)],
            dtype=np.int64,
        )
        if len(bounds) == 0 or bounds[-1] != len(ranked_rows):
            bounds = np.append(bounds, len(ranked_rows))
        return RankedList(
            provider=self.name,
            day=None,
            granularity=self.granularity,
            name_rows=ranked_rows,
            bucket_bounds=bounds,
        )
