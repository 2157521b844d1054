"""The Alexa Top Sites simulator.

Alexa inferred popularity from a panel of users who installed one of ~25K
partner browser extensions, ranking by a blend of average daily visitors
and pageviews over a trailing three-month window.  The mechanism has three
documented consequences that this simulator reproduces:

* the panel is **small** — tail sites are observed rarely or never, so the
  deep list is noisy and incomplete;
* the panel is **desktop-only** (extensions barely exist on mobile) and
  unevenly distributed across countries — strongest in the US and several
  sub-Saharan African markets;
* extensions are **disabled in private browsing**, making adult and
  gambling traffic nearly invisible (Table 3's exclusion bias).

Figure 3 of the paper observes an unexplained accuracy improvement in late
February 2022; we model it as a silent panel enlargement on a configurable
day.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.calendar import TrafficCalendar
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World
from repro.worldgen.zipf import sample_counts

__all__ = ["AlexaProvider"]


class AlexaProvider(TopListProvider):
    """Browser-extension panel ranking (visitors + pageviews, smoothed)."""

    name = "alexa"
    granularity = Granularity.DOMAIN

    def __init__(self, world: World, traffic: TrafficModel) -> None:
        super().__init__(world, traffic)
        self._calendar = TrafficCalendar(world.config)
        sites = world.sites
        clients = world.clients
        # Static panel-visibility weight per site: desktop share of its
        # traffic, weighted by panel density where that traffic originates,
        # minus private-mode browsing.
        panel_density = clients.alexa_panel_rate
        geo = sites.country_share @ panel_density
        # Extension installers are a strongly self-selected population.
        # The skew is heavy-tailed rather than uniform: most sites are
        # sampled roughly faithfully, but a minority are wildly over- or
        # under-represented (deal/toolbar/download ecosystems).  The
        # mixture breaks Alexa's *set* accuracy while leaving rank order
        # within the faithful majority intact — the paper's Figure 2
        # pattern of bad Jaccard but relatively good Spearman.
        mix_rng = self._world.day_rng(self.name, 99_993)
        skewed = mix_rng.random(world.n_sites) < 0.40
        taste = np.where(
            skewed, mix_rng.lognormal(0.0, 2.3, world.n_sites), 1.0
        )
        taste = taste * self._panel_composition_bias(0.0, common=0.5)
        # Private-mode visits disable extensions entirely, and the kind of
        # user who installs tracking extensions avoids browsing sensitive
        # categories under them at all — a compounding penalty, hence the
        # squared factor (Gao et al., via Section 6.4).
        private_blindness = (1.0 - sites.private_rate) ** 2
        # The panel lives on *home* desktops: its browsing mix tilts
        # toward leisure sites and away from office-hours destinations,
        # which is also why Alexa tracks weekend web activity best
        # (Figure 3).
        leisure_tilt = 1.55 - 1.1 * sites.work_affinity
        self._visibility = (
            geo * (1.0 - sites.mobile_share) * private_blindness * taste * leisure_tilt
        )
        self._smoothed: Dict[int, np.ndarray] = {}

    def _panel_counts(self, day: int) -> np.ndarray:
        """Panel pageview observations per site on ``day``."""
        world = self._world
        config = world.config
        tensors = self._traffic.day(day)
        weights = tensors.pageloads * self._visibility
        total = weights.sum()
        if total <= 0:
            return np.zeros(world.n_sites)
        budget = config.alexa_daily_events * self._calendar.alexa_panel_boost(day)
        rng = world.day_rng("alexa", day)
        return sample_counts(rng, budget * weights / total)

    def _smoothed_scores(self, day: int) -> np.ndarray:
        """Trailing-average score through ``day`` (EMA standing in for the
        3-month window, computed sequentially and cached)."""
        cached = self._smoothed.get(day)
        if cached is not None:
            return cached
        alpha = self._world.config.alexa_smoothing
        pages = self._traffic.pages_per_visit
        start = max((d for d in self._smoothed if d < day), default=-1)
        score = self._smoothed.get(start)
        for d in range(start + 1, day + 1):
            counts = self._panel_counts(d)
            # "Average daily visitors and pageviews": approximate panel
            # visitors by de-duplicating pageviews through visit depth.
            daily = counts + 3.0 * counts / pages
            score = daily if score is None else (1 - alpha) * score + alpha * daily
            self._smoothed[d] = score
        return self._smoothed[day]

    def _build_daily(self, day: int) -> RankedList:
        """The Alexa list published on ``day``.

        Sites the panel has never observed cannot be ranked and are
        absent — the key accuracy limitation of a small panel.
        """
        scores = self._smoothed_scores(day)
        name_rows = np.arange(self._world.n_sites)  # Domain rows lead the table.
        return self._assemble(scores, name_rows, day=day, min_score=0.0)
