"""Chrome telemetry: the panel behind CrUX and the Section 6 analyses.

Chrome's data comes from users who opted into history sync with usage
statistics enabled.  Per the CrUX methodology, aggregation excludes
non-public domains (not hyperlinked from public pages / disallowed by
robots.txt) and, on Android, covers only browser and Custom-Tab/WebAPK
traffic — most native-app usage is invisible.

Three metrics are modelled (Figure 6):

* ``completed`` — completed pageloads (First Contentful Paint); the metric
  behind the public CrUX ranking;
* ``initiated`` — initiated pageloads (completed / completion-rate);
* ``time`` — total time on site (completed x mean dwell).

Each can be produced per (country, platform) pair, which is exactly the
shape of the private data the Chrome team provided to the paper's authors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro import obs
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World
from repro.worldgen.zipf import sample_counts

__all__ = ["ChromeTelemetry", "TELEMETRY_METRICS"]

#: The three Chrome client metrics of Figure 6.
TELEMETRY_METRICS: Tuple[str, ...] = ("completed", "initiated", "time")

#: Fraction of Android browsing visible to Chrome telemetry (browser +
#: Custom Tabs + WebAPKs; native apps excluded).
_ANDROID_COVERAGE = 0.55

#: Per-day observation fraction: panel pageloads / total Chrome pageloads.
_PANEL_SAMPLING = 0.25


class ChromeTelemetry:
    """Simulated Chrome telemetry aggregation.

    Args:
        world: the simulated world.
        traffic: shared traffic model (built if absent).
    """

    def __init__(self, world: World, traffic: Optional[TrafficModel] = None) -> None:
        self._world = world
        self._traffic = traffic if traffic is not None else TrafficModel(world)
        # (country, platform, days) -> window total; (metric, country,
        # platform, days, min_count) -> ranking.  Both read-only.
        self._totals: Dict[Tuple[int, int, Tuple[int, ...]], np.ndarray] = {}
        self._rankings: Dict[tuple, np.ndarray] = {}
        # Chrome's panel is large and close to representative, but sync
        # opt-in still selects a population; the residual taste skew is
        # small compared to other vantage points.
        bias_rng = world.day_rng("chrome", 99_991)
        self._panel_taste = bias_rng.lognormal(0.0, 0.55, size=world.n_sites)
        sites = world.sites
        # Per-site probability that a pageload is telemetry-eligible;
        # private-window browsing never syncs.
        self._visibility = (
            sites.robots_public.astype(np.float64)
            * (1.0 - sites.private_rate)
            * self._panel_taste
        )

    @property
    def world(self) -> World:
        """The simulated world."""
        return self._world

    @property
    def traffic(self) -> TrafficModel:
        """The shared traffic model."""
        return self._traffic

    def panel_pageloads(self, day: int, country: int, platform: int) -> np.ndarray:
        """Expected panel-observed *completed* pageloads per site.

        Args:
            day: simulated day.
            country: country index.
            platform: 0 = Windows desktop, 1 = Android mobile.
        """
        world = self._world
        sites = world.sites
        share = sites.mobile_share if platform == 1 else 1.0 - sites.mobile_share
        loads = self._traffic.day(day).country_pageloads[:, country] * share
        chrome_share = world.clients.chrome_share[country]
        coverage = _ANDROID_COVERAGE if platform == 1 else 1.0
        return (
            loads
            * chrome_share
            * coverage
            * _PANEL_SAMPLING
            * self._visibility
            * sites.completion_rate
        )

    def _window(self, days: Optional[Iterable[int]]) -> Tuple[int, ...]:
        """``days`` as a memo key; None is the whole window."""
        return tuple(days if days is not None else range(self._world.config.n_days))

    def _window_total(
        self, country: int, platform: int, days: Tuple[int, ...]
    ) -> np.ndarray:
        """Panel pageloads of one (country, platform) pair summed over
        ``days`` in order (memoized, read-only)."""
        key = (country, platform, days)
        total = self._totals.get(key)
        if total is None:
            obs.count("chrome.window_totals_built")
            total = np.zeros(self._world.n_sites)
            for day in days:
                total += self.panel_pageloads(day, country, platform)
            total.flags.writeable = False
            self._totals[key] = total
        return total

    def metric_counts(
        self,
        metric: str,
        country: int,
        platform: int,
        days: Optional[range] = None,
        with_noise: bool = True,
    ) -> np.ndarray:
        """Aggregated per-site metric for one (country, platform) pair.

        Args:
            metric: one of :data:`TELEMETRY_METRICS`.
            country: country index.
            platform: platform index.
            days: day range to aggregate (default: the whole window —
              CrUX-style monthly aggregation).
            with_noise: apply counting statistics.

        Raises:
            KeyError: for unknown metric names.
        """
        if metric not in TELEMETRY_METRICS:
            raise KeyError(f"unknown telemetry metric: {metric!r}")
        sites = self._world.sites
        total = self._window_total(country, platform, self._window(days)).copy()
        if metric == "initiated":
            total = total / sites.completion_rate
        elif metric == "time":
            total = total * sites.dwell_seconds

        if with_noise:
            rng = self._world.day_rng("chrome", country * 64 + platform * 32 + 1)
            if metric == "time":
                # Time is a continuous sum; jitter multiplicatively.
                total = total * rng.lognormal(0.0, 0.03, size=len(total))
            else:
                total = sample_counts(rng, total)
        return total

    def ranking(
        self,
        metric: str,
        country: int,
        platform: int,
        days: Optional[range] = None,
        min_count: float = 1.0,
    ) -> np.ndarray:
        """Site indices ranked by a telemetry metric, best first.

        Sites below ``min_count`` observations are invisible to the panel
        and excluded, mirroring CrUX's privacy thresholding.  Each ranking
        is built once per instance and shared read-only.
        """
        days = self._window(days)
        key = (metric, country, platform, days, min_count)
        ranked = self._rankings.get(key)
        if ranked is None:
            obs.count("chrome.rankings_built")
            counts = self.metric_counts(metric, country, platform, days=days)
            visible = np.flatnonzero(counts >= min_count)
            ranked = visible[np.argsort(-counts[visible], kind="stable")]
            ranked.flags.writeable = False
            self._rankings[key] = ranked
        return ranked

    def global_completed_by_site(self, with_noise: bool = True) -> np.ndarray:
        """Monthly completed pageloads per site, summed over all
        (country, platform) pairs — the CrUX aggregation input."""
        world = self._world
        total = np.zeros(world.n_sites)
        for country in range(world.clients.n_countries):
            for platform in (0, 1):
                total += self.metric_counts(
                    "completed", country, platform, with_noise=False
                )
        if with_noise:
            rng = world.rng("chrome")
            total = sample_counts(rng, total)
        return total
