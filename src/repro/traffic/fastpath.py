"""The vectorized traffic model.

For each simulated day this model produces, per site:

* expected intentional pageloads (globally and split by country/platform),
* browsing-session intensities per country (for unique-visitor occupancy
  math), and
* daily multiplicative jitter,

all as numpy arrays.  Every vantage point — the CDN metric engine, the DNS
resolvers, the browser panels — consumes the *same* day tensors, so their
disagreements are entirely due to their own observation mechanisms, which is
the property the paper's evaluation leans on.

Unique-visitor counts use the standard occupancy approximation: if a country
has ``N`` clients and the site receives ``V`` visit-sessions from it, the
expected number of distinct clients is ``N * (1 - exp(-V / N))``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import obs
from repro.traffic.calendar import TrafficCalendar
from repro.worldgen.world import World

__all__ = ["TrafficModel", "DayTraffic"]


class DayTraffic:
    """Per-day traffic tensors for all sites.

    Attributes:
        pageloads: expected intentional pageloads per site.
        country_pageloads: ``[n_sites, n_countries]`` expected pageloads.
        sessions: ``[n_sites, n_countries]`` expected visit-sessions.
        unique_visitors: ``[n_sites, n_countries]`` expected distinct
          clients, from the occupancy approximation.
        jitter: per-site day-level multiplicative noise already applied to
          the tensors above.
    """

    __slots__ = ("pageloads", "country_pageloads", "sessions", "unique_visitors", "jitter")

    def __init__(
        self,
        pageloads: np.ndarray,
        country_pageloads: np.ndarray,
        sessions: np.ndarray,
        unique_visitors: np.ndarray,
        jitter: np.ndarray,
    ) -> None:
        self.pageloads = pageloads
        self.country_pageloads = country_pageloads
        self.sessions = sessions
        self.unique_visitors = unique_visitors
        self.jitter = jitter

    def total_unique_visitors(self) -> np.ndarray:
        """Expected distinct clients per site, summed over countries.

        Clients are country-local, so cross-country double counting is not
        a concern.
        """
        return self.unique_visitors.sum(axis=1)


class TrafficModel:
    """Vectorized per-day traffic for a world.

    Args:
        world: the world to simulate.

    Day tensors are cached (the month fits comfortably in memory at bench
    scale) and deterministic per (world seed, day).  They are never
    persisted: computing a day from the world costs less than reading it
    back from the artifact store.
    """

    def __init__(self, world: World) -> None:
        self._world = world
        self._calendar = TrafficCalendar(world.config)
        static_rng = world.rng("traffic")
        n = world.n_sites
        #: Pageloads per visit-session; heavy-tailed across sites.
        self.pages_per_visit = np.clip(
            np.exp(static_rng.normal(np.log(2.3), 0.55, size=n)), 1.0, 25.0
        )
        #: Per-site multiplier on unique-(IP, UA) counts over unique-IP
        #: counts (several devices/browsers can share a NAT'd address).
        self.ip_ua_spread = static_rng.uniform(1.01, 1.09, size=n)
        self._day_cache: Dict[int, DayTraffic] = {}

    @property
    def world(self) -> World:
        """The simulated world."""
        return self._world

    @property
    def calendar(self) -> TrafficCalendar:
        """The shared temporal modulation."""
        return self._calendar

    def day(self, day: int) -> DayTraffic:
        """Traffic tensors for simulated ``day`` (cached).

        Raises:
            ValueError: if ``day`` is outside the configured window.
        """
        if not 0 <= day < self._world.config.n_days:
            raise ValueError(f"day {day} outside configured window")
        cached = self._day_cache.get(day)
        if cached is None:
            with obs.span("traffic/compute-day"):
                cached = self._compute_day(day)
                obs.count("traffic.rows", self._world.n_sites)
            self._day_cache[day] = cached
        return cached

    def _compute_day(self, day: int) -> DayTraffic:
        world = self._world
        sites = world.sites
        config = world.config
        cal = self._calendar
        rng = world.day_rng("traffic", day)

        # Per-site day modulation from platform mix x country activity.
        desktop_f = cal.desktop_country_factors(day)
        mobile_f = cal.mobile_country_factors(day)
        desktop_mod = sites.country_share @ desktop_f
        mobile_mod = sites.country_share @ mobile_f
        day_mod = (
            (1.0 - sites.mobile_share) * desktop_mod + sites.mobile_share * mobile_mod
        )

        # Work-hours shaping: office-audience sites dip on weekends,
        # leisure sites rise (Figure 3's weekly periodicity).
        centered = sites.work_affinity - 0.5
        if cal.is_weekend(day):
            day_mod = day_mod * (1.0 - 1.1 * centered)
        else:
            day_mod = day_mod * (1.0 + 0.4 * centered)

        event_mod = cal.category_event_factors(day)[sites.category]
        jitter = rng.lognormal(0.0, config.daily_noise_sigma, size=world.n_sites)

        weights = sites.weight * day_mod * event_mod * jitter
        pageloads = config.daily_pageloads * weights / weights.sum()

        country_pageloads = pageloads[:, None] * sites.country_share
        sessions = country_pageloads / self.pages_per_visit[:, None]

        country_clients = world.clients.country_clients()[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(country_clients > 0, sessions / country_clients, 0.0)
        unique_visitors = country_clients * -np.expm1(-rates)

        return DayTraffic(
            pageloads=pageloads,
            country_pageloads=country_pageloads,
            sessions=sessions,
            unique_visitors=unique_visitors,
            jitter=jitter,
        )

    def monthly_pageloads(self) -> np.ndarray:
        """Expected pageloads per site summed over the whole window."""
        total = np.zeros(self._world.n_sites)
        for day in range(self._world.config.n_days):
            total += self.day(day).pageloads
        return total
