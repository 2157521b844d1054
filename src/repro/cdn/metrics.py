"""The Cloudflare metric engine.

Computes, for each simulated day, the observed count of every
filter-aggregation combination for every Cloudflare-served site, and turns
those counts into popularity rankings.  Non-served sites are invisible:
their counts are zero and they never appear in rankings, exactly as in the
paper's vantage point.

Counting model (per site, per day), driven by the shared traffic tensors:

* raw request counts start from intentional pageloads times the site's
  subresource multiplier, plus bot traffic;
* each filter keeps an expected fraction of requests derived from the
  site's ground-truth request-shape parameters;
* unique-IP aggregations apply the filter's *visitor* pass-probability to
  the per-country unique-visitor occupancy estimates, plus a small bot-IP
  population for filters that don't exclude bots;
* measurement noise (lognormal) and counting statistics (Poisson /
  normal-approximated Poisson) are applied last.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cdn.filters import ALL_COMBINATIONS, FINAL_SEVEN, split_combo
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World
from repro.worldgen.zipf import sample_counts

__all__ = ["CdnMetricEngine"]


class CdnMetricEngine:
    """Per-day popularity metrics from the Cloudflare vantage point.

    Args:
        world: the simulated world.
        traffic: a shared traffic model; one is built if not provided
          (sharing matters — all vantage points should see the same days).
        apply_sampling_noise: disable to get exact expectations (useful in
          tests asserting analytic relationships).
    """

    FINAL_SEVEN: Tuple[str, ...] = FINAL_SEVEN
    ALL_COMBINATIONS: Tuple[str, ...] = ALL_COMBINATIONS

    def __init__(
        self,
        world: World,
        traffic: Optional[TrafficModel] = None,
        apply_sampling_noise: bool = True,
    ) -> None:
        self._world = world
        self._traffic = traffic if traffic is not None else TrafficModel(world)
        self._noise = apply_sampling_noise
        self._cf_mask = world.sites.cf_served
        self._cf_sites = world.sites.cf_indices()
        self._day_cache: Dict[int, Dict[str, np.ndarray]] = {}
        # (day, combo) -> read-only ranking, dropped with its day.
        self._rankings: Dict[Tuple[int, str], np.ndarray] = {}
        #: Optional artifact-store hooks (see :mod:`repro.store.serialize`):
        #: a loader returning all 21 combination arrays for a day, and a
        #: saver invoked after a day is computed.
        self.day_loader: Optional[Callable[[int], Optional[Dict[str, np.ndarray]]]] = None
        self.day_saver: Optional[Callable[[int, Dict[str, np.ndarray]], None]] = None

    @property
    def world(self) -> World:
        """The simulated world."""
        return self._world

    @property
    def traffic(self) -> TrafficModel:
        """The shared traffic model."""
        return self._traffic

    @property
    def cf_sites(self) -> np.ndarray:
        """Indices of Cloudflare-served sites, most popular first."""
        return self._cf_sites

    @property
    def n_cf_sites(self) -> int:
        """Number of Cloudflare-served sites."""
        return len(self._cf_sites)

    # ------------------------------------------------------------------
    # Expected values (before noise).

    def _expected_requests(self, day: int) -> Dict[str, np.ndarray]:
        """Expected request counts per filter, all sites."""
        sites = self._world.sites
        tensors = self._traffic.day(day)
        pl = tensors.pageloads

        human_requests = pl * sites.subres_mult
        bot_requests = human_requests * sites.bot_share / (1.0 - sites.bot_share)
        all_requests = human_requests + bot_requests

        return {
            "all": all_requests,
            "html": all_requests * sites.html_frac,
            "200": all_requests * sites.success_rate,
            "referer": human_requests * (1.0 - sites.referer_null_frac),
            "browsers": all_requests * sites.browser5_frac,
            # Bots inflate handshakes and root fetches roughly per *visit*
            # (crawl scheduling), not per subresource, so the bot terms
            # scale with pageloads rather than with request counts.
            "tls": pl * sites.tls_per_pageload * (1.0 + 0.6 * sites.bot_share),
            "root": pl * sites.root_frac * (1.0 + 0.3 * sites.bot_share),
        }

    def _visitor_pass_probability(self) -> Dict[str, np.ndarray]:
        """Probability a human visitor produces >= 1 request passing each
        filter (drives unique-IP aggregations)."""
        sites = self._world.sites
        n = self._world.n_sites
        pages = self._traffic.pages_per_visit
        root_hit = 1.0 - np.power(1.0 - sites.root_frac, pages)
        browser_human = np.clip(sites.browser5_frac / (1.0 - sites.bot_share), 0.0, 1.0)
        return {
            "all": np.ones(n),
            "html": np.full(n, 0.995),
            "200": np.minimum(1.0, sites.success_rate + 0.04),
            "referer": 1.0 - np.power(sites.referer_null_frac, pages),
            "browsers": browser_human,
            "tls": np.ones(n),
            "root": root_hit,
        }

    def _bot_ip_counts(self, bot_requests: np.ndarray) -> np.ndarray:
        """Distinct bot IPs hitting a site in a day (crawlers reuse IPs)."""
        return np.minimum(np.sqrt(bot_requests) * 0.8, 5000.0)

    # Filters whose definition excludes bot traffic entirely.
    _BOTLESS_FILTERS = frozenset({"referer", "browsers"})

    def expected_day_counts(self, day: int) -> Dict[str, np.ndarray]:
        """Noise-free expected counts for all 21 combinations, all sites.

        Non-Cloudflare sites are *not* masked here; this is the analytic
        layer that tests use to check metric relationships (e.g. root page
        loads never exceed total requests).
        """
        sites = self._world.sites
        tensors = self._traffic.day(day)
        requests = self._expected_requests(day)
        pass_prob = self._visitor_pass_probability()
        visitors = tensors.total_unique_visitors()
        bot_requests = requests["all"] - requests["all"] / (
            1.0 + sites.bot_share / (1.0 - sites.bot_share)
        )
        bot_ips = self._bot_ip_counts(bot_requests)

        out: Dict[str, np.ndarray] = {}
        for key in ALL_COMBINATIONS:
            filter_key, agg_key = split_combo(key)
            if agg_key == "requests":
                out[key] = requests[filter_key]
            else:
                ips = visitors * pass_prob[filter_key]
                if filter_key not in self._BOTLESS_FILTERS:
                    ips = ips + bot_ips
                if agg_key == "ip_ua":
                    ips = ips * self._traffic.ip_ua_spread
                out[key] = ips
        return out

    # ------------------------------------------------------------------
    # Observed (noisy, Cloudflare-masked) counts.

    def day_counts(self, day: int, combos: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Observed counts for ``day`` (cached), masked to Cloudflare sites.

        Args:
            day: simulated day index.
            combos: combination keys to return; defaults to the final seven.
              All 21 are computed and cached on first access.

        Returns:
            Mapping from combination key to a full-length array of counts,
            zero outside Cloudflare-served sites.
        """
        wanted = tuple(combos) if combos is not None else FINAL_SEVEN
        cached = self._day_cache.get(day)
        if cached is None and self.day_loader is not None:
            cached = self.day_loader(day)
            if cached is not None:
                self._day_cache[day] = cached
        if cached is None:
            with obs.span("cdn/compute-day"):
                cached = self._compute_observed(day)
                obs.count("cdn.rows", self._world.n_sites)
                obs.count(
                    "cdn.requests_simulated", float(cached["all:requests"].sum())
                )
            self._day_cache[day] = cached
            if self.day_saver is not None:
                self.day_saver(day, cached)
        return {key: cached[key] for key in wanted}

    def _compute_observed(self, day: int) -> Dict[str, np.ndarray]:
        expected = self.expected_day_counts(day)
        rng = self._world.day_rng("cdn", day)
        sigma = self._world.config.metric_noise_sigma
        mask = self._cf_mask.astype(np.float64)
        observed: Dict[str, np.ndarray] = {}
        for key in ALL_COMBINATIONS:
            values = expected[key] * mask
            if self._noise:
                noise = rng.lognormal(0.0, sigma, size=len(values))
                values = sample_counts(rng, values * noise)
            observed[key] = values
        return observed

    # ------------------------------------------------------------------
    # Rankings.

    def ranking(self, day: int, combo: str) -> np.ndarray:
        """Cloudflare-served site indices ranked by the metric, best first.

        Ties break toward the truly more popular site (lower index), the
        tie-break a real log pipeline's stable sort would produce when keys
        collide.  Each ranking is built once and shared read-only.
        """
        ranked = self._rankings.get((day, combo))
        if ranked is None:
            obs.count("cdn.rankings_built")
            counts = self.day_counts(day, combos=(combo,))[combo]
            order = np.argsort(-counts[self._cf_sites], kind="stable")
            ranked = self._cf_sites[order]
            ranked.flags.writeable = False
            self._rankings[(day, combo)] = ranked
        return ranked

    def top(self, day: int, combo: str, k: int) -> np.ndarray:
        """The top-``k`` Cloudflare sites under a metric on ``day``."""
        return self.ranking(day, combo)[:k]

    def month_average_counts(self, combos: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Counts averaged over every configured day (masked like
        :meth:`day_counts`)."""
        wanted = tuple(combos) if combos is not None else FINAL_SEVEN
        totals = {key: np.zeros(self._world.n_sites) for key in wanted}
        n_days = self._world.config.n_days
        for day in range(n_days):
            day_values = self.day_counts(day, combos=wanted)
            for key in wanted:
                totals[key] += day_values[key]
        return {key: value / n_days for key, value in totals.items()}

    def monthly_ranking(self, combo: str) -> np.ndarray:
        """Cloudflare sites ranked by month-averaged counts."""
        counts = self.month_average_counts(combos=(combo,))[combo]
        cf_counts = counts[self._cf_sites]
        order = np.argsort(-cf_counts, kind="stable")
        return self._cf_sites[order]

    def drop_cache(self, days: Optional[Iterable[int]] = None) -> None:
        """Evict cached day tensors and their rankings (memory control for
        long sweeps)."""
        if days is None:
            self._day_cache.clear()
            self._rankings.clear()
        else:
            dropped = set(days)
            for day in dropped:
                self._day_cache.pop(day, None)
            for key in [key for key in self._rankings if key[0] in dropped]:
                del self._rankings[key]
