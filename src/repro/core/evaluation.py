"""The Cloudflare-subset evaluation methodology (Section 4.3).

Cloudflare serves only a subset of top sites, so a top list cannot be
compared to a Cloudflare metric ranking directly.  The paper's method,
implemented here:

1. normalize the top list to registrable domains (min rank per domain);
2. take the list's top ``magnitude`` domains;
3. keep only the Cloudflare-served ones (via the cf-ray probe) — say there
   are ``n`` of them;
4. compare that ranked set against the top ``n`` Cloudflare sites under a
   given metric, by Jaccard index (sets) and Spearman correlation (ranks
   over the intersection — skipped for bucketed lists like CrUX).

Daily results are averaged over the configured window, as in the paper
("we average the results across days in the month").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.cdn.metrics import CdnMetricEngine
from repro.core.normalize import NormalizedList, normalize_list
from repro.core.similarity import overlap, rank_correlation_of_lists
from repro.providers.base import TopListProvider
from repro.worldgen.world import World

__all__ = ["DayEvaluation", "MonthEvaluation", "CloudflareEvaluator"]


@dataclass(frozen=True)
class DayEvaluation:
    """One (list, metric, magnitude, day) comparison.

    Attributes:
        jaccard: Jaccard index between list-side and Cloudflare-side sets.
        spearman: rank correlation over the intersection (nan when not
          computable — bucketed list or intersection < 2).
        n: number of Cloudflare-served sites in the list's top slice.
        intersection: size of the two sets' intersection.
    """

    jaccard: float
    spearman: float
    n: int
    intersection: int


@dataclass(frozen=True)
class MonthEvaluation:
    """Day-averaged comparison results.

    Attributes mirror :class:`DayEvaluation`; ``spearman`` is the mean of
    defined daily values (nan when never defined).
    """

    jaccard: float
    spearman: float
    n: float
    intersection: float
    days: int


class CloudflareEvaluator:
    """Evaluates top lists against the CDN metric engine.

    Args:
        world: the shared world.
        engine: the Cloudflare metric engine built over the same world.
        cf_served: override for the per-site Cloudflare flag (the default
          reads the world's ground truth, which the HEAD probe reproduces
          exactly; tests verify the equivalence).
    """

    def __init__(
        self,
        world: World,
        engine: CdnMetricEngine,
        cf_served: Optional[np.ndarray] = None,
    ) -> None:
        self._world = world
        self._engine = engine
        self._cf = cf_served if cf_served is not None else world.sites.cf_served
        # provider -> {day: normalized list}; weak, so a freed provider's
        # entries go with it and never answer for a newer one.
        self._norm_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def engine(self) -> CdnMetricEngine:
        """The Cloudflare metric engine."""
        return self._engine

    def normalized(self, provider: TopListProvider, day: int) -> NormalizedList:
        """The provider's normalized list for ``day`` (cached).

        Keyed by the provider object, not its name: two differently
        configured instances of the same list (e.g. an attacked and a
        clean Alexa) must not share cache entries.
        """
        by_day = self._norm_cache.setdefault(provider, {})
        key = day if provider.publishes_daily else None
        cached = by_day.get(key)
        if cached is None:
            cached = by_day[key] = normalize_list(self._world, provider.daily_list(day))
        return cached

    def cloudflare_slice(
        self, normalized: NormalizedList, magnitude: int
    ) -> np.ndarray:
        """The Cloudflare-served sites in a list's top ``magnitude``, in
        list-rank order."""
        top = normalized.top_sites(magnitude)
        return top[self._cf[top]]

    def evaluate_day(
        self,
        provider: TopListProvider,
        day: int,
        combo: str,
        magnitude: int,
    ) -> DayEvaluation:
        """Compare one list snapshot against one metric at one magnitude."""
        normalized = self.normalized(provider, day)
        list_side = self.cloudflare_slice(normalized, magnitude)
        n = len(list_side)
        cf_side = self._engine.top(day, combo, n)

        intersection, union = overlap(list_side, cf_side)
        jj = intersection / union if union else 1.0
        if normalized.is_bucketed or n < 2:
            rho = float("nan")
        else:
            rho = rank_correlation_of_lists(list_side, cf_side).rho
        return DayEvaluation(jaccard=jj, spearman=rho, n=n, intersection=intersection)

    def evaluate_month(
        self,
        provider: TopListProvider,
        combo: str,
        magnitude: int,
        days: Optional[Iterable[int]] = None,
    ) -> MonthEvaluation:
        """Day-averaged comparison over the window."""
        day_list = list(days) if days is not None else list(range(self._world.config.n_days))
        jj_values = []
        rho_values = []
        n_values = []
        inter_values = []
        for day in day_list:
            result = self.evaluate_day(provider, day, combo, magnitude)
            jj_values.append(result.jaccard)
            n_values.append(result.n)
            inter_values.append(result.intersection)
            if not np.isnan(result.spearman):
                rho_values.append(result.spearman)
        return MonthEvaluation(
            jaccard=float(np.mean(jj_values)),
            spearman=float(np.mean(rho_values)) if rho_values else float("nan"),
            n=float(np.mean(n_values)),
            intersection=float(np.mean(inter_values)),
            days=len(day_list),
        )

    def evaluate_matrix(
        self,
        providers: Dict[str, TopListProvider],
        combos: Sequence[str],
        magnitude: int,
        days: Optional[Iterable[int]] = None,
    ) -> Dict[str, Dict[str, MonthEvaluation]]:
        """Figure 2: every provider against every metric.

        Returns ``{provider: {combo: MonthEvaluation}}``.
        """
        day_list = list(days) if days is not None else None
        return {
            name: {
                combo: self.evaluate_month(provider, combo, magnitude, days=day_list)
                for combo in combos
            }
            for name, provider in providers.items()
        }

    def coverage(
        self,
        provider: TopListProvider,
        magnitude: int,
        day: Optional[int] = None,
    ) -> float:
        """Table 1: fraction of the list's raw top ``magnitude`` entries
        whose site Cloudflare serves (infrastructure names count as
        unserved, as a probe would find)."""
        snapshot_day = day if day is not None else self._world.config.n_days // 2
        ranked = provider.daily_list(snapshot_day)
        rows = ranked.name_rows[:magnitude]
        sites = self._world.names.site[rows]
        served = np.zeros(len(sites), dtype=bool)
        owned = sites >= 0
        served[owned] = self._cf[sites[owned]]
        return float(served.mean()) if len(served) else 0.0
