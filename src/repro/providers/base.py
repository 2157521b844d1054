"""Provider base types: ranked lists and the provider interface.

A :class:`RankedList` is what a provider publishes: an ordered array of
name-table rows (so a list may rank domains, FQDNs, or origins — Section 4.2)
plus, for CrUX, rank-magnitude bucket assignments instead of exact ranks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World

__all__ = ["Granularity", "RankedList", "TopListProvider"]


class Granularity:
    """What kind of name a list ranks."""

    DOMAIN = "domain"
    FQDN = "fqdn"
    ORIGIN = "origin"


@dataclass
class RankedList:
    """A published top list.

    Attributes:
        provider: provider name (``"alexa"``...).
        day: day index of a daily snapshot, or None for a monthly list.
        granularity: one of :class:`Granularity`.
        name_rows: name-table rows in rank order (rank 1 first).
        bucket_bounds: for bucketed lists (CrUX), the cumulative bucket
          sizes (e.g. ``(1000, 10000, ...)``); None for exactly-ranked
          lists.  Within a bucket, order carries no information.
    """

    provider: str
    day: Optional[int]
    granularity: str
    name_rows: np.ndarray
    bucket_bounds: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.name_rows)

    @property
    def is_bucketed(self) -> bool:
        """True when the list publishes rank magnitudes, not ranks."""
        return self.bucket_bounds is not None

    def strings(self, world: World, limit: Optional[int] = None) -> List[str]:
        """The textual list entries, rank order (for display and Table 2)."""
        rows = self.name_rows if limit is None else self.name_rows[:limit]
        return [world.names.strings[int(row)] for row in rows]

    def head(self, k: int) -> "RankedList":
        """The top-``k`` prefix as a new list (bucket bounds clipped)."""
        bounds = self.bucket_bounds
        if bounds is not None:
            bounds = bounds[bounds <= k]
            if len(bounds) == 0 or bounds[-1] != min(k, len(self.name_rows)):
                bounds = np.append(bounds, min(k, len(self.name_rows)))
        return RankedList(
            provider=self.provider,
            day=self.day,
            granularity=self.granularity,
            name_rows=self.name_rows[:k],
            bucket_bounds=bounds,
        )


def _frozen(ranked: RankedList) -> RankedList:
    """``ranked`` over a read-only view of its rows: a memoized list is
    shared by every caller, so a write into it must raise, not corrupt
    the others."""
    rows = np.asarray(ranked.name_rows)
    if not rows.flags.writeable:
        return ranked
    rows = rows.view()
    rows.flags.writeable = False
    return replace(ranked, name_rows=rows)


class TopListProvider(abc.ABC):
    """Base class for top-list simulators.

    Args:
        world: the shared world.
        traffic: the shared traffic model — one per world, so every
          provider observes the same underlying days.
    """

    #: Provider name; subclasses set this.
    name: str = ""
    #: Default granularity of published lists.
    granularity: str = Granularity.DOMAIN
    #: Whether the provider publishes a fresh list every day.
    publishes_daily: bool = True
    #: Span prefix of a list build (``providers/alexa``, and
    #: ``providers/alexa/monthly`` for the whole-window list).
    span_prefix: str = "providers"

    def __init__(self, world: World, traffic: TrafficModel) -> None:
        self._world = world
        self._traffic = traffic
        self._daily: Dict[int, RankedList] = {}
        self._monthly: Optional[RankedList] = None

    @property
    def world(self) -> World:
        """The shared world."""
        return self._world

    @property
    def traffic(self) -> TrafficModel:
        """The shared traffic model."""
        return self._traffic

    def _panel_composition_bias(
        self,
        sigma: float,
        stream: Optional[str] = None,
        common: float = 0.0,
    ) -> np.ndarray:
        """Persistent per-site panel-composition bias factors.

        A vantage point measures *its* population, not the web population:
        extension installers, enterprise employees, one resolver's users.
        Their tastes differ persistently from the average user's, which
        shifts whole regions of the measured ranking rather than jittering
        it day to day.

        Panels also share a skew with *each other* — the kind of user who
        is measurable at all (installs extensions, works behind a corporate
        resolver) over-represents the same slice of the web.  ``common``
        adds that shared component, drawn from a world-level stream, so
        amalgam lists like Tranco inherit their components' biases instead
        of cancelling them (Section 6.4's observation).

        Args:
            sigma: lognormal sigma of the provider-specific component.
            stream: world RNG stream for the specific component (defaults
              to the provider's name).
            common: lognormal sigma of the cross-panel shared component.
        """
        n = self._world.n_sites
        rng = self._world.day_rng(stream or self.name, 99_991)
        bias = rng.lognormal(0.0, sigma, size=n) if sigma > 0 else np.ones(n)
        if common > 0:
            shared_rng = self._world.day_rng("clients", 99_990)
            bias = bias * shared_rng.lognormal(0.0, common, size=n)
        return bias

    def daily_list(self, day: int) -> RankedList:
        """The list as published for simulated ``day``.

        Monthly-cadence providers return their monthly list regardless of
        day (CrUX is fixed for the whole window, as in Figure 3's note).
        Each day's list is built at most once per instance; composites and
        the store wrapper reuse that build, and only a build is traced.
        Not thread-safe: providers share one traffic model, so concurrent
        callers serialize.
        """
        ranked = self._daily.get(day)
        if ranked is None:
            with obs.span(f"{self.span_prefix}/{self.name}"):
                ranked = self._daily[day] = _frozen(self._build_daily(day))
        return ranked

    def monthly_list(self) -> RankedList:
        """The provider's list for the whole window (built once).

        Its span has its own name: a monthly build may call the daily
        one and the other way round (CrUX), and a span nested in one of
        its own name would be summed twice by ``stage_totals``.
        """
        if self._monthly is None:
            with obs.span(f"{self.span_prefix}/{self.name}/monthly"):
                self._monthly = _frozen(self._build_monthly())
        return self._monthly

    @abc.abstractmethod
    def _build_daily(self, day: int) -> RankedList:
        """Build the list for ``day``; :meth:`daily_list` memoizes it."""

    def _build_monthly(self) -> RankedList:
        """Build the whole-window list; :meth:`monthly_list` memoizes it.

        Default: the middle day's snapshot, which matches how researchers
        pin one snapshot for a study period.  Monthly-aggregated providers
        override this.
        """
        return self.daily_list(self._world.config.n_days // 2)

    def _assemble(
        self,
        scores: np.ndarray,
        name_rows: np.ndarray,
        day: Optional[int],
        min_score: float = 0.0,
    ) -> RankedList:
        """Rank ``name_rows`` by ``scores`` (descending) into a list.

        The sort is stable, so tied rows keep their input order; a
        provider that breaks ties some other way passes its rows
        pre-ordered by that key.  Only rows scoring at least the
        ``list_length``-th score are sorted: every row tied at the cut
        stays a candidate in input order, so the published prefix equals
        that of a full stable sort.

        Args:
            scores: per-row scores; rows with score <= ``min_score`` are
              excluded (a panel can't rank what it never saw).
            name_rows: candidate name-table rows, aligned with scores.
            day: publication day tag.
        """
        keep = scores > min_score
        keys = -scores[keep]
        name_rows = name_rows[keep]
        limit = self._world.config.list_length
        if len(keys) > limit:
            cut = np.partition(keys, limit - 1)[limit - 1]
            head = np.flatnonzero(keys <= cut)
            order = head[np.argsort(keys[head], kind="stable")]
        else:
            order = np.argsort(keys, kind="stable")
        return RankedList(
            provider=self.name,
            day=day,
            granularity=self.granularity,
            name_rows=name_rows[order[:limit]],
        )
