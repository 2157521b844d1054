"""The Secrank simulator.

Secrank (Xie et al., USENIX Security '22) builds a top list from DNS logs
of a major Chinese resolver: each client IP "votes" for domains by request
volume and access frequency, with votes weighted by the client's domain
diversity and total volume, and the aggregate smoothed for stability.

From the paper's evaluation perspective the dominant property is the
vantage point: essentially all clients are in China, so the list captures
the Chinese web well (Figure 7) and the global web poorly (Figure 2,
Table 1 — Cloudflare coverage of Secrank is 0.6-8%, partly because
Cloudflare serves few China-homed sites).  We implement a simplified
diversity-weighted voting over the simulated Chinese client base.
"""

from __future__ import annotations

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World
from repro.worldgen.zipf import sample_counts

__all__ = ["SecrankProvider"]

#: Exponential smoothing factor (Secrank is designed to be stable).
_SMOOTHING = 0.15


class SecrankProvider(TopListProvider):
    """Diversity-weighted client voting on a Chinese resolver."""

    name = "secrank"
    granularity = Granularity.DOMAIN

    def __init__(self, world: World, traffic: TrafficModel) -> None:
        super().__init__(world, traffic)
        self._client_base = (
            world.config.secrank_daily_events * world.clients.secrank_share
        )
        # One ISP resolver's users are a further-skewed slice even of the
        # Chinese web population.
        self._taste = self._panel_composition_bias(1.3, common=0.5)
        # National filtering: a large share of foreign sites are
        # unreachable from the resolver's network, so they generate almost
        # no resolvable traffic regardless of global popularity.
        rng = world.day_rng(self.name, 99_992)
        from repro.worldgen.countries import country_index

        foreign = world.sites.home_country != country_index("cn")
        blocked = foreign & (rng.random(world.n_sites) < 0.60)
        self._reachability = np.where(blocked, 0.02, 1.0)
        self._smoothed: dict = {}

    def _daily_votes(self, day: int) -> np.ndarray:
        """Per-site vote mass on ``day`` from the resolver's clients."""
        world = self._world
        tensors = self._traffic.day(day)

        # Sessions visible to the resolver, per country (dominated by CN).
        country_clients = world.clients.country_clients()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                country_clients > 0, self._client_base / country_clients, 0.0
            )
        sessions = (
            tensors.sessions
            * ratio[None, :]
            * (self._taste * self._reachability)[:, None]
        )

        # Voting: request volume dampened per client (each IP's votes are
        # normalized by its own volume), which compresses heavy hitters.
        # Unique clients dominate; log-volume adds frequency information.
        unique = (country_clients[None, :] * -np.expm1(
            -np.divide(
                sessions,
                country_clients[None, :],
                out=np.zeros_like(sessions),
                where=country_clients[None, :] > 0,
            )
        )).sum(axis=1)
        volume = sessions.sum(axis=1)
        votes = unique * np.log1p(np.divide(
            volume, np.maximum(unique, 1e-9)
        ))
        rng = world.day_rng("secrank", day)
        return sample_counts(rng, votes)

    def _smoothed_votes(self, day: int) -> np.ndarray:
        cached = self._smoothed.get(day)
        if cached is not None:
            return cached
        start = max((d for d in self._smoothed if d < day), default=-1)
        score = self._smoothed.get(start)
        for d in range(start + 1, day + 1):
            votes = self._daily_votes(d)
            score = votes if score is None else (1 - _SMOOTHING) * score + _SMOOTHING * votes
            self._smoothed[d] = score
        return self._smoothed[day]

    def _build_daily(self, day: int) -> RankedList:
        """The Secrank list for ``day`` (smoothed votes, descending)."""
        scores = self._smoothed_votes(day)
        name_rows = np.arange(self._world.n_sites)
        return self._assemble(scores, name_rows, day=day, min_score=0.5)
