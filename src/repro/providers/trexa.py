"""The Trexa list simulator.

Trexa (Zeber et al., WWW '20) interleaves Tranco and Alexa rankings with
extra weight toward Alexa, aiming to better approximate intentional URL
loads as observed in a Mozilla user study.  The published construction
takes entries alternately from the two source lists — ``alexa_weight``
Alexa entries for every Tranco entry — skipping duplicates, preserving
each entry's first-seen position.
"""

from __future__ import annotations

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.world import World

__all__ = ["TrexaProvider", "interleave_rankings"]


def interleave_rankings(
    primary: np.ndarray, secondary: np.ndarray, primary_per_secondary: int
) -> np.ndarray:
    """Interleave two ranked id arrays, deduplicating on first occurrence.

    Args:
        primary: the up-weighted ranking (Alexa).
        secondary: the other ranking (Tranco).
        primary_per_secondary: primary entries taken per secondary entry.

    Returns:
        The merged ranking containing every id from either input once.
    """
    w = primary_per_secondary
    if w < 1:
        raise ValueError("primary_per_secondary must be >= 1")
    # Round r takes primary entries r*w .. r*w+w-1, then secondary entry
    # r; an exhausted input just stops contributing to later rounds.
    i = np.arange(len(primary))
    j = np.arange(len(secondary))
    slots = np.concatenate(((i // w) * (w + 1) + i % w, j * (w + 1) + w))
    merged = np.concatenate((primary, secondary))[np.argsort(slots, kind="stable")]
    _, first = np.unique(merged, return_index=True)
    first.sort()
    return merged[first].astype(primary.dtype if len(primary) else np.int64)


class TrexaProvider(TopListProvider):
    """Alexa-weighted interleave of Tranco and Alexa."""

    name = "trexa"
    granularity = Granularity.DOMAIN

    def __init__(
        self,
        world: World,
        traffic: TrafficModel,
        alexa: TopListProvider,
        tranco: TopListProvider,
    ) -> None:
        super().__init__(world, traffic)
        self._alexa = alexa
        self._tranco = tranco

    def _build_daily(self, day: int) -> RankedList:
        """The Trexa list for ``day``."""
        alexa_rows = self._alexa.daily_list(day).name_rows
        tranco_rows = self._tranco.daily_list(day).name_rows
        merged = interleave_rankings(
            alexa_rows, tranco_rows, self._world.config.trexa_alexa_weight
        )
        limit = self._world.config.list_length
        return RankedList(
            provider=self.name,
            day=day,
            granularity=self.granularity,
            name_rows=merged[:limit],
        )
