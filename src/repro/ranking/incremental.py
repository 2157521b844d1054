"""Rolling-window Dowdall aggregation, bit-identical to batch recompute.

Why not a running ``+=`` / ``-=`` score accumulator?  Float addition is
not associative: subtracting day *t - w*'s contribution from a running
sum does not, in general, restore the bits that summing the surviving
days directly would produce.  A naive fold-in/fold-out accumulator is
therefore only *approximately* equal to the batch recompute, and the
acceptance bar here is byte equality.

Instead the window caches each day's per-component rank vectors — the
expensive part, since producing them means simulating that day's
component lists — and emits scores by summing the cached vectors in
exactly the batch order (components outer, days ascending inner, the
order ``TrancoProvider.daily_list`` uses).  Incremental work per day is
O(components) list simulations plus an O(window x n_sites) re-sum of
cached vectors, which is vector adds only and microscopic next to list
production.  Because the emit performs the *same* float additions in the
*same* order on the *same* inputs as the batch path, the result is
bit-identical by construction — and :func:`proof_of_equivalence` checks
that construction instead of trusting it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.providers.base import RankedList
from repro.providers.tranco import TrancoProvider, dowdall_scores
from repro.ranking.snapshots import canonical_bytes, snapshot_doc

__all__ = [
    "ContinuousTranco",
    "RollingDowdall",
    "gap_dowdall_scores",
    "proof_of_equivalence",
]


def gap_dowdall_scores(
    cells: Sequence[Sequence[Optional[np.ndarray]]], n_sites: int
) -> np.ndarray:
    """Dowdall aggregation over a window with unrecoverable holes.

    Args:
        cells: per component, the window's rank vectors in day-ascending
          order, with ``None`` marking a day that could not be recovered
          (quarantined past the carry-forward bound, or retired).
        n_sites: universe size.

    A complete window takes the exact flat batch order (components outer,
    days ascending inner) — the same float additions as
    :func:`repro.providers.tranco.dowdall_scores` on the clean path, so
    clean-window emissions stay bit-identical to the undegraded pipeline.
    A window with holes switches to per-component accumulation with
    window-shrink re-normalization: each component's partial sum is
    scaled by ``window_days / present_days`` so a component that skipped
    a day is not structurally outranked by complete components, and a
    fully-absent (retired) component simply contributes nothing — the
    surviving components' mutual ordering is untouched.  Both the rolling
    emitter and the batch twin call this one function, so degraded
    equivalence is still an identical-float-program property.
    """
    if not cells:
        raise ValueError("need at least one component")
    expected = len(cells[0])
    if any(len(comp) != expected for comp in cells):
        raise ValueError("all components must cover the same window days")
    if expected == 0:
        raise ValueError("empty window")
    if all(v is not None for comp in cells for v in comp):
        flat = [v for comp in cells for v in comp]
        return dowdall_scores(flat, n_sites)
    total = np.zeros(n_sites)
    for comp in cells:
        present = [v for v in comp if v is not None]
        if not present:
            continue
        scores = dowdall_scores(present, n_sites)
        if len(present) < expected:
            scores = scores * (float(expected) / float(len(present)))
        total = total + scores
    return total


class RollingDowdall:
    """Rolling-window Dowdall score accumulator.

    Days must be fed in order via :meth:`fold_in`; each call drops the
    day that just left the trailing window, so memory is bounded at
    ``window x components`` cached rank vectors regardless of stream
    length.
    """

    def __init__(self, n_sites: int, window: int, n_components: int) -> None:
        """Args:
        n_sites: universe size (length of every rank vector).
        window: trailing window length in days (Tranco uses 30).
        n_components: number of component lists per day.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if n_components < 1:
            raise ValueError("need at least one component")
        self.n_sites = n_sites
        self.window = window
        self.n_components = n_components
        # day -> per-component rank vectors, insertion-ordered (ascending).
        self._days: "OrderedDict[int, List[np.ndarray]]" = OrderedDict()
        self._last_day: Optional[int] = None

    @property
    def days_held(self) -> List[int]:
        """The days currently inside the window, ascending."""
        return list(self._days)

    def fold_in(
        self, day: int, component_ranks: Sequence[Optional[np.ndarray]]
    ) -> None:
        """Fold day ``day``'s component rank vectors into the window,
        evicting any day older than ``day - window + 1``.

        Days must arrive consecutively (each call one day after the
        previous), matching how provider updates land.  A ``None`` entry
        records an unrecoverable hole for that component-day — a day the
        ingestion layer quarantined past its carry-forward bound, or a
        retired provider; :meth:`scores` re-normalizes around holes.
        """
        if self._last_day is not None and day != self._last_day + 1:
            raise ValueError(
                f"days must be consecutive: got day {day} after {self._last_day}"
            )
        if len(component_ranks) != self.n_components:
            raise ValueError(
                f"expected {self.n_components} component vectors, "
                f"got {len(component_ranks)}"
            )
        vectors: List[Optional[np.ndarray]] = []
        for ranks in component_ranks:
            if ranks is None:
                vectors.append(None)
                continue
            arr = np.asarray(ranks, dtype=np.float64)
            if arr.shape != (self.n_sites,):
                raise ValueError(
                    f"rank vector shape {arr.shape} != ({self.n_sites},)"
                )
            vectors.append(arr)
        self._days[day] = vectors
        self._last_day = day
        floor = day - self.window + 1
        while self._days and next(iter(self._days)) < floor:
            self._days.popitem(last=False)

    def scores(self) -> np.ndarray:
        """Dowdall scores over the current window, bit-identical to the
        batch recompute over the same days.

        A hole-free window replays the cached vectors through
        :func:`dowdall_scores` in canonical batch order — components
        outer, days ascending inner — so every float addition happens in
        the order the batch path would perform it.  Windows with holes
        take :func:`gap_dowdall_scores`' re-normalized per-component
        path, which the degraded batch twin shares.
        """
        if not self._days:
            raise ValueError("no days folded in yet")
        days = list(self._days)
        cells = [
            [self._days[d][c] for d in days] for c in range(self.n_components)
        ]
        return gap_dowdall_scores(cells, self.n_sites)

    def window_cells(self) -> List[List[Optional[np.ndarray]]]:
        """The current window's cached vectors, components outer, days
        ascending inner — the exact input :meth:`scores` aggregates."""
        days = list(self._days)
        return [
            [self._days[d][c] for d in days] for c in range(self.n_components)
        ]


class ContinuousTranco:
    """Streams a :class:`TrancoProvider`'s days through a rolling window.

    Each :meth:`advance` folds the next day's component lists in (the
    only per-day simulation work) and emits that day's ranked list from
    the accumulator — the incremental twin of ``tranco.daily_list(day)``.
    """

    def __init__(self, tranco: TrancoProvider) -> None:
        self._tranco = tranco
        world = tranco.world
        self._world = world
        self._rolling = RollingDowdall(
            n_sites=world.n_sites,
            window=world.config.tranco_window,
            n_components=len(tranco.components),
        )
        self._next_day = 0

    @property
    def next_day(self) -> int:
        """The day the next :meth:`advance` call will emit."""
        return self._next_day

    def advance(self) -> RankedList:
        """Fold the next day in and emit its list."""
        day = self._next_day
        self._rolling.fold_in(day, self._tranco.component_day_ranks(day))
        self._next_day = day + 1
        return self._tranco.assemble_scores(self._rolling.scores(), day)

    def lists(self, n_days: Optional[int] = None) -> Iterator[RankedList]:
        """Emit lists for the next ``n_days`` days (default: the world's
        full day range from the current position)."""
        if n_days is None:
            n_days = self._world.config.n_days - self._next_day
        for _ in range(max(0, n_days)):
            yield self.advance()


def proof_of_equivalence(
    tranco: TrancoProvider,
    days: Optional[Sequence[int]] = None,
    k: Optional[int] = None,
) -> Dict:
    """Prove (or refute) bit-identity of incremental vs batch lists.

    Runs the incremental pipeline from day 0 through the last requested
    day and, for each requested day, compares against a fresh batch
    ``daily_list`` call three ways: raw score bits, ranked ``name_rows``,
    and the sha256 of the canonical JSON snapshot — the strongest check,
    since the snapshot bytes are what the serving layer versions.

    Returns a report dict with per-day digests and any mismatches.
    """
    world = tranco.world
    if days is None:
        days = range(world.config.n_days)
    wanted = sorted(set(int(d) for d in days))
    if not wanted:
        raise ValueError("no days to verify")
    if wanted[0] < 0:
        raise ValueError("days must be >= 0")
    stream = ContinuousTranco(tranco)
    checked = []
    mismatches = []
    for day in range(wanted[-1] + 1):
        incremental = stream.advance()
        if day not in wanted:
            continue
        batch = tranco.daily_list(day)
        inc_scores = stream._rolling.scores()
        batch_vectors = [
            tranco._component_site_ranks(provider, d)
            for provider in tranco.components
            for d in tranco.window_days(day)
        ]
        batch_scores = dowdall_scores(batch_vectors, world.n_sites)
        inc_doc = snapshot_doc(incremental, world, k=k)
        batch_doc = snapshot_doc(batch, world, k=k)
        inc_bytes = canonical_bytes(inc_doc)
        batch_bytes = canonical_bytes(batch_doc)
        inc_digest = hashlib.sha256(inc_bytes).hexdigest()
        batch_digest = hashlib.sha256(batch_bytes).hexdigest()
        entry = {
            "day": day,
            "scores_identical": inc_scores.tobytes() == batch_scores.tobytes(),
            "ranks_identical": np.array_equal(incremental.name_rows, batch.name_rows),
            "snapshot_identical": inc_bytes == batch_bytes,
            "incremental_sha256": inc_digest,
            "batch_sha256": batch_digest,
        }
        checked.append(entry)
        if not (
            entry["scores_identical"]
            and entry["ranks_identical"]
            and entry["snapshot_identical"]
        ):
            mismatches.append(day)
    return {
        "provider": tranco.name,
        "window": world.config.tranco_window,
        "days_checked": len(checked),
        "identical": not mismatches,
        "mismatched_days": mismatches,
        "days": checked,
    }
