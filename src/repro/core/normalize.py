"""List-format normalization (Section 4.2).

Top lists rank different objects: registrable domains, FQDNs (Umbrella),
and origins (CrUX).  To compare them fairly the paper groups every entry by
its PSL-defined registrable domain and keeps the *smallest* (best) rank per
domain.  This module implements that normalization two ways:

* a fast path over the world's name table (entries already know their
  site), used by every bench; and
* a string path through the real PSL matcher, used to normalize arbitrary
  external lists and to validate the fast path in tests.

It also computes Table 2's statistic: the fraction of raw entries that are
not already registrable domains (origins are first reduced to their host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.providers.base import RankedList
from repro.weblib.domains import is_valid_hostname, parse_origin
from repro.weblib.psl import PublicSuffixList, default_psl
from repro.worldgen.nametable import NameTable
from repro.worldgen.world import World

__all__ = [
    "NormalizedList",
    "normalize_list",
    "normalize_strings",
    "psl_deviation_fraction",
    "deviation_by_magnitude",
]


@dataclass
class NormalizedList:
    """A top list folded to unique registrable-domain sites.

    Attributes:
        provider: source provider name.
        day: source day (None for monthly lists).
        sites: site indices ordered by best original rank (best first).
        ranks: the 1-based best original rank of each site.
        bucket_bounds: for bucketed sources, cumulative *original-entry*
          bucket sizes; used to select magnitude prefixes by original rank.
        raw_length: the raw list's entry count before folding.
    """

    provider: str
    day: Optional[int]
    sites: np.ndarray
    ranks: np.ndarray
    bucket_bounds: Optional[np.ndarray]
    raw_length: int

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def is_bucketed(self) -> bool:
        """Whether the source published rank magnitudes, not exact ranks."""
        return self.bucket_bounds is not None

    def top_sites(self, magnitude: int) -> np.ndarray:
        """Sites whose best raw entry ranked within the top ``magnitude``.

        This is how a researcher takes "the top 10K" from a normalized
        list; for bucketed lists it selects whole buckets, which is all
        CrUX permits.
        """
        cutoff = int(np.searchsorted(self.ranks, magnitude, side="right"))
        return self.sites[:cutoff]


def normalize_list(world: World, ranked: RankedList, fold: bool = True) -> NormalizedList:
    """Normalize a provider list via the name table (fast path).

    Entries owned by no site (infrastructure DNS names) are dropped —
    they have no website to compare.  The first (best-ranked) entry of
    each site wins, implementing the paper's min-rank grouping.

    Args:
        world: the shared world.
        ranked: the provider's published list.
        fold: when False, skip the PSL folding: only entries whose string
          already *is* a registrable domain keep their site.  This is the
          "without normalization" alternative the paper calls "strictly
          worse" (Section 4.2), kept for the ablation bench.
    """
    sites = world.names.site[ranked.name_rows].copy()
    ranks = np.arange(1, len(sites) + 1, dtype=np.int64)
    if not fold:
        # An unfolded pipeline only matches entries whose literal string
        # already is the registrable domain; FQDNs like ``www.x.com`` and
        # origins match nothing (apex entries such as ``x.com`` still do).
        strings = world.names.strings
        site_names = world.sites.names
        for i, row in enumerate(ranked.name_rows):
            site = sites[i]
            if site >= 0 and strings[int(row)] != site_names[site]:
                sites[i] = -1
    owned = sites >= 0
    sites = sites[owned]
    ranks = ranks[owned]

    # Stable first-occurrence dedup: np.unique returns the first index of
    # each value under stable ordering of the input.
    _, first_idx = np.unique(sites, return_index=True)
    first_idx.sort()
    return NormalizedList(
        provider=ranked.provider,
        day=ranked.day,
        sites=sites[first_idx],
        ranks=ranks[first_idx],
        bucket_bounds=(
            ranked.bucket_bounds.copy() if ranked.bucket_bounds is not None else None
        ),
        raw_length=len(ranked.name_rows),
    )


def normalize_strings(
    entries: Sequence[str], psl: Optional[PublicSuffixList] = None
) -> Tuple[List[str], List[int]]:
    """Normalize arbitrary textual list entries to registrable domains.

    Args:
        entries: raw entries in rank order — domains, FQDNs, or origins.
        psl: PSL to use (defaults to the embedded snapshot).

    Returns:
        ``(domains, ranks)``: unique registrable domains in best-rank
        order with their 1-based best ranks.  Entries with no registrable
        domain (bare public suffixes, malformed names) are dropped.
    """
    psl = psl if psl is not None else default_psl()
    best: Dict[str, int] = {}
    for position, entry in enumerate(entries, start=1):
        host = _entry_host(entry)
        if host is None:
            continue
        try:
            domain = psl.registrable_domain(host)
        except ValueError:
            continue
        if domain is None:
            continue
        if domain not in best:
            best[domain] = position
    ordered = sorted(best.items(), key=lambda item: item[1])
    return [d for d, _ in ordered], [r for _, r in ordered]


def _entry_host(entry: str) -> Optional[str]:
    """Reduce a raw list entry to a hostname (origins lose their scheme).

    Syntactically invalid hostnames return None and are dropped by the
    callers, as the paper's pipeline would discard unprobeable entries.
    """
    entry = entry.strip().lower()
    if not entry:
        return None
    if not entry.isascii():
        # Real lists carry IDN entries; fold them to ACE form first.
        from repro.weblib.idna import IdnaError, to_ascii

        try:
            entry = to_ascii(entry)
        except IdnaError:
            return None
    if "://" in entry:
        try:
            return parse_origin(entry).host
        except ValueError:
            return None
    if not is_valid_hostname(entry):
        return None
    return entry


def _deviates(entry: str, psl: PublicSuffixList) -> bool:
    """Whether one raw entry is not already a registrable domain (an
    entry with no valid host deviates)."""
    host = _entry_host(entry)
    if host is None:
        return True
    try:
        return psl.deviates_from_registrable(host)
    except ValueError:
        return True


def psl_deviation_fraction(
    entries: Sequence[str], psl: Optional[PublicSuffixList] = None
) -> float:
    """Fraction of raw entries that are not already registrable domains.

    Origins are reduced to their host first, so ``https://example.com``
    does not deviate but ``https://www.example.com`` does — matching how
    Table 2 treats CrUX.

    Returns 0.0 for an empty input.
    """
    psl = psl if psl is not None else default_psl()
    if not entries:
        return 0.0
    return sum(_deviates(entry, psl) for entry in entries) / len(entries)


def _deviating_rows(
    names: NameTable, rows: np.ndarray, psl: PublicSuffixList
) -> np.ndarray:
    """Per row, 1 when its string deviates under ``psl``, else 0.  Each
    name-table row is classified once per table and PSL."""
    memo = names.psl_deviation.get(psl)
    if memo is None:
        memo = names.psl_deviation[psl] = np.full(len(names), -1, dtype=np.int8)
    for row in np.unique(rows[memo[rows] < 0]).tolist():
        memo[row] = _deviates(names.strings[row], psl)
    return memo[rows]


def deviation_by_magnitude(
    world: World,
    ranked: RankedList,
    magnitudes: Sequence[int],
    psl: Optional[PublicSuffixList] = None,
) -> Dict[int, float]:
    """Table 2: PSL deviation of a list's raw entries at each magnitude.

    Classifies each row of the longest prefix once, then reads every
    magnitude off one running count.
    """
    psl = psl if psl is not None else default_psl()
    rows = np.asarray(ranked.name_rows[: max(magnitudes, default=0)], dtype=np.int64)
    deviating = [0] + np.cumsum(_deviating_rows(world.names, rows, psl)).tolist()
    out: Dict[int, float] = {}
    for magnitude in magnitudes:
        n = min(magnitude, len(rows))
        out[magnitude] = deviating[n] / n if n else 0.0
    return out
