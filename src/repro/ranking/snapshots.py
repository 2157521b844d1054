"""Versioned list snapshots and rank diffs.

A *snapshot* is the canonical JSON document for one (provider, day)
list — the unit the serving layer versions.  Its identity is the sha256
of its canonical bytes (:func:`repro.store.canonical_bytes`, re-exported
here), which is exactly the checksum the artifact store records for the
same payload, so store checksums double as strong ETags.

A *diff* compares two days' top-k prefixes the way the stability
literature does: who entered, who fell out, and how the survivors moved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.providers.base import RankedList
from repro.store.artifacts import canonical_bytes, snapshot_etag
from repro.worldgen.world import World

__all__ = ["canonical_bytes", "diff_ranked", "snapshot_doc", "snapshot_etag"]


def snapshot_doc(
    ranked: RankedList,
    world: World,
    *,
    k: Optional[int] = None,
    data_health: Optional[Dict] = None,
) -> Dict:
    """The canonical snapshot document for a ranked list (optionally its
    top-``k`` slice).

    ``data_health`` — when the list came through the degraded-ingestion
    layer — is embedded in the document, so a degraded emission can never
    share bytes (or an ETag) with a clean one: the marking is part of the
    versioned identity, not response decoration.  Clean-pipeline
    snapshots omit the key entirely, keeping their bytes unchanged.
    """
    sliced = ranked.head(k) if k is not None else ranked
    bounds = sliced.bucket_bounds
    doc = {
        "provider": sliced.provider,
        "day": sliced.day,
        "granularity": sliced.granularity,
        "bucketed": sliced.is_bucketed,
        "bucket_bounds": None if bounds is None else [int(b) for b in bounds],
        "count": len(sliced),
        "names": sliced.strings(world),
    }
    if data_health is not None:
        doc["data_health"] = data_health
    return doc


def diff_ranked(
    from_names: Sequence[str],
    to_names: Sequence[str],
) -> Dict:
    """Rank diff between two lists of names (rank 1 first).

    Returns:
        dict with ``entrants`` (in *to* but not *from*, with their new
        rank), ``dropouts`` (in *from* but not *to*, with the rank they
        held), ``moved`` (in both at different ranks, ``delta`` positive
        when the name climbed), and ``unchanged`` (count of names whose
        rank is identical).  Entry lists are ordered by rank for
        deterministic bytes.
    """
    from_rank = {name: i + 1 for i, name in enumerate(from_names)}
    to_rank = {name: i + 1 for i, name in enumerate(to_names)}
    entrants: List[Dict] = []
    moved: List[Dict] = []
    unchanged = 0
    for name, rank in to_rank.items():
        old = from_rank.get(name)
        if old is None:
            entrants.append({"name": name, "rank": rank})
        elif old != rank:
            moved.append(
                {"name": name, "from_rank": old, "to_rank": rank, "delta": old - rank}
            )
        else:
            unchanged += 1
    dropouts = [
        {"name": name, "rank": rank}
        for name, rank in from_rank.items()
        if name not in to_rank
    ]
    entrants.sort(key=lambda e: e["rank"])
    dropouts.sort(key=lambda e: e["rank"])
    moved.sort(key=lambda e: e["to_rank"])
    return {
        "entrants": entrants,
        "dropouts": dropouts,
        "moved": moved,
        "unchanged": unchanged,
        "from_count": len(from_rank),
        "to_count": len(to_rank),
    }
