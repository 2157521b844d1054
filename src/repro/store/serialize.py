"""Hydration glue between domain objects and the artifact store.

Artifact names, all under one config key:

* ``world/arrays`` — the flattened :class:`~repro.worldgen.world.World`
  (its seed streams are respawned from the config, not stored).
* ``metrics/day-NNN`` — all 21 observed CDN combination arrays for a day
  (RNG-bound sampling, slower to redo than to read).
* ``providers/<name>/day-NNN`` / ``providers/<name>/monthly`` — published
  :class:`~repro.providers.base.RankedList` payloads.
* ``results/<experiment>`` — JSON run records (written by the runner).

The store keeps only artifacts a later run reads back and reads faster
than it recomputes (DESIGN.md §7).  Per-day traffic tensors are not among
them: :class:`~repro.traffic.fastpath.TrafficModel` recomputes a day from
the world in less time than reading it back takes, and a hydrated world
yields the same bits as a fresh one.

Every artifact is a pure function of the config, so concurrent writers to
the same name race benignly: whoever wins ``os.replace`` published the same
content.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cdn.filters import ALL_COMBINATIONS
from repro.cdn.metrics import CdnMetricEngine
from repro.providers.base import RankedList, TopListProvider
from repro.store.artifacts import ArtifactStore
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World, build_world

__all__ = [
    "WORLD_ARTIFACT",
    "load_or_build_world",
    "attach_engine_store",
    "StoredProvider",
    "wrap_providers",
]

WORLD_ARTIFACT = "world/arrays"


def load_or_build_world(store: ArtifactStore, cfg_key: str, config: WorldConfig) -> World:
    """Hydrate a world from the store, building and persisting on miss."""
    arrays = store.get_arrays(cfg_key, WORLD_ARTIFACT)
    if arrays is not None:
        try:
            return World.from_arrays(config, arrays)
        except (KeyError, TypeError, ValueError):
            # Layout drift within one schema version is a bug, but the
            # store's contract is rebuild-not-crash.
            pass
    world = build_world(config)
    store.put_arrays(cfg_key, WORLD_ARTIFACT, world.to_arrays())
    return world


def attach_engine_store(engine: CdnMetricEngine, store: ArtifactStore, cfg_key: str) -> None:
    """Wire the CDN metric engine's per-day observed counts through the store."""

    def load(day: int) -> Optional[Dict[str, np.ndarray]]:
        arrays = store.get_arrays(cfg_key, f"metrics/day-{day:03d}")
        if arrays is None or any(key not in arrays for key in ALL_COMBINATIONS):
            return None
        return {key: arrays[key] for key in ALL_COMBINATIONS}

    def save(day: int, counts: Dict[str, np.ndarray]) -> None:
        store.put_arrays(cfg_key, f"metrics/day-{day:03d}", counts)

    engine.day_loader = load
    engine.day_saver = save


# ---------------------------------------------------------------------------
# Provider list artifacts.


def _encode_list(ranked: RankedList) -> Dict[str, np.ndarray]:
    arrays = {
        "name_rows": ranked.name_rows,
        "day": np.asarray(-1 if ranked.day is None else ranked.day),
        "granularity": np.asarray(ranked.granularity),
    }
    if ranked.bucket_bounds is not None:
        arrays["bucket_bounds"] = ranked.bucket_bounds
    return arrays


def _decode_list(provider: str, arrays: Dict[str, np.ndarray]) -> RankedList:
    day = int(arrays["day"])
    bounds = arrays.get("bucket_bounds")
    return RankedList(
        provider=provider,
        day=None if day < 0 else day,
        granularity=str(arrays["granularity"]),
        name_rows=np.asarray(arrays["name_rows"]),
        bucket_bounds=None if bounds is None else np.asarray(bounds),
    )


class StoredProvider(TopListProvider):
    """A provider wrapper that persists published lists in the store.

    The wrapped provider builds a list at most once per process; the
    store makes that once per *cache lifetime*.  Wrapping happens at the
    registry boundary, so composite providers (Tranco, Trexa) still consume
    their components in-process on a cold build, sharing the builds this
    wrapper persists.  Its builds trace as ``stored/<name>``: a store
    read, or on a miss the inner ``providers/<name>`` build and a write.
    """

    span_prefix = "stored"

    def __init__(self, inner: TopListProvider, store: ArtifactStore, cfg_key: str) -> None:
        super().__init__(inner.world, inner.traffic)
        self._inner = inner
        self._store = store
        self._cfg_key = cfg_key
        self.name = inner.name
        self.granularity = inner.granularity
        self.publishes_daily = inner.publishes_daily

    @property
    def inner(self) -> TopListProvider:
        """The wrapped provider (for callers that need its full surface,
        e.g. ``repro ranking``'s oracle check over Tranco's components)."""
        return self._inner

    def _cached_list(self, artifact: str, compute) -> RankedList:
        arrays = self._store.get_arrays(self._cfg_key, artifact)
        if arrays is not None:
            try:
                return _decode_list(self.name, arrays)
            except (KeyError, TypeError, ValueError):
                pass
        ranked = compute()
        self._store.put_arrays(self._cfg_key, artifact, _encode_list(ranked))
        return ranked

    def _build_daily(self, day: int) -> RankedList:
        """The published list for ``day``, store-backed."""
        if not self.publishes_daily:
            # Monthly-cadence providers return the same list for any day.
            return self.monthly_list()
        return self._cached_list(
            f"providers/{self.name}/day-{day:03d}", lambda: self._inner.daily_list(day)
        )

    def _build_monthly(self) -> RankedList:
        """The whole-window list, store-backed."""
        return self._cached_list(
            f"providers/{self.name}/monthly", self._inner.monthly_list
        )


def wrap_providers(
    providers: Dict[str, TopListProvider], store: ArtifactStore, cfg_key: str
) -> Dict[str, TopListProvider]:
    """Wrap every provider in a :class:`StoredProvider` (order preserved)."""
    return {
        name: StoredProvider(provider, store, cfg_key)
        for name, provider in providers.items()
    }
