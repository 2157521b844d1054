"""Hydration round-trips: world, metrics, and provider artifacts, and
traffic recomputed over a hydrated world."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.filters import ALL_COMBINATIONS
from repro.cdn.metrics import CdnMetricEngine
from repro.providers.registry import build_providers
from repro.store import (
    ArtifactStore,
    StoredProvider,
    attach_engine_store,
    config_key,
    load_or_build_world,
    wrap_providers,
)
from repro.telemetry.chrome import ChromeTelemetry
from repro.traffic.fastpath import DayTraffic, TrafficModel
from repro.worldgen.world import build_world
from tests.conftest import TINY_CONFIG

CFG_KEY = config_key(TINY_CONFIG)


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


class TestWorldArrays:
    def test_round_trip_reproduces_universe(self, tiny_world):
        from repro.worldgen.world import World

        clone = World.from_arrays(TINY_CONFIG, tiny_world.to_arrays())
        np.testing.assert_array_equal(clone.sites.weight, tiny_world.sites.weight)
        np.testing.assert_array_equal(clone.names.site, tiny_world.names.site)
        assert clone.names.strings == tiny_world.names.strings

    def test_round_trip_reproduces_rng_streams(self, tiny_world):
        from repro.worldgen.world import World

        clone = World.from_arrays(TINY_CONFIG, tiny_world.to_arrays())
        np.testing.assert_array_equal(
            clone.rng("cdn").random(16), tiny_world.rng("cdn").random(16)
        )
        np.testing.assert_array_equal(
            clone.day_rng("alexa", 3).random(16), tiny_world.day_rng("alexa", 3).random(16)
        )

    def test_load_or_build_persists_then_hydrates(self, store):
        built = load_or_build_world(store, CFG_KEY, TINY_CONFIG)
        assert store.stats.puts == {"world": 1}
        hydrated = load_or_build_world(store, CFG_KEY, TINY_CONFIG)
        assert store.stats.hits == {"world": 1}
        np.testing.assert_array_equal(hydrated.sites.weight, built.sites.weight)

    def test_incompatible_stored_world_rebuilt(self, store):
        store.put_arrays(CFG_KEY, "world/arrays", {"sites__bogus": np.zeros(3)})
        world = load_or_build_world(store, CFG_KEY, TINY_CONFIG)
        assert world.n_sites == TINY_CONFIG.n_sites
        # The rebuild overwrote the unusable entry.
        assert store.stats.puts == {"world": 2}


class TestTrafficOverHydratedWorld:
    def test_every_day_bit_identical_to_fresh_world(self, store):
        # Traffic is never stored: it is recomputed from the world, and a
        # store-hydrated world must feed it the same bits a fresh one does.
        load_or_build_world(store, CFG_KEY, TINY_CONFIG)
        hydrated = load_or_build_world(store, CFG_KEY, TINY_CONFIG)
        assert store.stats.hits == {"world": 1}
        fresh = TrafficModel(build_world(TINY_CONFIG))
        warm = TrafficModel(hydrated)
        for attr in ("pages_per_visit", "ip_ua_spread"):
            assert getattr(warm, attr).tobytes() == getattr(fresh, attr).tobytes()
        for day in range(TINY_CONFIG.n_days):
            expected, actual = fresh.day(day), warm.day(day)
            for slot in DayTraffic.__slots__:
                assert getattr(actual, slot).tobytes() == getattr(expected, slot).tobytes(), (
                    f"day {day} {slot}"
                )
        assert "traffic" not in store.stats.puts


class TestEngineHooks:
    def test_day_counts_round_trip(self, tiny_world, store):
        traffic = TrafficModel(tiny_world)
        cold = CdnMetricEngine(tiny_world, traffic)
        attach_engine_store(cold, store, CFG_KEY)
        original = cold.day_counts(1, combos=ALL_COMBINATIONS)
        assert store.stats.puts == {"metrics": 1}

        warm = CdnMetricEngine(tiny_world, traffic)
        attach_engine_store(warm, store, CFG_KEY)
        loaded = warm.day_counts(1, combos=ALL_COMBINATIONS)
        assert store.stats.hits == {"metrics": 1}
        for key in ALL_COMBINATIONS:
            np.testing.assert_array_equal(loaded[key], original[key])

    def test_partial_entry_treated_as_miss(self, tiny_world, store):
        some_combo = ALL_COMBINATIONS[0]
        store.put_arrays(CFG_KEY, "metrics/day-001", {some_combo: np.zeros(5)})
        traffic = TrafficModel(tiny_world)
        engine = CdnMetricEngine(tiny_world, traffic)
        attach_engine_store(engine, store, CFG_KEY)
        counts = engine.day_counts(1)
        assert all(len(array) == tiny_world.n_sites for array in counts.values())


class TestStoredProviders:
    def _fresh_providers(self, store):
        world = build_world(TINY_CONFIG)
        traffic = TrafficModel(world)
        telemetry = ChromeTelemetry(world, traffic)
        return wrap_providers(build_providers(world, traffic, telemetry), store, CFG_KEY)

    def test_wrapping_preserves_order_and_metadata(self, store):
        providers = self._fresh_providers(store)
        world = build_world(TINY_CONFIG)
        traffic = TrafficModel(world)
        bare = build_providers(world, traffic, ChromeTelemetry(world, traffic))
        assert list(providers) == list(bare)
        for name, provider in providers.items():
            assert isinstance(provider, StoredProvider)
            assert provider.name == bare[name].name
            assert provider.publishes_daily == bare[name].publishes_daily

    def test_lists_identical_cold_and_warm(self, store):
        cold = self._fresh_providers(store)
        cold_list = cold["alexa"].daily_list(2)
        assert store.stats.puts.get("providers", 0) >= 1

        warm = self._fresh_providers(store)
        warm_list = warm["alexa"].daily_list(2)
        assert store.stats.hits.get("providers", 0) >= 1
        np.testing.assert_array_equal(warm_list.name_rows, cold_list.name_rows)
        assert warm_list.day == cold_list.day
        assert warm_list.granularity == cold_list.granularity

    def test_monthly_list_round_trips(self, store):
        cold = self._fresh_providers(store)
        cold_list = cold["majestic"].monthly_list()
        warm = self._fresh_providers(store)
        warm_list = warm["majestic"].monthly_list()
        np.testing.assert_array_equal(warm_list.name_rows, cold_list.name_rows)
        if cold_list.bucket_bounds is not None:
            np.testing.assert_array_equal(warm_list.bucket_bounds, cold_list.bucket_bounds)

    def test_monthly_provider_daily_list_delegates(self, store):
        providers = self._fresh_providers(store)
        crux = providers["crux"]
        assert not crux.publishes_daily
        daily = crux.daily_list(3)
        monthly = crux.monthly_list()
        np.testing.assert_array_equal(daily.name_rows, monthly.name_rows)
