"""A tiny world with a short Tranco window, so the oracle checks run
over several full window rolls in test time."""

from __future__ import annotations

import pytest

from repro.providers.registry import build_providers
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import build_world

ROLLING_CONFIG = WorldConfig(n_sites=400, n_days=6, seed=11, tranco_window=3)


@pytest.fixture(scope="session")
def rolling_world():
    return build_world(ROLLING_CONFIG)


@pytest.fixture(scope="session")
def rolling_tranco(rolling_world):
    return build_providers(rolling_world)["tranco"]
