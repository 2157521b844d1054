"""Each (provider, day) list is built once per process and shared.

Also pins Umbrella's alphabetical tie-break to the ``lexsort`` over name
strings it replaced: a stable score sort over rows pre-ordered by name
must give exactly that order.
"""

from collections import Counter

import numpy as np
import pytest

from repro.providers.registry import build_providers
from repro.providers.umbrella import UmbrellaProvider
from repro.store import ArtifactStore, config_key, wrap_providers
from repro.worldgen.nametable import NameKind


def _lexsort_list(world, scores, rows):
    """The former tie-break: sort by score descending, then name."""
    keep = scores > 0.0
    scores, rows = scores[keep], rows[keep]
    alpha = np.array([world.names.strings[int(r)] for r in rows])
    order = np.lexsort((alpha, -scores))
    return rows[order][: world.config.list_length]


class TestUmbrellaTieBreak:
    def test_every_day_matches_lexsort(self, small_world, small_traffic):
        umbrella = UmbrellaProvider(small_world, small_traffic)
        assembled = umbrella._assemble
        seen = {}

        def spy(scores, name_rows, day, min_score=0.0):
            seen[day] = (scores.copy(), name_rows.copy())
            return assembled(scores, name_rows, day=day, min_score=min_score)

        umbrella._assemble = spy
        fqdn_rows = small_world.names.rows_of_kind(NameKind.FQDN)
        for day in range(small_world.config.n_days):
            published = umbrella.daily_list(day).name_rows
            # Recover each FQDN row's quantized score, in name-table order.
            scores, rows = seen[day]
            by_row = np.zeros(len(small_world.names))
            by_row[rows] = scores
            expected = _lexsort_list(small_world, by_row[fqdn_rows], fqdn_rows)
            assert np.array_equal(published, expected)

    def test_tied_scores_and_duplicate_names(self, small_world, small_providers):
        """Synthetic rows: few distinct scores (zeros excluded), names
        drawn from a tiny alphabet so many rows share one string."""
        rng = np.random.default_rng(5)
        n = 600
        rows = rng.permutation(n)
        scores = rng.integers(0, 4, size=n).astype(float)
        names = np.array(["b", "a", "ab", "", "ba"])[rng.integers(0, 5, size=n)]

        keep = scores > 0.0
        expected = rows[keep][np.lexsort((names[keep], -scores[keep]))]
        alpha = np.argsort(names, kind="stable")
        ranked = small_providers["umbrella"]._assemble(
            scores[alpha], rows[alpha], day=0, min_score=0.0
        )
        limit = small_world.config.list_length
        assert np.array_equal(ranked.name_rows, expected[:limit])


class TestBuildOnce:
    @pytest.fixture()
    def stack(self, small_world, small_traffic, small_telemetry, tmp_path):
        """Fresh providers, store-wrapped, with every builder counted."""
        inner = build_providers(small_world, small_traffic, small_telemetry)
        stored = wrap_providers(
            inner, ArtifactStore(tmp_path / "store"), config_key(small_world.config)
        )
        builds = {}
        for tier, providers in (("inner", inner), ("stored", stored)):
            for name, provider in providers.items():
                log = builds[(tier, name)] = []

                def counted(day, _build=provider._build_daily, _log=log):
                    _log.append(day)
                    return _build(day)

                provider._build_daily = counted
        return inner, stored, builds

    def test_each_day_built_once(self, small_world, stack):
        inner, stored, builds = stack
        days = [0, 3, 5, 3, 0]
        fetched = ("umbrella", "alexa", "tranco", "trexa")
        for _ in range(2):
            for day in days:
                for name in fetched:
                    stored[name].daily_list(day)
            for name in fetched:
                stored[name].monthly_list()

        for key, log in builds.items():
            assert all(count == 1 for count in Counter(log).values()), key
        # Tranco's window pulls every component day up to the last one
        # asked for; the monthly list adds the middle day.
        middle = small_world.config.n_days // 2
        window = set(range(max(days) + 1))
        for name in ("umbrella", "alexa", "majestic"):
            assert set(builds[("inner", name)]) == window
        for name in ("tranco", "trexa"):
            assert set(builds[("inner", name)]) == set(days) | {middle}
            assert set(builds[("stored", name)]) == set(days)
        # The wrapper persists the component's own build, not a copy.
        assert stored["alexa"].daily_list(3) is inner["alexa"].daily_list(3)

    def test_memoized_rows_are_read_only(self, stack):
        inner, stored, _ = stack
        for ranked in (
            stored["umbrella"].daily_list(1),
            inner["tranco"].daily_list(1),
            stored["trexa"].monthly_list(),
            stored["crux"].daily_list(2),
        ):
            with pytest.raises(ValueError):
                ranked.name_rows[0] = 0
