"""Per-provider mechanism tests: each list's documented bias must show."""

import numpy as np
import pytest

from repro.core.normalize import normalize_list
from repro.weblib.categories import category_index
from repro.worldgen.countries import country_index
from repro.worldgen.nametable import NameKind


def _top_sites(world, providers, name, k=500, day=0):
    normalized = normalize_list(world, providers[name].daily_list(day))
    return normalized.sites[:k]


class TestAlexa:
    def test_excludes_adult(self, small_world, small_providers):
        """Private-mode browsing hides adult sites from the extension panel."""
        sites = small_world.sites
        adult = category_index("adult")
        top = _top_sites(small_world, small_providers, "alexa", k=800)
        adult_rate_list = (sites.category[top] == adult).mean()
        adult_rate_truth = (sites.category[:800] == adult).mean()
        assert adult_rate_list < adult_rate_truth * 0.6

    def test_panel_boost_improves_accuracy(self):
        """The late-window panel enlargement makes the deep list richer."""
        from repro.providers.alexa import AlexaProvider
        from repro.traffic.fastpath import TrafficModel
        from repro.worldgen.config import WorldConfig
        from repro.worldgen.world import build_world

        config = WorldConfig(
            n_sites=800, n_days=8, seed=5, alexa_change_day=4,
            alexa_change_boost=10.0, alexa_daily_events=300.0,
        )
        world = build_world(config)
        alexa = AlexaProvider(world, TrafficModel(world))
        before = len(alexa.daily_list(3))
        after = len(alexa.daily_list(7))
        assert after > before  # bigger panel observes more of the tail

    def test_tail_incomplete(self, small_world, small_providers):
        """A small panel cannot rank the whole universe."""
        ranked = small_providers["alexa"].daily_list(0)
        assert len(ranked) < small_world.config.list_length * 1.0 + 1


class TestUmbrella:
    def test_fqdn_granularity(self, small_world, small_providers):
        ranked = small_providers["umbrella"].daily_list(0)
        kinds = small_world.names.kind[ranked.name_rows]
        assert (kinds == NameKind.FQDN).all()

    def test_infra_names_at_head(self, small_world, small_providers):
        head = small_providers["umbrella"].daily_list(0).strings(small_world, 10)
        assert "com" in head

    def test_blocked_categories_suppressed(self, small_world, small_providers):
        sites = small_world.sites
        adult = category_index("adult")
        top = _top_sites(small_world, small_providers, "umbrella", k=800)
        adult_rate_list = (sites.category[top] == adult).mean()
        adult_rate_truth = (sites.category[:800] == adult).mean()
        assert adult_rate_list < adult_rate_truth * 0.7

    def test_alphabetical_tie_runs_in_tail(self, small_world, small_providers):
        """Quantized scores create alphabetically sorted runs."""
        strings = small_providers["umbrella"].daily_list(0).strings(small_world)
        tail = strings[-200:]
        sorted_pairs = sum(1 for a, b in zip(tail, tail[1:]) if a <= b)
        # Far more ascending pairs than the ~50% random expectation.
        assert sorted_pairs > 0.7 * (len(tail) - 1)


class TestMajestic:
    def test_rank_tracks_backlinks(self, small_world, small_providers):
        ranked = small_providers["majestic"].daily_list(0)
        sites = small_world.names.site[ranked.name_rows[:100]]
        top_links = small_world.sites.backlinks[sites].mean()
        assert top_links > small_world.sites.backlinks.mean() * 3

    def test_stable_day_to_day(self, small_world, small_providers):
        a = set(small_providers["majestic"].daily_list(0).name_rows[:300].tolist())
        b = set(small_providers["majestic"].daily_list(1).name_rows[:300].tolist())
        overlap = len(a & b) / len(a)
        assert overlap > 0.9


class TestSecrank:
    def test_china_dominates(self, small_world, small_providers):
        sites = small_world.sites
        cn = country_index("cn")
        top = _top_sites(small_world, small_providers, "secrank", k=500)
        cn_rate_list = (sites.home_country[top] == cn).mean()
        cn_rate_truth = (sites.home_country[:500] == cn).mean()
        assert cn_rate_list > cn_rate_truth * 1.5

    def test_smoothing_stabilizes(self, small_providers):
        a = set(small_providers["secrank"].daily_list(2).name_rows[:300].tolist())
        b = set(small_providers["secrank"].daily_list(3).name_rows[:300].tolist())
        assert len(a & b) / len(a) > 0.85


class TestTranco:
    def test_component_union(self, small_world, small_providers):
        """Tranco only contains domains seen by some component."""
        tranco_sites = set(
            small_world.names.site[small_providers["tranco"].daily_list(3).name_rows].tolist()
        )
        component_sites = set()
        for component in small_providers["tranco"].components:
            for day in range(4):
                ranked = component.daily_list(day)
                sites = small_world.names.site[ranked.name_rows]
                component_sites.update(sites[sites >= 0].tolist())
        assert tranco_sites <= component_sites

    def test_dowdall_scores(self):
        from repro.providers.tranco import gap_dowdall_scores

        ranks_a = np.array([1.0, 2.0, 0.0])  # site 2 absent
        ranks_b = np.array([2.0, 1.0, 3.0])
        scores = gap_dowdall_scores([[ranks_a, ranks_b]], 3)
        assert scores[0] == pytest.approx(1.0 + 0.5)
        assert scores[1] == pytest.approx(0.5 + 1.0)
        assert scores[2] == pytest.approx(1.0 / 3.0)


class TestTrexa:
    def test_interleave_dedupes(self):
        from repro.providers.trexa import interleave_rankings

        primary = np.array([1, 2, 3, 4])
        secondary = np.array([3, 9, 1, 8])
        merged = interleave_rankings(primary, secondary, 2)
        assert merged.tolist() == [1, 2, 3, 4, 9, 8]

    def test_interleave_weight_validated(self):
        from repro.providers.trexa import interleave_rankings

        with pytest.raises(ValueError):
            interleave_rankings(np.array([1]), np.array([2]), 0)

    def test_alexa_weighted(self, small_world, small_providers):
        """Trexa's head tracks Alexa more than Tranco."""
        trexa = small_providers["trexa"].daily_list(0).name_rows[:300]
        alexa = small_providers["alexa"].daily_list(0).name_rows[:300]
        tranco = small_providers["tranco"].daily_list(0).name_rows[:300]
        alexa_overlap = len(set(trexa.tolist()) & set(alexa.tolist()))
        tranco_overlap = len(set(trexa.tolist()) & set(tranco.tolist()))
        assert alexa_overlap >= tranco_overlap


class TestCrux:
    def test_origin_granularity_and_buckets(self, small_world, small_providers):
        ranked = small_providers["crux"].monthly_list()
        assert ranked.is_bucketed
        kinds = small_world.names.kind[ranked.name_rows]
        assert (kinds == NameKind.ORIGIN).all()
        assert ranked.bucket_bounds[-1] == len(ranked)

    def test_fixed_for_the_month(self, small_providers):
        a = small_providers["crux"].daily_list(0)
        b = small_providers["crux"].daily_list(5)
        assert a is b

    def test_privacy_threshold_drops_tail(self, small_world, small_providers):
        """Origins with too few panel visitors must not be published."""
        ranked = small_providers["crux"].monthly_list()
        origin_rows = small_world.names.rows_of_kind(NameKind.ORIGIN)
        assert len(ranked) < len(origin_rows)

    def test_country_lists(self, small_world, small_providers):
        """Per-country CrUX tables exist, differ, and stay bucketed."""
        crux = small_providers["crux"]
        us = crux.country_list("us")
        jp = crux.country_list("jp")
        assert us.is_bucketed and jp.is_bucketed
        assert len(us) > 50 and len(jp) > 50
        assert set(us.name_rows[:100].tolist()) != set(jp.name_rows[:100].tolist())
        assert crux.country_list("us") is us  # cached

    def test_country_list_reflects_local_web(self, small_world, small_providers):
        """Japan's table is dominated by sites with heavy JP traffic."""
        from repro.worldgen.countries import country_index

        crux = small_providers["crux"]
        jp = country_index("jp")
        rows = crux.country_list("jp").name_rows[:80]
        sites = small_world.names.site[rows]
        jp_share = small_world.sites.country_share[sites, jp].mean()
        global_share = small_world.sites.country_share[:, jp].mean()
        assert jp_share > global_share * 2

    def test_unknown_country_raises(self, small_providers):
        with pytest.raises(KeyError):
            small_providers["crux"].country_list("atlantis")

    def test_includes_adult_unlike_alexa(self, small_world, small_providers):
        """CrUX is the only list without the adult-exclusion bias."""
        sites = small_world.sites
        adult = category_index("adult")
        crux_top = _top_sites(small_world, small_providers, "crux", k=800)
        alexa_top = _top_sites(small_world, small_providers, "alexa", k=800)
        crux_rate = (sites.category[crux_top] == adult).mean()
        alexa_rate = (sites.category[alexa_top] == adult).mean()
        assert crux_rate > alexa_rate
