"""Tests for the vectorized traffic model."""

import numpy as np
import pytest

from repro.traffic.fastpath import TrafficModel
from repro.weblib.categories import category_index


class TestDayTensors:
    def test_pageloads_conserve_volume(self, small_world, small_traffic):
        tensors = small_traffic.day(0)
        assert tensors.pageloads.sum() == pytest.approx(
            small_world.config.daily_pageloads, rel=1e-9
        )

    def test_country_split_consistent(self, small_traffic):
        tensors = small_traffic.day(0)
        assert np.allclose(tensors.country_pageloads.sum(axis=1), tensors.pageloads)

    def test_sessions_below_pageloads(self, small_traffic):
        tensors = small_traffic.day(0)
        assert (tensors.sessions.sum(axis=1) <= tensors.pageloads + 1e-9).all()

    def test_unique_visitors_bounded(self, small_world, small_traffic):
        tensors = small_traffic.day(0)
        country_clients = small_world.clients.country_clients()
        assert (tensors.unique_visitors <= country_clients[None, :] + 1e-6).all()
        assert (tensors.unique_visitors <= tensors.sessions + 1e-6).all()
        assert (tensors.unique_visitors >= 0).all()

    def test_caching(self, small_traffic):
        assert small_traffic.day(1) is small_traffic.day(1)

    def test_out_of_window_raises(self, small_world, small_traffic):
        with pytest.raises(ValueError):
            small_traffic.day(small_world.config.n_days)
        with pytest.raises(ValueError):
            small_traffic.day(-1)

    def test_deterministic_across_instances(self, small_world):
        a = TrafficModel(small_world).day(2).pageloads
        b = TrafficModel(small_world).day(2).pageloads
        assert np.array_equal(a, b)


class TestTemporalShape:
    def test_work_sites_dip_on_weekends(self, small_world, small_traffic):
        config = small_world.config
        weekdays = [d for d in range(config.n_days) if not config.is_weekend(d)]
        weekends = [d for d in range(config.n_days) if config.is_weekend(d)]
        assert weekends, "test window must include a weekend"
        sites = small_world.sites
        business = sites.work_affinity > 0.75
        leisure = sites.work_affinity < 0.25

        def mean_share(days, mask):
            total = np.zeros(small_world.n_sites)
            for day in days:
                loads = small_traffic.day(day).pageloads
                total += loads / loads.sum()
            return total[mask].sum() / len(days)

        assert mean_share(weekdays, business) > mean_share(weekends, business)
        assert mean_share(weekdays, leisure) < mean_share(weekends, leisure)

    def test_news_event_boost_applies(self):
        from repro.worldgen.config import WorldConfig
        from repro.worldgen.world import build_world

        config = WorldConfig(
            n_sites=800, n_days=6, seed=3, news_event_day=3, news_event_boost=2.0
        )
        world = build_world(config)
        traffic = TrafficModel(world)
        news = world.sites.category == category_index("news")
        before = traffic.day(config.news_event_day - 1).pageloads
        after = traffic.day(config.news_event_day).pageloads
        share_before = before[news].sum() / before.sum()
        share_after = after[news].sum() / after.sum()
        assert share_after > share_before * 1.3

    def test_platform_split(self, small_world, small_traffic):
        """Each site's desktop/mobile split is a share in [0, 1], so the
        two platforms' pageloads add back up to the country totals."""
        mobile_share = small_world.sites.mobile_share
        assert ((mobile_share >= 0.0) & (mobile_share <= 1.0)).all()
        total = small_traffic.day(0).country_pageloads
        desktop = total * (1.0 - mobile_share)[:, None]
        mobile = total * mobile_share[:, None]
        assert np.allclose(desktop + mobile, total)

    def test_monthly_sum(self, small_world, small_traffic):
        total = small_traffic.monthly_pageloads()
        assert total.sum() == pytest.approx(
            small_world.config.daily_pageloads * small_world.config.n_days, rel=0.02
        )
