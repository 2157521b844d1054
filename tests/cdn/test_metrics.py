"""Tests for the CDN metric engine."""

import numpy as np
import pytest

from repro.cdn.filters import ALL_COMBINATIONS, FINAL_SEVEN
from repro.cdn.metrics import CdnMetricEngine
from repro.obs import Tracer, tracing


class TestExpectedCounts:
    @pytest.fixture(scope="class")
    def expected(self, small_engine):
        return small_engine.expected_day_counts(0)

    def test_all_combos_present(self, expected):
        assert set(expected) == set(ALL_COMBINATIONS)

    def test_filters_only_remove_requests(self, expected):
        base = expected["all:requests"]
        for key in ("html:requests", "200:requests", "referer:requests",
                    "browsers:requests", "root:requests"):
            assert (expected[key] <= base + 1e-6).all(), key

    def test_bookend_property(self, expected, small_traffic):
        # Root page loads <= pageloads <= all requests (Section 3.4).
        pageloads = small_traffic.day(0).pageloads
        assert (expected["root:requests"] <= expected["all:requests"] + 1e-6).all()
        assert (expected["all:requests"] >= pageloads - 1e-6).all()

    def test_tls_between_pageloads_and_requests(self, expected, small_traffic):
        pageloads = small_traffic.day(0).pageloads
        assert (expected["tls:requests"] >= pageloads * 0.99).all()

    def test_ip_ua_slightly_above_ips(self, expected):
        ips = expected["all:ips"]
        ip_ua = expected["all:ip_ua"]
        assert (ip_ua >= ips - 1e-9).all()
        assert (ip_ua <= ips * 1.15).all()

    def test_ips_below_requests(self, expected):
        assert (expected["all:ips"] <= expected["all:requests"] + 1e5).all()


class TestObservedCounts:
    def test_masked_to_cloudflare(self, small_world, small_engine):
        counts = small_engine.day_counts(0)
        for values in counts.values():
            assert (values[~small_world.sites.cf_served] == 0).all()

    def test_counts_are_integral_nonnegative(self, small_engine):
        counts = small_engine.day_counts(0, combos=("all:requests",))["all:requests"]
        assert (counts >= 0).all()
        assert np.allclose(counts, np.rint(counts))

    def test_day_cache_stable(self, small_engine):
        a = small_engine.day_counts(1, combos=("all:ips",))["all:ips"]
        b = small_engine.day_counts(1, combos=("all:ips",))["all:ips"]
        assert np.array_equal(a, b)

    def test_noise_free_mode(self, small_world, small_traffic):
        engine = CdnMetricEngine(small_world, small_traffic, apply_sampling_noise=False)
        counts = engine.day_counts(0, combos=("all:requests",))["all:requests"]
        expected = engine.expected_day_counts(0)["all:requests"]
        mask = small_world.sites.cf_served
        assert np.allclose(counts[mask], expected[mask])

    def test_days_differ(self, small_engine):
        a = small_engine.day_counts(0, combos=("all:requests",))["all:requests"]
        b = small_engine.day_counts(2, combos=("all:requests",))["all:requests"]
        assert not np.array_equal(a, b)


class TestRankings:
    def test_ranking_contains_only_cf_sites(self, small_world, small_engine):
        ranking = small_engine.ranking(0, "all:requests")
        assert small_world.sites.cf_served[ranking].all()
        assert len(ranking) == small_engine.n_cf_sites

    def test_ranking_is_sorted_by_counts(self, small_engine):
        ranking = small_engine.ranking(0, "all:requests")
        counts = small_engine.day_counts(0, combos=("all:requests",))["all:requests"]
        values = counts[ranking]
        assert (np.diff(values) <= 0).all()

    def test_top_prefix(self, small_engine):
        top = small_engine.top(0, "root:ips", 50)
        assert np.array_equal(top, small_engine.ranking(0, "root:ips")[:50])

    def test_ranking_roughly_tracks_popularity(self, small_engine):
        # The most popular CF sites should mostly rank well.
        ranking = small_engine.ranking(0, "all:ips")
        top_true = small_engine.cf_sites[:50]
        positions = {site: i for i, site in enumerate(ranking)}
        mean_pos = np.mean([positions[s] for s in top_true])
        assert mean_pos < len(ranking) * 0.2

    def test_monthly_ranking(self, small_engine):
        monthly = small_engine.monthly_ranking("all:requests")
        assert len(monthly) == small_engine.n_cf_sites

    def test_month_average(self, small_world, small_engine):
        averages = small_engine.month_average_counts(combos=FINAL_SEVEN)
        daily = [
            small_engine.day_counts(d, combos=("all:requests",))["all:requests"]
            for d in range(small_world.config.n_days)
        ]
        assert np.allclose(averages["all:requests"], np.mean(daily, axis=0))

    def test_drop_cache(self, small_engine):
        small_engine.day_counts(3)
        small_engine.drop_cache([3])
        # Re-computation reproduces identical values (determinism).
        a = small_engine.day_counts(3, combos=("all:requests",))["all:requests"]
        small_engine.drop_cache()
        b = small_engine.day_counts(3, combos=("all:requests",))["all:requests"]
        assert np.array_equal(a, b)


class TestRankingMemo:
    """Each (day, combo) ranking is built once and shared read-only."""

    @pytest.fixture()
    def engine(self, small_world, small_traffic):
        return CdnMetricEngine(small_world, small_traffic)

    def test_read_only_and_shared(self, engine):
        ranking = engine.ranking(0, "all:requests")
        assert engine.ranking(0, "all:requests") is ranking
        with pytest.raises(ValueError):
            ranking[0] = ranking[1]
        with pytest.raises(ValueError):
            engine.top(0, "all:requests", 5)[0] = 0

    def test_each_key_built_once(self, engine):
        tracer = Tracer()
        with tracing(tracer):
            for _ in range(3):
                for day in (0, 1):
                    for combo in ("all:requests", "root:ips"):
                        engine.ranking(day, combo)
                        engine.top(day, combo, 10)
        assert tracer.root.total_counters()["cdn.rankings_built"] == 4

    def test_drop_cache_evicts_rankings(self, engine):
        day0, day1 = engine.ranking(0, "all:ips"), engine.ranking(1, "all:ips")
        engine.drop_cache([0])
        rebuilt = engine.ranking(0, "all:ips")
        assert rebuilt is not day0 and np.array_equal(rebuilt, day0)
        assert engine.ranking(1, "all:ips") is day1
        engine.drop_cache()
        assert engine.ranking(1, "all:ips") is not day1
