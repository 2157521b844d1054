"""Tests for Chrome telemetry."""

import numpy as np
import pytest

from repro.obs import Tracer, tracing
from repro.telemetry.chrome import TELEMETRY_METRICS, ChromeTelemetry
from repro.worldgen.countries import country_index


class TestPanel:
    def test_metrics_enumerated(self):
        assert TELEMETRY_METRICS == ("completed", "initiated", "time")

    def test_unknown_metric_raises(self, small_telemetry):
        with pytest.raises(KeyError):
            small_telemetry.metric_counts("dwell", 0, 0)

    def test_completed_below_initiated(self, small_telemetry):
        us = country_index("us")
        completed = small_telemetry.metric_counts("completed", us, 0, with_noise=False)
        initiated = small_telemetry.metric_counts("initiated", us, 0, with_noise=False)
        assert (completed <= initiated + 1e-9).all()

    def test_non_public_sites_invisible(self, small_world, small_telemetry):
        hidden = ~small_world.sites.robots_public
        counts = small_telemetry.metric_counts("completed", 0, 0, with_noise=False)
        assert (counts[hidden] == 0).all()

    def test_android_coverage_below_desktop_rate(self, small_world, small_telemetry):
        us = country_index("us")
        desktop = small_telemetry.metric_counts("completed", us, 0, with_noise=False)
        mobile = small_telemetry.metric_counts("completed", us, 1, with_noise=False)
        # Per observed pageload, mobile telemetry keeps a smaller fraction;
        # compare totals scaled by the platform traffic split.
        mobile_share = small_world.sites.mobile_share
        us_loads = sum(
            small_telemetry.traffic.day(d).country_pageloads[:, us]
            for d in range(small_world.config.n_days)
        )
        desktop_loads = (us_loads * (1.0 - mobile_share)).sum()
        mobile_loads = (us_loads * mobile_share).sum()
        assert desktop.sum() / desktop_loads > mobile.sum() / mobile_loads

    def test_ranking_excludes_unseen(self, small_telemetry):
        ranking = small_telemetry.ranking("completed", country_index("za"), 1)
        counts = small_telemetry.metric_counts("completed", country_index("za"), 1)
        assert (counts[ranking] >= 1).all()

    def test_ranking_sorted(self, small_telemetry):
        us = country_index("us")
        ranking = small_telemetry.ranking("completed", us, 0)
        counts = small_telemetry.metric_counts("completed", us, 0)
        assert (np.diff(counts[ranking]) <= 0).all()

    def test_time_metric_uses_dwell(self, small_world, small_telemetry):
        us = country_index("us")
        completed = small_telemetry.metric_counts("completed", us, 0, with_noise=False)
        time_on_site = small_telemetry.metric_counts("time", us, 0, with_noise=False)
        visible = completed > 0
        ratio = time_on_site[visible] / completed[visible]
        assert np.allclose(ratio, small_world.sites.dwell_seconds[visible])

    def test_global_completed_sums_countries(self, small_world, small_telemetry):
        total = small_telemetry.global_completed_by_site(with_noise=False)
        assert (total >= 0).all()
        # Popular public sites dominate.
        public_top = np.flatnonzero(small_world.sites.robots_public)[:20]
        tail = np.flatnonzero(small_world.sites.robots_public)[-20:]
        assert total[public_top].sum() > total[tail].sum() * 10

    def test_country_rankings_differ(self, small_telemetry):
        jp = small_telemetry.ranking("completed", country_index("jp"), 0)[:100]
        us = small_telemetry.ranking("completed", country_index("us"), 0)[:100]
        assert set(jp.tolist()) != set(us.tolist())

    def test_deterministic(self, small_world, small_traffic):
        a = ChromeTelemetry(small_world, small_traffic).metric_counts("completed", 0, 0)
        b = ChromeTelemetry(small_world, small_traffic).metric_counts("completed", 0, 0)
        assert np.array_equal(a, b)


class TestRankOnce:
    """Rankings and window totals are built once and shared read-only."""

    @pytest.fixture()
    def telemetry(self, small_world, small_traffic):
        return ChromeTelemetry(small_world, small_traffic)

    def test_ranking_read_only_and_shared(self, small_world, telemetry):
        ranking = telemetry.ranking("completed", 0, 0)
        whole = range(small_world.config.n_days)
        assert telemetry.ranking("completed", 0, 0, days=whole) is ranking
        with pytest.raises(ValueError):
            ranking[0] = ranking[1]

    def test_window_total_read_only_and_callers_get_copies(self, small_world, telemetry):
        total = telemetry._window_total(0, 1, tuple(range(small_world.config.n_days)))
        with pytest.raises(ValueError):
            total[0] = 1.0
        counts = telemetry.metric_counts("completed", 0, 1, with_noise=False)
        counts[:] = -1.0
        again = telemetry.metric_counts("completed", 0, 1, with_noise=False)
        assert np.array_equal(again, total)

    def test_each_key_built_once(self, telemetry):
        tracer = Tracer()
        with tracing(tracer):
            for _ in range(3):
                for metric in TELEMETRY_METRICS:
                    for platform in (0, 1):
                        telemetry.ranking(metric, 2, platform)
                telemetry.metric_counts("completed", 2, 0, days=range(3))
        counters = tracer.root.total_counters()
        assert counters["chrome.rankings_built"] == 6
        # (2, desktop) and (2, android) over the window, (2, desktop) over days 0-2.
        assert counters["chrome.window_totals_built"] == 3
