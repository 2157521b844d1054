"""Tests for the Cloudflare-subset evaluation methodology."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.evaluation import CloudflareEvaluator
from repro.providers.base import Granularity, RankedList, TopListProvider


class TestEvaluateDay:
    def test_perfect_list_scores_high(self, small_world, small_engine, small_evaluator):
        """A hypothetical list equal to Cloudflare's own ranking must score
        JJ = rs = 1 against that metric."""
        from repro.providers.base import Granularity, RankedList, TopListProvider

        class OracleProvider(TopListProvider):
            name = "oracle"
            granularity = Granularity.DOMAIN

            def _build_daily(self, day):
                ranking = small_engine.ranking(day, "all:requests")
                return RankedList("oracle", day, Granularity.DOMAIN, ranking)

        oracle = OracleProvider(small_world, small_engine.traffic)
        result = small_evaluator.evaluate_day(oracle, 0, "all:requests", 400)
        assert result.jaccard == pytest.approx(1.0)
        assert result.spearman == pytest.approx(1.0)

    def test_results_bounded(self, small_evaluator, small_providers):
        result = small_evaluator.evaluate_day(small_providers["alexa"], 0, "all:ips", 400)
        assert 0.0 <= result.jaccard <= 1.0
        assert -1.0 <= result.spearman <= 1.0
        assert result.intersection <= result.n

    def test_crux_spearman_is_nan(self, small_evaluator, small_providers):
        result = small_evaluator.evaluate_day(small_providers["crux"], 0, "all:requests", 400)
        assert np.isnan(result.spearman)
        assert result.jaccard > 0

    def test_cf_slice_only_cf_sites(self, small_world, small_evaluator, small_providers):
        normalized = small_evaluator.normalized(small_providers["alexa"], 0)
        cf_slice = small_evaluator.cloudflare_slice(normalized, 400)
        assert small_world.sites.cf_served[cf_slice].all()

    def test_month_averages_days(self, small_evaluator, small_providers):
        days = [0, 1, 2]
        month = small_evaluator.evaluate_month(
            small_providers["majestic"], "all:requests", 400, days=days
        )
        dailies = [
            small_evaluator.evaluate_day(small_providers["majestic"], d, "all:requests", 400)
            for d in days
        ]
        assert month.jaccard == pytest.approx(np.mean([d.jaccard for d in dailies]))
        assert month.days == 3

    def test_matrix_shape(self, small_evaluator, small_providers):
        matrix = small_evaluator.evaluate_matrix(
            {"alexa": small_providers["alexa"], "crux": small_providers["crux"]},
            ["all:requests", "all:ips"],
            300,
            days=[0],
        )
        assert set(matrix) == {"alexa", "crux"}
        assert set(matrix["alexa"]) == {"all:requests", "all:ips"}


class TestCoverage:
    def test_coverage_bounds(self, small_evaluator, small_providers):
        for provider in small_providers.values():
            value = small_evaluator.coverage(provider, 300)
            assert 0.0 <= value <= 1.0

    def test_secrank_coverage_lowest_at_full_list(self, small_evaluator, small_providers):
        full = small_evaluator.engine.world.config.list_length
        coverages = {
            name: small_evaluator.coverage(provider, full)
            for name, provider in small_providers.items()
        }
        assert coverages["secrank"] == min(coverages.values())

    def test_override_cf_flags(self, small_world, small_engine, small_providers):
        """An all-True override makes coverage 1 for domain lists."""
        everything = np.ones(small_world.n_sites, dtype=bool)
        evaluator = CloudflareEvaluator(small_world, small_engine, cf_served=everything)
        assert evaluator.coverage(small_providers["alexa"], 200) == 1.0


class TestNormalizedCache:
    @pytest.fixture()
    def fixed(self, small_world, small_traffic):
        """A provider class publishing a fixed list of domain rows."""

        class Fixed(TopListProvider):
            name = "fixed"

            def __init__(self, rows):
                super().__init__(small_world, small_traffic)
                self._rows = np.asarray(rows)

            def _build_daily(self, day):
                return RankedList("fixed", day, Granularity.DOMAIN, self._rows)

        return Fixed

    def test_freed_provider_never_answers_for_a_new_one(
        self, small_world, small_engine, fixed
    ):
        """A provider created where a freed one lived gets its own list,
        not the freed one's (domain row i is site i)."""
        evaluator = CloudflareEvaluator(small_world, small_engine)
        for _ in range(50):
            first = fixed(np.arange(0, 40))
            assert np.array_equal(evaluator.normalized(first, 0).sites, np.arange(0, 40))
            del first
            gc.collect()
            second = fixed(np.arange(40, 80))
            assert np.array_equal(evaluator.normalized(second, 0).sites, np.arange(40, 80))

    def test_cache_does_not_keep_providers_alive(self, small_world, small_engine, fixed):
        evaluator = CloudflareEvaluator(small_world, small_engine)
        provider = fixed(np.arange(10))
        normalized = evaluator.normalized(provider, 0)
        assert evaluator.normalized(provider, 0) is normalized
        ref = weakref.ref(provider)
        del provider
        gc.collect()
        assert ref() is None
