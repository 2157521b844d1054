"""The numpy rank fold, comparisons and list builders against the
per-element loops and full sorts they replaced.

Each reference below is the implementation the vectorized version
replaced, kept verbatim so the two can be compared exactly: the same
numbers must reach the same arithmetic, so ranks and rows compare with
``np.array_equal``, correlations with ``==`` and float vectors bit for
bit through ``.view(np.int64)``.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import _entry_host, deviation_by_magnitude
from repro.core.similarity import (
    SpearmanResult,
    average_ranks,
    jaccard_index,
    rank_correlation_of_lists,
    spearman,
)
from repro.providers.base import Granularity, RankedList
from repro.providers.tranco import _dowdall_scores, site_rank_vector
from repro.providers.trexa import interleave_rankings
from repro.providers.umbrella import _ENTERPRISE_FRACTION, UmbrellaProvider
from repro.telemetry.chrome import _ANDROID_COVERAGE, _PANEL_SAMPLING, ChromeTelemetry
from repro.weblib.psl import default_psl


def _average_ranks_loop(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _rank_correlation_loop(list_a, list_b):
    pos_a: Dict[int, int] = {item: i for i, item in enumerate(list_a)}
    shared_positions_a = []
    shared_positions_b = []
    for j, item in enumerate(list_b):
        i = pos_a.get(item)
        if i is not None:
            shared_positions_a.append(i)
            shared_positions_b.append(j)
    if len(shared_positions_a) < 2:
        return SpearmanResult(float("nan"), float("nan"))
    return spearman(shared_positions_a, shared_positions_b)


def _site_rank_vector_loop(world, name_rows):
    rows = np.asarray(name_rows, dtype=np.int64)
    sites = world.names.site[rows]
    ranks = np.zeros(world.n_sites, dtype=np.float64)
    position = np.arange(1, len(sites) + 1, dtype=np.float64)
    owned = sites >= 0
    site_ids = sites[owned]
    pos = position[owned]
    first = np.zeros(world.n_sites, dtype=bool)
    for site, rank in zip(site_ids, pos):
        if not first[site]:
            first[site] = True
            ranks[site] = rank
    return ranks


def _interleave_loop(primary, secondary, primary_per_secondary):
    if primary_per_secondary < 1:
        raise ValueError("primary_per_secondary must be >= 1")
    out = []
    seen = set()
    i = j = 0
    while i < len(primary) or j < len(secondary):
        for _ in range(primary_per_secondary):
            if i < len(primary):
                item = int(primary[i])
                i += 1
                if item not in seen:
                    seen.add(item)
                    out.append(item)
        if j < len(secondary):
            item = int(secondary[j])
            j += 1
            if item not in seen:
                seen.add(item)
                out.append(item)
    return np.asarray(out, dtype=primary.dtype if len(primary) else np.int64)


def _assemble_full_sort(scores, name_rows, limit, min_score=0.0):
    keep = scores > min_score
    scores = scores[keep]
    name_rows = name_rows[keep]
    order = np.argsort(-scores, kind="stable")
    return name_rows[order][:limit]


def _dowdall_masked(rank_vectors, n_sites):
    scores = np.zeros(n_sites)
    for ranks in rank_vectors:
        present = ranks > 0
        scores[present] += 1.0 / ranks[present]
    return scores


def _jaccard_sets(a, b):
    set_a = set(a.tolist() if isinstance(a, np.ndarray) else a)
    set_b = set(b.tolist() if isinstance(b, np.ndarray) else b)
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def _psl_deviation_fraction_loop(entries, psl):
    if not entries:
        return 0.0
    deviating = 0
    for entry in entries:
        host = _entry_host(entry)
        if host is None:
            deviating += 1
            continue
        try:
            if psl.deviates_from_registrable(host):
                deviating += 1
        except ValueError:
            deviating += 1
    return deviating / len(entries)


def _deviation_by_magnitude_loop(world, ranked, magnitudes):
    strings = ranked.strings(world)
    return {
        magnitude: _psl_deviation_fraction_loop(strings[:magnitude], default_psl())
        for magnitude in magnitudes
    }


def _unique_clients_loop(umbrella, day):
    """Umbrella's former per-day expression, over every FQDN row."""
    sites = umbrella.world.sites
    sessions = umbrella._site_query_sessions(day)
    clients = umbrella._clients_by_country[None, :]
    fqdn_sites = umbrella._fqdn_sites
    fqdn_sessions = np.zeros((len(umbrella._fqdn_rows), sessions.shape[1]))
    owned = fqdn_sites >= 0
    fqdn_sessions[owned] = sessions[fqdn_sites[owned]] * umbrella._fqdn_share[owned, None]
    block = np.zeros(len(umbrella._fqdn_rows))
    taste = np.ones(len(umbrella._fqdn_rows))
    block[owned] = sites.enterprise_block[fqdn_sites[owned]]
    taste[owned] = umbrella._taste[fqdn_sites[owned]]
    ent_factor = (
        umbrella._calendar.enterprise_desktop_factor(day) * (1.0 - block) * taste
    )
    home_factor = umbrella._calendar.home_desktop_factor(day)
    ent = _ENTERPRISE_FRACTION
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(clients > 0, fqdn_sessions / clients, 0.0)
    org_size = max(1.0, umbrella.world.config.umbrella_org_size)
    orgs = clients * ent / org_size
    org_unique = orgs * -np.expm1(-rate * org_size * ent_factor[:, None])
    home_unique = clients * (1.0 - ent) * -np.expm1(-rate * home_factor)
    unique = (org_unique + home_unique).sum(axis=1)
    total_clients = umbrella._clients_by_country.sum()
    infra = total_clients * np.minimum(1.0, umbrella._infra_weight * 30.0)
    return unique + infra


def _chrome_per_day_sum(telemetry, country, platform, days):
    """The former window sum: one cached per-day vector per (day, country,
    platform), each sliced from the full [sites x countries] platform
    product."""
    world = telemetry.world
    sites = world.sites
    visibility = (
        sites.robots_public.astype(np.float64)
        * (1.0 - sites.private_rate)
        * telemetry._panel_taste
    )
    total = np.zeros(world.n_sites)
    for day in days:
        share = sites.mobile_share if platform == 1 else 1.0 - sites.mobile_share
        platform_loads = telemetry.traffic.day(day).country_pageloads * share[:, None]
        loads = platform_loads[:, country]
        chrome_share = world.clients.chrome_share[country]
        coverage = _ANDROID_COVERAGE if platform == 1 else 1.0
        total += (
            loads
            * chrome_share
            * coverage
            * _PANEL_SAMPLING
            * visibility
            * sites.completion_rate
        )
    return total


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _same(x: float, y: float) -> bool:
    return x == y or (np.isnan(x) and np.isnan(y))


class TestAverageRanks:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000])
    @pytest.mark.parametrize("distinct", [1, 2, 5, 1000])
    def test_matches_loop_under_heavy_ties(self, n, distinct):
        values = np.random.default_rng(n * 7919 + distinct).integers(
            0, distinct, size=n
        ).astype(float)
        assert np.array_equal(average_ranks(values), _average_ranks_loop(values))

    def test_matches_loop_on_signed_zeros_and_nans(self):
        values = np.array([0.0, -0.0, np.nan, 1.0, np.nan, 0.0, -1.0, 1.0])
        assert np.array_equal(average_ranks(values), _average_ranks_loop(values))


class TestRankCorrelationOfLists:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_with_duplicates(self, seed):
        """Duplicates on both sides: a repeated id in ``list_a`` takes its
        last position, and every repeat in ``list_b`` pairs up."""
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(2, 400))
        list_a = rng.integers(0, universe, size=int(rng.integers(0, 300)))
        list_b = rng.integers(0, universe, size=int(rng.integers(0, 300)))
        ours = rank_correlation_of_lists(list_a, list_b)
        loop = _rank_correlation_loop(list_a.tolist(), list_b.tolist())
        assert _same(ours.rho, loop.rho)
        assert _same(ours.pvalue, loop.pvalue)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_on_unique_ranked_lists(self, seed):
        rng = np.random.default_rng(100 + seed)
        list_a = rng.permutation(5000)[:1000]
        list_b = rng.permutation(5000)[:1000]
        ours = rank_correlation_of_lists(list_a, list_b)
        loop = _rank_correlation_loop(list_a.tolist(), list_b.tolist())
        assert ours.rho == loop.rho and ours.pvalue == loop.pvalue

    @pytest.mark.parametrize(
        "list_a, list_b",
        [([], []), ([], [1, 2]), ([1, 2], []), ([7], [7]), ([7], [7, 7]),
         ([7, 7], [7]), ([1, 2, 3], [3, 2, 1]), ([4, 4, 5, 5], [5, 4, 5, 4])],
    )
    def test_matches_loop_on_small_inputs(self, list_a, list_b):
        ours = rank_correlation_of_lists(list_a, list_b)
        loop = _rank_correlation_loop(list_a, list_b)
        assert _same(ours.rho, loop.rho)
        assert _same(ours.pvalue, loop.pvalue)


class TestSiteRankVector:
    @pytest.mark.parametrize("length", [0, 1, 2, 40, 3000])
    def test_matches_loop(self, small_world, length):
        """Rows drawn with replacement from the whole name table: repeated
        rows, several names per site, and infrastructure names (no site)."""
        rng = np.random.default_rng(length)
        rows = rng.integers(0, len(small_world.names), size=length)
        assert np.array_equal(
            site_rank_vector(small_world, rows),
            _site_rank_vector_loop(small_world, rows),
        )

    def test_matches_loop_on_published_lists(self, small_world, small_providers):
        for name in ("umbrella", "crux", "alexa"):
            rows = small_providers[name].daily_list(0).name_rows
            assert np.array_equal(
                site_rank_vector(small_world, rows),
                _site_rank_vector_loop(small_world, rows),
            )


class TestInterleaveRankings:
    @settings(max_examples=300, deadline=None)
    @given(
        primary=st.lists(st.integers(0, 40), max_size=60),
        secondary=st.lists(st.integers(0, 40), max_size=60),
        weight=st.integers(1, 4),
        dtype=st.sampled_from([np.int64, np.int32]),
    )
    def test_matches_loop(self, primary, secondary, weight, dtype):
        """Duplicates within and across inputs, either input empty."""
        primary = np.asarray(primary, dtype=dtype)
        secondary = np.asarray(secondary, dtype=dtype)
        ours = interleave_rankings(primary, secondary, weight)
        loop = _interleave_loop(primary, secondary, weight)
        assert ours.dtype == loop.dtype
        assert np.array_equal(ours, loop)

    def test_matches_loop_on_published_lists(self, small_providers):
        for day in (0, 3):
            alexa = small_providers["alexa"].daily_list(day).name_rows
            tranco = small_providers["tranco"].daily_list(day).name_rows
            for weight in (1, 2, 4):
                ours = interleave_rankings(alexa, tranco, weight)
                loop = _interleave_loop(alexa, tranco, weight)
                assert ours.dtype == loop.dtype and np.array_equal(ours, loop)


class TestAssemble:
    """The partial sort against the full stable argsort it replaced."""

    @staticmethod
    def _both(provider, scores, min_score=0.0):
        rows = np.random.default_rng(len(scores)).permutation(len(scores))
        ours = provider._assemble(scores, rows, day=0, min_score=min_score)
        limit = provider.world.config.list_length
        return ours.name_rows, _assemble_full_sort(scores, rows, limit, min_score)

    @pytest.mark.parametrize("extra", [-300, -1, 0, 1, 2, 500, 4000])
    @pytest.mark.parametrize("distinct", [1, 2, 7, 10_000])
    def test_ties_across_the_cut(self, small_providers, extra, distinct):
        """Few distinct scores put long tie runs across the cut;
        ``distinct=1`` is all-equal; a negative ``extra`` leaves fewer
        candidates than ``list_length``."""
        alexa = small_providers["alexa"]
        n = alexa.world.config.list_length + extra
        scores = np.random.default_rng(n + distinct).integers(1, distinct + 1, size=n)
        ours, full = self._both(alexa, scores.astype(float))
        assert np.array_equal(ours, full)

    def test_tie_run_straddles_the_cut(self, small_providers):
        alexa = small_providers["alexa"]
        limit = alexa.world.config.list_length
        scores = np.full(3 * limit, 1.0)
        scores[: limit - 10] = 5.0  # the run of 1.0s starts 10 before the cut
        scores = scores[np.random.default_rng(0).permutation(len(scores))]
        ours, full = self._both(alexa, scores)
        assert np.array_equal(ours, full)

    @pytest.mark.parametrize("min_score", [0.0, 2.0, 5.0, -1.0])
    def test_min_score_filtering(self, small_providers, min_score):
        alexa = small_providers["alexa"]
        size = 4 * alexa.world.config.list_length
        scores = np.random.default_rng(11).integers(-2, 8, size=size).astype(float)
        ours, full = self._both(alexa, scores, min_score=min_score)
        assert np.array_equal(ours, full)

    def test_nothing_scores(self, small_providers):
        ours, full = self._both(small_providers["alexa"], np.zeros(50))
        assert len(ours) == 0 and np.array_equal(ours, full)

    def test_matches_on_published_umbrella_scores(self, small_world, small_traffic):
        umbrella = UmbrellaProvider(small_world, small_traffic)
        seen = {}
        assembled = umbrella._assemble

        def spy(scores, name_rows, day, min_score=0.0):
            seen[day] = (scores.copy(), name_rows.copy())
            return assembled(scores, name_rows, day=day, min_score=min_score)

        umbrella._assemble = spy
        limit = small_world.config.list_length
        for day in range(small_world.config.n_days):
            published = umbrella.daily_list(day).name_rows
            scores, rows = seen[day]
            assert np.array_equal(published, _assemble_full_sort(scores, rows, limit))


class TestDowdallSum:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_masked_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        vectors = []
        for _ in range(int(rng.integers(0, 40))):
            ranks = np.zeros(n)
            present = rng.random(n) < rng.random()
            ranks[present] = rng.permutation(int(present.sum())) + 1.0
            vectors.append(ranks)
        assert _same_bits(_dowdall_scores(vectors, n), _dowdall_masked(vectors, n))

    def test_matches_masked_sum_on_tranco_windows(self, small_world, small_providers):
        tranco = small_providers["tranco"]
        for day in range(small_world.config.n_days):
            vectors = [
                tranco._component_site_ranks(component, d)
                for component in tranco.components
                for d in tranco.window_days(day)
            ]
            n = small_world.n_sites
            assert _same_bits(_dowdall_scores(vectors, n), _dowdall_masked(vectors, n))


class TestJaccard:
    @pytest.mark.parametrize(
        "a, b",
        [([], []), ([], [3]), ([3], []), ([1, 2, 3], [4, 5]), ([1, 1, 2], [2, 2]),
         ([0], [0]), ([0, 5, 5, 9], [9, 0, 7]), ([7, 7, 7], [7])],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_matches_sets_on_small_inputs(self, a, b, dtype):
        arr_a, arr_b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
        expected = _jaccard_sets(a, b)
        assert jaccard_index(arr_a, arr_b) == expected
        assert jaccard_index(a, b) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sets_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(1, 5000))
        a = rng.integers(0, universe, size=int(rng.integers(0, 800)))
        b = rng.integers(0, universe, size=int(rng.integers(0, 800)))
        assert jaccard_index(a, b) == _jaccard_sets(a, b)

    def test_other_inputs_keep_the_set_path(self):
        """Negative, huge or float ids are not mask indices."""
        for a, b in (
            (np.array([-1, 2, 3]), np.array([3, -1])),
            (np.array([2**40, 5]), np.array([5, 2**40, 7])),
            (np.array([0.5, 1.0]), np.array([1.0, 2.0])),
        ):
            assert jaccard_index(a, b) == _jaccard_sets(a, b)


class TestDeviationByMagnitude:
    MAGNITUDES = (1, 30, 300, 3000, 6000, 100_000)

    def test_matches_per_prefix_fraction(self, small_world, small_providers):
        """Magnitudes past the list's end clip to its length."""
        for name in ("umbrella", "crux", "alexa", "tranco", "secrank"):
            ranked = small_providers[name].daily_list(2)
            assert deviation_by_magnitude(
                small_world, ranked, self.MAGNITUDES
            ) == _deviation_by_magnitude_loop(small_world, ranked, self.MAGNITUDES)

    def test_matches_on_rows_with_repeats_and_infrastructure(self, small_world):
        rows = np.random.default_rng(3).integers(0, len(small_world.names), size=2000)
        ranked = RankedList("x", 0, Granularity.FQDN, rows)
        assert deviation_by_magnitude(
            small_world, ranked, self.MAGNITUDES
        ) == _deviation_by_magnitude_loop(small_world, ranked, self.MAGNITUDES)

    def test_empty_list(self, small_world):
        ranked = RankedList("x", 0, Granularity.DOMAIN, np.array([], dtype=np.int64))
        assert deviation_by_magnitude(small_world, ranked, self.MAGNITUDES) == {
            m: 0.0 for m in self.MAGNITUDES
        }


class TestUmbrellaUniqueClients:
    def test_matches_former_expression(self, small_world, small_traffic):
        umbrella = UmbrellaProvider(small_world, small_traffic)
        for day in range(small_world.config.n_days):
            assert _same_bits(
                umbrella._unique_clients_per_fqdn(day), _unique_clients_loop(umbrella, day)
            )


class TestChromeWindowTotal:
    @pytest.mark.parametrize("country, platform", [(0, 0), (0, 1), (5, 1), (11, 0)])
    def test_matches_per_day_sum(self, small_world, small_traffic, country, platform):
        telemetry = ChromeTelemetry(small_world, small_traffic)
        for days in (range(small_world.config.n_days), range(2, 5), range(0)):
            assert _same_bits(
                telemetry._window_total(country, platform, tuple(days)),
                _chrome_per_day_sum(telemetry, country, platform, days),
            )
