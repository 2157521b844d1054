"""The numpy rank fold and comparisons against their former per-element
loops.

Each reference below is the loop implementation the vectorized version
replaced, kept verbatim so the two can be compared exactly: the same
numbers must reach the same arithmetic, so ranks compare with
``np.array_equal`` and correlations with ``==``.
"""

from typing import Dict

import numpy as np
import pytest

from repro.core.similarity import (
    SpearmanResult,
    average_ranks,
    rank_correlation_of_lists,
    spearman,
)
from repro.providers.tranco import site_rank_vector


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
