"""Cross-cutting property-based tests on core algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import assign_buckets
from repro.core.similarity import jaccard_index
from repro.providers.tranco import gap_dowdall_scores
from repro.providers.trexa import interleave_rankings


class TestDowdallProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=5, max_size=5),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50)
    def test_scores_nonnegative_and_bounded(self, rank_lists):
        vectors = [np.asarray(r, dtype=float) for r in rank_lists]
        scores = gap_dowdall_scores([vectors], 5)
        assert (scores >= 0).all()
        # Max possible: rank 1 in every vector.
        assert (scores <= len(vectors) + 1e-9).all()

    @given(st.integers(1, 50))
    @settings(max_examples=20)
    def test_better_ranks_score_higher(self, n):
        ranks = np.arange(1, n + 1, dtype=float)
        scores = gap_dowdall_scores([[ranks]], n)
        assert (np.diff(scores) <= 0).all()

    def test_absent_contributes_nothing(self):
        scores = gap_dowdall_scores([[np.array([0.0, 1.0])]], 2)
        assert scores[0] == 0.0
        assert scores[1] == 1.0

    def test_additive_over_lists(self):
        a = np.array([1.0, 2.0])
        b = np.array([2.0, 1.0])
        combined = gap_dowdall_scores([[a, b]], 2)
        separate = gap_dowdall_scores([[a]], 2) + gap_dowdall_scores([[b]], 2)
        assert np.allclose(combined, separate)


class TestInterleaveProperties:
    @given(
        st.lists(st.integers(0, 30), unique=True, max_size=15),
        st.lists(st.integers(0, 30), unique=True, max_size=15),
        st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_union_preserved_no_duplicates(self, primary, secondary, weight):
        merged = interleave_rankings(
            np.asarray(primary, dtype=np.int64),
            np.asarray(secondary, dtype=np.int64),
            weight,
        )
        assert set(merged.tolist()) == set(primary) | set(secondary)
        assert len(merged) == len(set(merged.tolist()))

    @given(
        st.lists(st.integers(0, 30), unique=True, min_size=1, max_size=15),
        st.integers(1, 4),
    )
    @settings(max_examples=30)
    def test_primary_order_preserved(self, primary, weight):
        merged = interleave_rankings(
            np.asarray(primary, dtype=np.int64), np.asarray([], dtype=np.int64), weight
        )
        assert merged.tolist() == primary

    def test_first_element_comes_from_primary(self):
        merged = interleave_rankings(np.array([9, 8]), np.array([1, 2]), 1)
        assert merged[0] == 9


class TestBucketProperties:
    @given(
        st.lists(st.integers(0, 99), unique=True, min_size=1, max_size=60),
        st.lists(st.integers(1, 80), unique=True, min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_partition_property(self, ranking, raw_bounds):
        bounds = sorted(raw_bounds)
        assignment = assign_buckets(ranking, n_sites=100, bounds=bounds)
        # Every ranked site within the last bound gets a real bucket.
        for position, site in enumerate(ranking):
            expected = int(np.searchsorted(bounds, position + 1, side="left"))
            if expected >= len(bounds):
                assert assignment.bucket[site] == assignment.absent_bucket
            else:
                assert assignment.bucket[site] == expected
        # Unranked sites are absent.
        unranked = set(range(100)) - set(ranking)
        for site in list(unranked)[:10]:
            assert assignment.bucket[site] == assignment.absent_bucket

    @given(st.lists(st.integers(0, 99), unique=True, min_size=2, max_size=60))
    @settings(max_examples=30)
    def test_buckets_monotone_in_rank(self, ranking):
        assignment = assign_buckets(ranking, n_sites=100, bounds=[5, 20, 60])
        buckets = [assignment.bucket[s] for s in ranking]
        real = [b for b in buckets if b < assignment.absent_bucket]
        assert real == sorted(real)


class TestJaccardAlgebra:
    @given(
        st.sets(st.integers(0, 40)),
        st.sets(st.integers(0, 40)),
        st.sets(st.integers(0, 40)),
    )
    @settings(max_examples=60)
    def test_distance_triangle_inequality(self, a, b, c):
        """1 - JJ is a metric; the triangle inequality must hold."""
        def distance(x, y):
            return 1.0 - jaccard_index(x, y)

        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12

    @given(st.sets(st.integers(0, 40), min_size=1))
    @settings(max_examples=20)
    def test_subset_formula(self, a):
        """JJ of a set with its half-subset is |half|/|a|."""
        half = set(list(a)[: len(a) // 2])
        if half:
            assert jaccard_index(a, half) == pytest.approx(len(half) / len(a))
