"""Tranco's Dowdall sum against the independent oracle (``repro.qa.dowdall``).

The property test drives ``gap_dowdall_scores`` over random component
rows (infrastructure rows, duplicate sites, holes) and requires the
oracle's ranked rows and exact score bits; the world tests hold every
clean ``daily_list`` of the rolling world to the same bar.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.qa.dowdall
from repro.providers.tranco import gap_dowdall_scores, site_rank_vector
from repro.qa.dowdall import dowdall_oracle, matches


def _oracle_for(world, published, window):
    return dowdall_oracle(published, world.names.site.tolist(), window,
                          world.config.list_length)


class TestOracleDefinition:
    def test_hand_computed_window(self):
        # Row 3 is infrastructure; rows 1 and 4 both name site 1.
        site_of_row = [0, 1, 2, -1, 1, 3]
        published = [
            [[3, 0, 4, 1], [1, 2]],   # {0: 2, 1: 3}, then {1: 1, 2: 2}
            [[2, 5], None],           # {2: 1, 3: 2}, then a hole
        ]
        day0, day1 = dowdall_oracle(published, site_of_row, 2, 3)
        assert day0.scores == {0: 0.5, 1: 1.0 / 3, 2: 1.0, 3: 0.5}
        assert day0.rows == [2, 0, 3]  # the 0.5 tie goes to the lower id
        # Day 1 has a hole: component 0 sums alone, component 1 holds one
        # of two days and is scaled by 2.
        assert day1.scores == {0: 0.5, 1: 1.0 / 3 + 1.0, 2: 0.5 + 2.0, 3: 1.0}
        assert day1.rows == [2, 1, 3]

    def test_window_clips_at_day_zero_and_slides(self):
        published = [[[0], [1], [2]]]
        days = dowdall_oracle(published, [0, 1, 2], 2, 3)
        assert [day.scores for day in days] == [
            {0: 1.0}, {0: 1.0, 1: 1.0}, {1: 1.0, 2: 1.0},
        ]

    @pytest.mark.parametrize("bad_window", [0, -1])
    def test_rejects_bad_window(self, bad_window):
        with pytest.raises(ValueError, match="window"):
            dowdall_oracle([[[0]]], [0], bad_window, 1)

    def test_rejects_ragged_or_empty_input(self):
        with pytest.raises(ValueError):
            dowdall_oracle([], [0], 1, 1)
        with pytest.raises(ValueError):
            dowdall_oracle([[[0]], [[0], [0]]], [0], 1, 1)

    def test_imports_nothing_from_providers_or_ranking(self):
        tree = ast.parse(Path(repro.qa.dowdall.__file__).read_text())
        package = ["repro", "qa"]
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # Resolve relative imports against repro.qa.
                base = package[:len(package) + 1 - node.level] if node.level else []
                imported.add(".".join(base + (node.module or "").split(".")))
        assert not {
            name for name in imported
            if name.split(".")[:2] in (["repro", "providers"],
                                       ["repro", "ranking"])
        }


class TestGapDowdallAgainstOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_components=st.integers(min_value=1, max_value=3),
        n_days=st.integers(min_value=1, max_value=10),
        window=st.integers(min_value=1, max_value=6),
        hole_rate=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_and_rows_match_oracle(
        self, rolling_world, rolling_tranco, seed, n_components, n_days,
        window, hole_rate,
    ):
        world = rolling_world
        site = world.names.site
        # A pool that makes sites collide: 25 sites' domain and FQDN rows
        # plus infrastructure rows; draws with replacement repeat rows.
        pool = np.concatenate([
            np.flatnonzero((site >= 0) & (site < 25)),
            np.flatnonzero(site < 0)[:10],
        ])
        rng = np.random.RandomState(seed)
        published = [
            [None if rng.random_sample() < hole_rate
             else rng.choice(pool, size=rng.randint(1, 40)).tolist()
             for _ in range(n_days)]
            for _ in range(n_components)
        ]
        oracle = _oracle_for(world, published, window)
        for day in range(n_days):
            cells = [
                [None if days[d] is None else site_rank_vector(world, days[d])
                 for d in range(max(0, day - window + 1), day + 1)]
                for days in published
            ]
            scores = gap_dowdall_scores(cells, world.n_sites)
            ranked = rolling_tranco.assemble_scores(scores, day)
            assert matches(oracle[day], ranked.name_rows.tolist(),
                           scores.tolist()) == {
                "ranks_identical": True, "scores_identical": True,
            }


class TestTrancoAgainstOracle:
    def test_every_daily_list_matches_oracle(self, rolling_world,
                                             rolling_tranco):
        config = rolling_world.config
        days = range(config.n_days)
        published = [
            [c.daily_list(day).name_rows.tolist() for day in days]
            for c in rolling_tranco.components
        ]
        oracle = _oracle_for(rolling_world, published, config.tranco_window)
        assert config.n_days > config.tranco_window  # the window slides
        for day in days:
            result = matches(
                oracle[day], rolling_tranco.daily_list(day).name_rows.tolist(),
                rolling_tranco.window_scores(day).tolist(),
            )
            assert result == {"ranks_identical": True,
                              "scores_identical": True}, day

    def test_rank_cache_bounded_by_components_times_days(self, rolling_world,
                                                         rolling_tranco):
        for day in range(rolling_world.config.n_days):
            rolling_tranco.daily_list(day)
        assert len(rolling_tranco._rank_cache) == (
            len(rolling_tranco.components) * rolling_world.config.n_days
        )
