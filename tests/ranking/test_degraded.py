"""Gap-tolerant Tranco windows against the independent Dowdall oracle.

Runs the degraded pipeline over the shared rolling world (window 3 over
6 days, so every fault lands inside at least one full window roll) and
holds it to the acceptance invariants: every emission equals the oracle
over the same degraded input, every non-clean window is marked, clean
windows are identical to the undegraded pipeline, every armed site
fired, and the digest replays.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultRule, day_key, default_data_plan
from repro.providers.tranco import gap_dowdall_scores
from repro.qa.dowdall import dowdall_oracle, matches
from repro.ranking.degraded import DegradedTranco, proof_of_degraded_equivalence


def _vec(rng, n):
    ranks = rng.permutation(n).astype(np.float64) + 1.0
    ranks[rng.random_sample(n) < 0.3] = 0.0
    return ranks


def _run_against_oracle(tranco, plan):
    """Advance a degraded pipeline over every day; assert each emission
    equals the oracle over its ledger rows; return the health blocks."""
    world = tranco.world
    pipeline = DegradedTranco(tranco, plan)
    emitted = [pipeline.advance() for _ in range(world.config.n_days)]
    oracle = dowdall_oracle(
        pipeline.ledger_rows(), world.names.site.tolist(),
        world.config.tranco_window, world.config.list_length,
    )
    for (ranked, scores, _), expected in zip(emitted, oracle):
        assert matches(expected, ranked.name_rows.tolist(),
                       scores.tolist()) == {
            "ranks_identical": True, "scores_identical": True,
        }
    return pipeline, [health for _, _, health in emitted]


class TestGapDowdall:
    def test_complete_window_matches_flat_batch_bitwise(self):
        # A complete window is one flat sum: the same additions as one
        # component holding every vector, components outer.
        rng = np.random.RandomState(3)
        cells = [[_vec(rng, 50) for _ in range(4)] for _ in range(2)]
        flat = [v for comp in cells for v in comp]
        assert (gap_dowdall_scores(cells, 50).tobytes()
                == gap_dowdall_scores([flat], 50).tobytes())

    def test_holes_rescale_by_expected_over_present(self):
        rng = np.random.RandomState(4)
        present = [_vec(rng, 50), _vec(rng, 50)]
        cells = [[present[0], None, present[1]]]
        expected = gap_dowdall_scores([present], 50) * (3.0 / 2.0)
        assert gap_dowdall_scores(cells, 50).tobytes() == expected.tobytes()

    def test_fully_empty_component_contributes_nothing(self):
        rng = np.random.RandomState(5)
        alive = [_vec(rng, 50) for _ in range(3)]
        cells = [[None, None, None], list(alive)]
        expected = gap_dowdall_scores([alive], 50)
        assert gap_dowdall_scores(cells, 50).tobytes() == expected.tobytes()

    def test_ragged_components_rejected(self):
        with pytest.raises(ValueError):
            gap_dowdall_scores([[None], [None, None]], 10)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            gap_dowdall_scores([], 10)


class TestProofOfDegradedEquivalence:
    def test_default_plan_proof_holds(self, rolling_tranco):
        plan = default_data_plan(11, rolling_tranco.world.config.n_days)
        proof = proof_of_degraded_equivalence(rolling_tranco, plan)
        assert proof["ok"], proof
        assert proof["identical"]
        assert proof["marking_consistent"]
        assert proof["clean_days_identical"]
        assert proof["all_armed_sites_fired"]
        assert proof["digest_match"]
        assert proof["degraded_days"], "the plan must actually degrade days"

    def test_unfaulted_plan_is_the_clean_pipeline(self, rolling_tranco):
        plan = FaultPlan([], seed=1)
        proof = proof_of_degraded_equivalence(rolling_tranco, plan)
        assert proof["ok"]
        assert proof["degraded_days"] == []
        assert proof["clean_days"] == list(
            range(rolling_tranco.world.config.n_days)
        )

    def test_proof_is_seed_deterministic(self, rolling_tranco):
        n_days = rolling_tranco.world.config.n_days
        first = proof_of_degraded_equivalence(
            rolling_tranco, default_data_plan(11, n_days)
        )
        second = proof_of_degraded_equivalence(
            rolling_tranco, default_data_plan(11, n_days)
        )
        assert first["fault_digest"] == second["fault_digest"]
        assert [d["sha256"] for d in first["days"]] == [
            d["sha256"] for d in second["days"]
        ]
        third = proof_of_degraded_equivalence(
            rolling_tranco, default_data_plan(12, n_days)
        )
        assert third["fault_digest"] != first["fault_digest"]
        # Both seeds' windows equal the oracle over their own input.
        assert first["identical"] and third["identical"]

    def test_report_is_json_serializable(self, rolling_tranco):
        plan = default_data_plan(11, rolling_tranco.world.config.n_days)
        json.dumps(proof_of_degraded_equivalence(rolling_tranco, plan, k=10))


class TestDegradedTranco:
    def test_advance_iterates_every_day(self, rolling_tranco):
        pipeline = DegradedTranco(rolling_tranco, FaultPlan([], seed=1))
        n_days = rolling_tranco.world.config.n_days
        assert [pipeline.advance()[0].day for _ in range(n_days)] == list(
            range(n_days)
        )
        assert pipeline.next_day == n_days

    def test_retirement_drops_component_without_perturbing_survivors(
        self, rolling_tranco
    ):
        # Retire alexa from day 1: every emission must equal the oracle
        # over the surviving components' rows.
        plan = FaultPlan(
            [FaultRule("data.provider.retired",
                       match=day_key("alexa", 1), probability=1.0)],
            seed=2,
        )
        pipeline, healths = _run_against_oracle(rolling_tranco, plan)
        alexa = pipeline.ledger_rows()[list(pipeline.streams).index("alexa")]
        assert alexa[0] is not None
        assert all(rows is None for rows in alexa[1:])
        assert all(health["components"]["alexa"]["status"] == "retired"
                   for health in healths[1:])

    def test_health_block_marks_exactly_the_degraded_windows(
        self, rolling_tranco
    ):
        plan = FaultPlan(
            [FaultRule("data.day.missing",
                       match=day_key("umbrella", 2), probability=1.0)],
            seed=3,
        )
        _, healths = _run_against_oracle(rolling_tranco, plan)
        window = rolling_tranco.world.config.tranco_window
        flags = [health["degraded"] for health in healths]
        # Degraded exactly while day 2 sits inside the rolling window.
        expected = [2 <= day <= 2 + window - 1
                    for day in range(len(flags))]
        assert flags == expected
