"""Supervised-execution and chaos-gate tests.

``survey`` is the victim throughout: it is the cheapest registry
experiment (no world build), so deadline-driven tests stay fast.  The
supervisor forks, so these tests exercise the real kill/resubmit path
with real processes.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from repro.faults import FaultPlan, FaultRule
from repro.qa.goldens import verify_goldens
from repro.runner import run_experiments
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)


class TestSupervisedFaults:
    def test_hang_is_killed_and_resubmission_recovers(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker.hang", match="survey", delay_seconds=60.0)]
        )
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, cache_dir=tmp_path / "store",
            timeout=3.0, fault_plan=plan,
        )
        outcome = manifest.outcomes[0]
        assert outcome.ok, "the resubmission must run clean"
        assert outcome.submissions == 2
        assert manifest.faults["timeouts"] == 1
        assert manifest.faults["resubmissions"] == 1
        assert manifest.faults["worker_deaths"] == 0
        assert "survey" in manifest.faults["recovered"]

    def test_crash_is_detected_and_resubmission_recovers(self, tmp_path):
        plan = FaultPlan([FaultRule("worker.crash", match="survey", exit_code=7)])
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, cache_dir=tmp_path / "store",
            timeout=30.0, fault_plan=plan,
        )
        outcome = manifest.outcomes[0]
        assert outcome.ok
        assert outcome.submissions == 2
        assert manifest.faults["worker_deaths"] == 1
        assert manifest.faults["resubmissions"] == 1

    def test_persistent_crash_exhausts_resubmissions(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker.crash", match="survey", max_fires=99, exit_code=7)]
        )
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, cache_dir=tmp_path / "store",
            timeout=30.0, fault_plan=plan,
        )
        outcome = manifest.outcomes[0]
        assert not outcome.ok
        assert outcome.worker_died and not outcome.timed_out
        assert outcome.attempts == 0, "the true attempt count is unknown"
        assert outcome.submissions == 2
        assert "exit code 7" in outcome.error
        assert manifest.faults["worker_deaths"] == 2

    def test_persistent_hang_exhausts_resubmissions(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker.hang", match="survey", max_fires=99,
                       delay_seconds=60.0)]
        )
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, cache_dir=tmp_path / "store",
            timeout=1.5, fault_plan=plan,
        )
        outcome = manifest.outcomes[0]
        assert not outcome.ok
        assert outcome.timed_out and not outcome.worker_died
        assert "timeout after 1.5s" in outcome.error
        assert manifest.faults["timeouts"] == 2

    def test_worker_faults_never_fire_inline(self, tmp_path):
        # Inline execution (jobs=1, no timeout) must ignore worker.crash:
        # honoring it would kill the calling process.
        plan = FaultPlan([FaultRule("worker.crash", match="survey")])
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, fault_plan=plan
        )
        assert manifest.outcomes[0].ok
        assert plan.fired == {}

    def test_timeout_rejects_keep_results(self):
        with pytest.raises(ValueError, match="live results"):
            run_experiments(["survey"], _CONFIG, timeout=5.0, keep_results=True)

    def test_store_faults_inside_supervised_workers(self, tmp_path):
        # Store-level injections ride along into the forked worker and
        # are still recovered (recompute) and accounted in the manifest.
        plan = FaultPlan(
            [FaultRule("store.write.enospc", match="results/*")]
        )
        payloads, manifest, _ = run_experiments(
            ["survey"], _CONFIG, cache_dir=tmp_path / "store",
            timeout=30.0, fault_plan=plan,
        )
        assert manifest.outcomes[0].ok
        assert manifest.faults["injected"] == {"store.write.enospc": 1}


class TestChaosCommand:
    @pytest.fixture(scope="class")
    def goldens(self, tmp_path_factory):
        """Small-scale goldens for the chaos gate to verify against."""
        golden_dir = tmp_path_factory.mktemp("chaos-goldens")
        report = verify_goldens(
            golden_dir, names=["survey", "table1", "fig6"], config=_CONFIG,
            update=True, cache_dir=None,
        )
        assert report.ok
        return golden_dir

    def _plan_file(self, tmp_path) -> str:
        # Crash + flaky + store faults, no hang: keeps the test off the
        # deadline path so it never waits out a timeout.  Every rule must
        # fire: run sequentially, fig6's worker reads back the world
        # table1's built, and every worker writes its result.
        plan = FaultPlan(
            [
                FaultRule("store.read.corrupt", match="world/*"),
                FaultRule("store.write.enospc", match="results/*"),
                FaultRule("store.write.partial", match="providers/*"),
                FaultRule("worker.crash", match="survey"),
                FaultRule("experiment.flaky_first_attempt", match="table1"),
            ],
            seed=1337,
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        return str(path)

    def test_chaos_gate_passes_and_records_faults(self, goldens, tmp_path):
        manifest_path = tmp_path / "chaos.json"
        rc = main([
            "chaos", "--sites", "400", "--days", "4",
            "--world-seed", "11",
            "--golden-dir", str(goldens),
            "--plan", self._plan_file(tmp_path),
            "--experiment", "survey", "--experiment", "table1",
            "--experiment", "fig6",
            "--jobs", "1", "--timeout", "60",
            "--manifest", str(manifest_path),
        ])
        assert rc == EXIT_OK
        manifest = json.loads(manifest_path.read_text())
        assert manifest["faults"]["worker_deaths"] == 1
        assert manifest["faults"]["resubmissions"] == 1
        assert set(manifest["faults"]["injected"]) == {
            "store.read.corrupt", "store.write.enospc", "store.write.partial",
            "experiment.flaky_first_attempt",
        }
        statuses = {
            o["name"]: o["golden_status"] for o in manifest["outcomes"]
        }
        assert statuses == {"survey": "pass", "table1": "pass", "fig6": "pass"}

    def test_chaos_gate_fails_on_golden_drift(self, goldens, tmp_path):
        # Drifted goldens (a tampered cell) must fail the gate even though
        # every experiment completes.
        drifted = tmp_path / "drifted"
        drifted.mkdir()
        for source in goldens.iterdir():
            payload = json.loads(source.read_text())
            (drifted / source.name).write_text(json.dumps(payload))
        target = drifted / "survey.json"
        payload = json.loads(target.read_text())
        payload["text_sha256"] = "0" * 64
        target.write_text(json.dumps(payload))
        rc = main([
            "chaos", "--sites", "400", "--days", "4",
            "--world-seed", "11",
            "--golden-dir", str(drifted),
            "--plan", self._plan_file(tmp_path),
            "--experiment", "survey",
            "--jobs", "1", "--timeout", "60",
            "--manifest", str(tmp_path / "drift.json"),
        ])
        assert rc == EXIT_FAILURE

    def test_chaos_gate_fails_when_nothing_fires(self, goldens, tmp_path):
        # An empty plan proves nothing; the gate must refuse to go green.
        empty = tmp_path / "empty-plan.json"
        empty.write_text(FaultPlan(seed=1).to_json())
        rc = main([
            "chaos", "--sites", "400", "--days", "4",
            "--world-seed", "11",
            "--golden-dir", str(goldens),
            "--plan", str(empty),
            "--experiment", "survey",
            "--jobs", "1", "--timeout", "60",
            "--manifest", str(tmp_path / "quiet.json"),
        ])
        assert rc == EXIT_FAILURE

    def test_chaos_gate_fails_when_a_rule_never_fires(self, goldens, tmp_path, capsys):
        # One rule fires, so the total passes; the rule that matches
        # nothing the run touches must still fail the gate.
        plan = tmp_path / "silent-rule.json"
        plan.write_text(FaultPlan(
            [
                FaultRule("store.write.enospc", match="results/*"),
                FaultRule("store.read.corrupt", match="nothing/*"),
            ],
            seed=1,
        ).to_json())
        rc = main([
            "chaos", "--sites", "400", "--days", "4",
            "--world-seed", "11",
            "--golden-dir", str(goldens),
            "--plan", str(plan),
            "--experiment", "survey",
            "--jobs", "1", "--timeout", "60",
            "--manifest", str(tmp_path / "silent.json"),
        ])
        out = capsys.readouterr().out
        assert rc == EXIT_FAILURE
        assert "[PASS] faults_fired" in out
        assert "[FAIL] rules_fired: 1 (threshold 2) silent: store.read.corrupt nothing/*" in out

    def test_unreadable_plan_is_usage_error(self, tmp_path):
        rc = main([
            "chaos", "--plan", str(tmp_path / "missing.json"),
            "--experiment", "survey",
        ])
        assert rc == 2

    def test_missing_goldens_are_usage_error_before_running(self, tmp_path):
        # Without the goldens the gate could only report drift after
        # running everything; it must refuse up front instead.
        empty = tmp_path / "no-goldens"
        empty.mkdir()
        rc = main([
            "chaos", "--experiment", "survey", "--golden-dir", str(empty),
            "--manifest", str(tmp_path / "never.json"),
        ])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "never.json").exists()
