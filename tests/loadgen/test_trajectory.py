"""The latency trajectory: schema pinning, the p99 drift gate, and the
compare-only CLI path.

The schema test is deliberately brittle: LATENCY files are diffed by CI
across runs, so adding/removing/renaming a key must be a conscious
schema-version bump, not a drive-by.
"""

from __future__ import annotations

import json

import pytest

from repro.loadgen.metrics import Outcome, PhaseMetrics
from repro.loadgen.trajectory import (
    DEFAULT_ABS_SLACK_MS,
    DEFAULT_P99_TOLERANCE,
    LATENCY_SCHEMA_VERSION,
    MIN_GATED_SAMPLES,
    build_trajectory,
    compare_trajectories,
    latency_path,
    load_trajectory,
    write_trajectory,
)


def _phase(name, latencies_by_kind, duration=2.0, sheds=0):
    phase = PhaseMetrics(name)
    serial = 0
    for kind, latencies in latencies_by_kind.items():
        for latency in latencies:
            phase.record(Outcome(
                path=f"/{kind}", kind=kind, persona_id=f"p{serial}",
                outcome="ok", status=200, latency_seconds=latency,
            ))
            serial += 1
    for _ in range(sheds):
        phase.record(Outcome(
            path="/x", kind="lists", persona_id="p-shed", outcome="shed",
            status=503, latency_seconds=0.001, retry_after_seen=1,
        ))
    phase.duration_seconds = duration
    return phase


def _document(p99_seconds=0.05, count=100):
    """A hand-built LATENCY document with a controllable overall p99."""
    phase = _phase("steady", {"health": [p99_seconds] * count})
    return build_trajectory(
        seed=7, mode="spawn", workers=2, keepalive=True, phases=[phase]
    )


class TestSchema:
    def test_top_level_keys_are_pinned(self):
        document = _document()
        assert sorted(document) == [
            "achieved_rps", "date", "endpoints", "keepalive",
            "latency_schema_version", "mode", "overall", "phases",
            "requests", "seed", "shed_rate", "workers",
        ]
        assert document["latency_schema_version"] == LATENCY_SCHEMA_VERSION

    def test_quantile_block_keys_are_pinned(self):
        document = _document()
        for block in (document["overall"],
                      document["endpoints"]["health"],):
            assert sorted(block) == [
                "count", "p50_ms", "p90_ms", "p999_ms", "p99_ms",
            ]
        steady = document["phases"]["steady"]
        assert sorted(steady) == [
            "achieved_rps", "count", "p50_ms", "p90_ms", "p999_ms",
            "p99_ms", "shed_rate",
        ]

    def test_achieved_rps_and_shed_rate(self):
        chaos = _phase("chaos", {"health": [0.01] * 90}, duration=3.0,
                       sheds=10)
        saturation = _phase("saturation", {"health": [0.01] * 100},
                            duration=1.0)
        document = build_trajectory(
            seed=7, mode="spawn", workers=4, keepalive=True,
            phases=[chaos, saturation],
        )
        assert document["requests"] == 200
        assert document["achieved_rps"] == pytest.approx(200 / 4.0)
        assert document["shed_rate"] == pytest.approx(10 / 200)
        assert document["workers"] == 4

    def test_round_trip_via_file(self, tmp_path):
        document = _document()
        path = latency_path(tmp_path, date="20260807")
        assert path.name == "LATENCY_20260807.json"
        write_trajectory(document, path)
        assert load_trajectory(path) == json.loads(json.dumps(document))

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "LATENCY_x.json"
        bad.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trajectory(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_trajectory(bad)


class TestCompareGate:
    def test_identical_runs_pass(self):
        document = _document()
        gates = compare_trajectories(document, document)
        assert gates and all(gate.passed for gate in gates)
        names = {gate.name for gate in gates}
        assert "trajectory.overall.p99" in names
        assert "trajectory.health.p99" in names

    def test_inflated_p99_fails(self):
        previous = _document(p99_seconds=0.05)
        # 50% tolerance + 25ms slack on a 50ms baseline -> 100ms limit;
        # 200ms is an unambiguous regression.
        current = _document(p99_seconds=0.20)
        gates = compare_trajectories(current, previous)
        failed = {gate.name for gate in gates if not gate.passed}
        assert "trajectory.overall.p99" in failed
        assert "trajectory.health.p99" in failed

    def test_threshold_formula(self):
        previous = _document(p99_seconds=0.10)
        current = _document(p99_seconds=0.10)
        gate = next(
            gate for gate in compare_trajectories(current, previous)
            if gate.name == "trajectory.overall.p99"
        )
        prev_p99 = previous["overall"]["p99_ms"]
        expected = prev_p99 * (1.0 + DEFAULT_P99_TOLERANCE) + DEFAULT_ABS_SLACK_MS
        assert gate.threshold == pytest.approx(expected, rel=1e-6)

    def test_improvement_always_passes(self):
        previous = _document(p99_seconds=0.20)
        current = _document(p99_seconds=0.02)
        assert all(g.passed for g in compare_trajectories(current, previous))

    def test_missing_endpoint_is_noted_not_failed(self):
        # previous measured only `health`; current measured only `lists`.
        previous = _document()
        current = _document()
        current["endpoints"]["lists"] = current["endpoints"].pop("health")
        gates = {g.name: g for g in compare_trajectories(current, previous)}
        no_baseline = gates["trajectory.lists.p99"]
        assert no_baseline.passed and "no baseline" in no_baseline.detail
        absent = gates["trajectory.health.p99"]
        assert absent.passed and "absent from current" in absent.detail

    def test_thin_samples_are_not_gated(self):
        previous = _document(count=MIN_GATED_SAMPLES - 1)
        current = _document(p99_seconds=10.0, count=MIN_GATED_SAMPLES - 1)
        gates = compare_trajectories(current, previous)
        assert all(gate.passed for gate in gates)
        assert all("not gated" in gate.detail for gate in gates)

    def test_custom_tolerance(self):
        previous = _document(p99_seconds=0.10)
        current = _document(p99_seconds=0.15)
        tight = compare_trajectories(
            current, previous, tolerance=0.0, abs_slack_ms=0.0
        )
        assert any(not gate.passed for gate in tight)
        loose = compare_trajectories(current, previous, tolerance=2.0)
        assert all(gate.passed for gate in loose)

    def test_schema_mismatch_and_bad_tolerance_raise(self):
        good = _document()
        stale = dict(good, latency_schema_version=0)
        with pytest.raises(ValueError, match="schema"):
            compare_trajectories(good, stale)
        with pytest.raises(ValueError, match="schema"):
            compare_trajectories(stale, good)
        with pytest.raises(ValueError, match="tolerance"):
            compare_trajectories(good, good, tolerance=-0.1)


class TestCompareOnlyHarness:
    """``repro loadgen --compare PREV --against CUR``: no load, pure gate."""

    def _write(self, tmp_path, name, document):
        target = tmp_path / name
        write_trajectory(document, target)
        return str(target)

    def test_identical_files_exit_ok(self, tmp_path):
        from repro.loadgen.harness import LoadgenOptions, run_loadgen

        document = _document()
        result = run_loadgen(LoadgenOptions(
            compare=self._write(tmp_path, "prev.json", document),
            against=self._write(tmp_path, "cur.json", document),
        ))
        assert result.ok
        assert result.report_path is None  # no LOADGEN doc for a compare
        assert result.report["mode"] == "compare"

    def test_regression_exits_nonzero(self, tmp_path):
        from repro.loadgen.harness import LoadgenOptions, run_loadgen

        result = run_loadgen(LoadgenOptions(
            compare=self._write(tmp_path, "prev.json",
                                _document(p99_seconds=0.05)),
            against=self._write(tmp_path, "cur.json",
                                _document(p99_seconds=0.50)),
        ))
        assert not result.ok
        assert any(not gate.passed for gate in result.checks)

    def test_malformed_invocations_raise(self, tmp_path):
        from repro.loadgen.harness import LoadgenOptions, run_loadgen

        with pytest.raises(ValueError, match="requires --compare"):
            run_loadgen(LoadgenOptions(against="cur.json"))
        with pytest.raises(ValueError, match="pure file comparison"):
            run_loadgen(LoadgenOptions(
                compare="a.json", against="b.json", spawn=True,
            ))

    def test_cli_exit_codes(self, tmp_path):
        from repro.cli import main

        prev = self._write(tmp_path, "prev.json", _document(p99_seconds=0.05))
        same = self._write(tmp_path, "same.json", _document(p99_seconds=0.05))
        worse = self._write(tmp_path, "worse.json", _document(p99_seconds=0.50))
        assert main(["loadgen", "--compare", prev, "--against", same]) == 0
        assert main(["loadgen", "--compare", prev, "--against", worse]) == 1
        # Unreadable baseline is a usage error, not a crash.
        assert main(["loadgen", "--compare", str(tmp_path / "nope.json"),
                     "--against", same]) == 2
