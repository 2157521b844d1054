"""``repro ranking``: the oracle verdict drives the exit code."""

from __future__ import annotations

import json

from repro.cli import main
from repro.providers.registry import build_providers
from repro.ranking import StabilityTracker
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import build_world

_WORLD_ARGS = ["--sites", "400", "--days", "4", "--seed", "11"]


class TestRankingCommand:
    def test_reports_identical_and_exits_zero(self, tmp_path, capsys):
        report_path = tmp_path / "ranking.json"
        code = main([
            "ranking", *_WORLD_ARGS, "--k", "25",
            "--cache-dir", str(tmp_path / "store"),
            "--json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out
        assert "stability @ k=25" in out
        report = json.loads(report_path.read_text())
        assert report["equivalence"]["identical"] is True
        assert report["equivalence"]["days_checked"] == 4
        assert report["stability"]["k"] == 25
        assert len(report["stability"]["churn"]) == 4

    def test_rejects_bad_k(self, capsys):
        code = main(["ranking", "--k", "0", *_WORLD_ARGS, "--no-cache"])
        capsys.readouterr()
        assert code == 2

    def test_stability_uses_the_world_calendar(self, tmp_path, capsys):
        report_path = tmp_path / "ranking.json"
        code = main([
            "ranking", "--sites", "400", "--days", "8", "--seed", "11",
            "--k", "25", "--no-cache", "--json", str(report_path),
        ])
        capsys.readouterr()
        assert code == 0
        world = build_world(WorldConfig(n_sites=400, n_days=8, seed=11))
        tranco = build_providers(world)["tranco"]
        tracker = StabilityTracker(25)
        for day in range(world.config.n_days):
            tracker.observe(tranco.daily_list(day).head(25).strings(world))
        expected = tracker.summary(start_weekday=world.config.start_weekday)
        report = json.loads(report_path.read_text())
        assert report["stability"] == json.loads(json.dumps(expected))
