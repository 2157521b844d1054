"""Tests for the experiment runners and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.experiments import SPECS, run_experiment
from repro.core.pipeline import (
    _CONTEXTS,
    ARTIFACT_NAMES,
    MAX_CACHED_CONTEXTS,
    clear_contexts,
    experiment_context,
)
from repro.worldgen.config import WorldConfig

_TEST_CONFIG = WorldConfig(n_sites=1200, n_days=8, seed=77)


@pytest.fixture(scope="module")
def ctx():
    return experiment_context(config=_TEST_CONFIG)


class TestPipeline:
    def test_context_cached(self):
        assert experiment_context(config=_TEST_CONFIG) is experiment_context(
            config=_TEST_CONFIG
        )

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            experiment_context(_TEST_CONFIG)  # noqa: the API is keyword-only

    def test_clear_contexts_drops_memo(self):
        first = experiment_context(config=_TEST_CONFIG)
        clear_contexts()
        assert _CONTEXTS == {}
        second = experiment_context(config=_TEST_CONFIG)
        assert second is not first
        assert second is experiment_context(config=_TEST_CONFIG)

    def test_memo_bounded_lru(self):
        clear_contexts()
        configs = [WorldConfig(n_sites=100, n_days=1, seed=s) for s in range(10)]
        for config in configs:
            experiment_context(config=config)
        assert len(_CONTEXTS) <= MAX_CACHED_CONTEXTS
        # Oldest contexts were evicted, newest retained.
        keys = [key for key, _ in _CONTEXTS.items()]
        assert (configs[0], None) not in keys
        assert (configs[-1], None) in keys

    def test_memo_refreshes_on_hit(self):
        clear_contexts()
        configs = [WorldConfig(n_sites=100, n_days=1, seed=s) for s in range(MAX_CACHED_CONTEXTS)]
        contexts = [experiment_context(config=config) for config in configs]
        experiment_context(config=configs[0])  # refresh the oldest entry
        experiment_context(config=WorldConfig(n_sites=100, n_days=1, seed=999))  # forces one eviction
        assert experiment_context(config=configs[0]) is contexts[0], "refreshed entry must survive"
        assert experiment_context(config=configs[1]) is not contexts[1], "LRU entry was evicted"

    def test_artifact_accessor(self, ctx):
        for name in ARTIFACT_NAMES:
            assert ctx.artifact(name) is ctx.artifact(name), "artifacts memoize"
        assert ctx.artifact("world") is ctx.world
        assert ctx.artifact("engine") is ctx.engine
        with pytest.raises(KeyError):
            ctx.artifact("nosuch")

    def test_normalized_cached(self, ctx):
        assert ctx.normalized("alexa", 0) is ctx.normalized("alexa", 0)
        assert ctx.normalized("crux", 0) is ctx.normalized("crux", 5)  # monthly

    def test_magnitudes(self, ctx):
        assert len(ctx.magnitudes) == 4
        assert ctx.magnitude_labels == ("1K", "10K", "100K", "1M")


class TestExperiments:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_experiment_runs(self, ctx, name):
        result = run_experiment(name, ctx)
        assert result.name == name
        assert result.text.strip()
        assert result.data

    def test_specs_are_declarative(self):
        for name, spec in SPECS.items():
            assert spec.id == name
            assert spec.title and spec.summary
            assert callable(spec.fn)
            unknown = set(spec.required_artifacts) - set(ARTIFACT_NAMES)
            assert not unknown, f"{name} requires unknown artifacts {unknown}"

    def test_unknown_experiment(self, ctx):
        with pytest.raises(KeyError):
            run_experiment("fig99", ctx)

    def test_fig1_band(self, ctx):
        result = run_experiment("fig1", ctx)
        lo, hi = result.data["jaccard_band"]
        assert 0.0 <= lo < hi <= 1.0

    def test_table1_structure(self, ctx):
        result = run_experiment("table1", ctx)
        coverage = result.data["coverage"]
        assert set(coverage) == set(ctx.providers)
        for per_mag in coverage.values():
            assert set(per_mag) == set(ctx.magnitude_labels)

    def test_table2_umbrella_crux_high(self, ctx):
        deviation = run_experiment("table2", ctx).data["deviation"]
        assert deviation["umbrella"]["1M"] > 30
        assert deviation["crux"]["1M"] > 30
        assert deviation["tranco"]["1M"] < 5

    def test_fig3_contains_all_providers(self, ctx):
        series = run_experiment("fig3", ctx).data["series"]
        assert set(series) == set(ctx.providers)

    def test_fig5_stats(self, ctx):
        stats = run_experiment("fig5", ctx).data["stats"]
        assert set(stats) == {"alexa", "crux"}

    def test_survey_numbers(self, ctx):
        stats = run_experiment("survey", ctx).data["stats"]
        assert stats.papers == 59


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.experiment == "fig1"
        # Unset world arguments stay None; the base config supplies them.
        assert args.sites is None and args.days is None and args.seed is None
        config = WorldConfig.from_args(args)
        assert config.n_sites > 0

    def test_usage_error_returns_two(self, capsys):
        assert main(["fig1", "--sites", "not-a-number"]) == 2
        assert main(["--no-such-flag"]) == 2

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table3" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_runs_one_experiment(self, capsys):
        code = main(["survey", "--sites", "1200", "--days", "8", "--seed", "77"])
        assert code == 0
        out = capsys.readouterr().out
        assert "85%" in out

    def test_export_subcommand(self, capsys, tmp_path):
        path = tmp_path / "alexa.csv"
        code = main(["export", "alexa", str(path),
                     "--sites", "1200", "--days", "8", "--seed", "77",
                     "--limit", "25"])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 25
        assert lines[0].startswith("1,")

    def test_export_crux_format(self, capsys, tmp_path):
        path = tmp_path / "crux.csv"
        code = main(["export", "crux", str(path),
                     "--sites", "1200", "--days", "8", "--seed", "77"])
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "origin,rank"

    def test_export_unknown_provider(self, capsys, tmp_path):
        code = main(["export", "nosuch", str(tmp_path / "x.csv"),
                     "--sites", "1200", "--days", "8", "--seed", "77"])
        assert code == 2

    def test_recommend_subcommand(self, capsys):
        code = main(["recommend", "--sites", "1200", "--days", "8",
                     "--seed", "77", "--magnitude", "1M"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out

    def test_recommend_rejects_bad_category(self, capsys):
        code = main(["recommend", "--sites", "1200", "--days", "8",
                     "--seed", "77", "--must-cover", "cryptofauna"])
        assert code == 2


class TestCacheCli:
    def test_stats_on_empty_store(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_run_then_stats_ls_clear(self, capsys, tmp_path):
        # fig2 walks the whole artifact chain (world -> traffic -> metrics
        # -> providers), so the store ends up populated; a world-free
        # experiment like survey would lazily skip it all.
        cache = str(tmp_path / "store")
        code = main(["fig2", "--sites", "1200", "--days", "8", "--seed", "77",
                     "--cache-dir", cache])
        assert code == 0
        out = capsys.readouterr().out
        assert "[cache:" in out and "[manifest:" in out

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        stats_out = capsys.readouterr().out
        assert "configs: 1" in stats_out
        assert "world" in stats_out and "results" in stats_out

        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        ls_out = capsys.readouterr().out
        assert "world/arrays.npz" in ls_out

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "freed" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "(empty store" in capsys.readouterr().out

    def test_no_cache_flag_disables_store(self, capsys, tmp_path):
        cache = str(tmp_path / "never")
        code = main(["survey", "--sites", "1200", "--days", "8", "--seed", "77",
                     "--cache-dir", cache, "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[manifest:" not in out
        assert not (tmp_path / "never").exists()
