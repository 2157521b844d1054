"""Resumable-run tests: skip verification, interrupts, partial manifests."""

from __future__ import annotations

import json

import pytest

from repro.core import experiments as experiments_mod
from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.core.pipeline import clear_contexts
from repro.runner import run_experiments
from repro.store import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)

_STATE = {"broken_calls": 0, "fixed": False}


def _tiny_experiment(ctx) -> ExperimentResult:
    return ExperimentResult(
        name="tiny", title="Tiny", data={"n_sites": ctx.world.n_sites},
        text=f"n_sites={ctx.world.n_sites}",
    )


def _fixable_experiment(ctx) -> ExperimentResult:
    _STATE["broken_calls"] += 1
    if not _STATE["fixed"]:
        raise RuntimeError("still broken")
    return ExperimentResult(name="fixable", title="Fixable", data={}, text="fixed")


def _interrupting_experiment(ctx) -> ExperimentResult:
    raise KeyboardInterrupt


@pytest.fixture()
def registry(monkeypatch):
    extended = dict(SPECS)
    for name, fn in (
        ("tiny", _tiny_experiment),
        ("fixable", _fixable_experiment),
        ("interrupting", _interrupting_experiment),
    ):
        extended[name] = ExperimentSpec(
            id=name, title=name.title(), fn=fn, tags=("test",),
            required_artifacts=(),
        )
    monkeypatch.setattr(experiments_mod, "SPECS", extended)
    monkeypatch.setattr("repro.runner.parallel.SPECS", extended)
    _STATE["broken_calls"] = 0
    _STATE["fixed"] = False
    clear_contexts()
    return extended


class TestResume:
    def test_verified_outcomes_are_skipped(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, manifest_path=manifest_path
        )
        payloads, manifest, _ = run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir,
            manifest_path=tmp_path / "run2.json", resume_manifest=manifest_path,
        )
        outcome = manifest.outcomes[0]
        assert outcome.ok and outcome.resumed
        assert outcome.attempts == 0 and outcome.seconds == 0.0
        assert payloads[0]["text"] == "n_sites=400"

    def test_resumed_payload_carries_data_when_asked(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, manifest_path=manifest_path
        )
        payloads, _, _ = run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, keep_data=True,
            resume_manifest=manifest_path,
        )
        assert payloads[0]["data"] == {"n_sites": 400}

    def test_only_failures_re_run(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["fixable", "tiny"], _CONFIG, cache_dir=store_dir,
            manifest_path=manifest_path,
        )
        calls_before = _STATE["broken_calls"]
        _STATE["fixed"] = True
        payloads, manifest, _ = run_experiments(
            ["fixable", "tiny"], _CONFIG, cache_dir=store_dir,
            resume_manifest=manifest_path,
        )
        by_name = {o.name: o for o in manifest.outcomes}
        assert by_name["tiny"].resumed, "the ok experiment is skipped"
        assert not by_name["fixable"].resumed, "the failure re-runs"
        assert by_name["fixable"].ok
        assert _STATE["broken_calls"] == calls_before + 1

    def test_config_mismatch_is_an_error(self, registry, tmp_path):
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=tmp_path / "store",
            manifest_path=manifest_path,
        )
        other = WorldConfig(n_sites=500, n_days=4, seed=11)
        with pytest.raises(ValueError, match="different world config"):
            run_experiments(
                ["tiny"], other, cache_dir=tmp_path / "store",
                resume_manifest=manifest_path,
            )

    def test_missing_result_blob_forces_re_run(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, manifest_path=manifest_path
        )
        # Simulate cache eviction between the runs: the manifest claims ok,
        # but the bytes are gone, so resume must not trust it.
        store = ArtifactStore(store_dir)
        blob_key = next(
            e.key for e in store.entries() if "results/tiny" in e.key
        )
        (store.root / blob_key).unlink()
        _, manifest, _ = run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, resume_manifest=manifest_path
        )
        outcome = manifest.outcomes[0]
        assert outcome.ok and not outcome.resumed
        assert outcome.attempts == 1

    def test_tampered_result_blob_forces_re_run(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, manifest_path=manifest_path
        )
        # Rewrite the cached result with different text: the store checksum
        # is valid but the manifest text digest no longer matches.
        store = ArtifactStore(store_dir)
        blob = store.get_json(config_key(_CONFIG), "results/tiny")
        blob["text"] = "tampered"
        store.put_json(config_key(_CONFIG), "results/tiny", blob)
        _, manifest, _ = run_experiments(
            ["tiny"], _CONFIG, cache_dir=store_dir, resume_manifest=manifest_path
        )
        assert not manifest.outcomes[0].resumed

    def test_resume_without_cache_runs_everything(self, registry, tmp_path):
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny"], _CONFIG, cache_dir=tmp_path / "store",
            manifest_path=manifest_path,
        )
        _, manifest, _ = run_experiments(
            ["tiny"], _CONFIG, resume_manifest=manifest_path
        )
        assert not manifest.outcomes[0].resumed


class TestInterrupt:
    def test_inline_interrupt_writes_partial_manifest(self, registry, tmp_path):
        manifest_path = tmp_path / "run.json"
        payloads, manifest, manifest_file = run_experiments(
            ["tiny", "interrupting", "fixable"], _CONFIG,
            cache_dir=tmp_path / "store", manifest_path=manifest_path,
        )
        assert manifest.interrupted
        assert manifest_file is not None and manifest_file.exists()
        by_name = {o.name: o for o in manifest.outcomes}
        assert by_name["tiny"].ok, "work done before the interrupt is kept"
        assert not by_name["interrupting"].ok
        assert not by_name["fixable"].ok
        assert "interrupted" in by_name["fixable"].error
        assert by_name["fixable"].attempts == 0
        reloaded = json.loads(manifest_path.read_text())
        assert reloaded["interrupted"] is True

    def test_resume_after_interrupt_skips_completed(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        manifest_path = tmp_path / "run.json"
        run_experiments(
            ["tiny", "interrupting"], _CONFIG, cache_dir=store_dir,
            manifest_path=manifest_path,
        )
        _STATE["fixed"] = True
        payloads, manifest, _ = run_experiments(
            ["tiny", "fixable"], _CONFIG, cache_dir=store_dir,
            resume_manifest=manifest_path,
        )
        by_name = {o.name: o for o in manifest.outcomes}
        assert by_name["tiny"].resumed
        assert by_name["fixable"].ok and not by_name["fixable"].resumed
        assert not manifest.interrupted

    def test_pool_interrupt_writes_partial_manifest(self, registry, tmp_path,
                                                    monkeypatch):
        # Simulate ^C landing in the parent's wait loop: every pending
        # experiment is marked interrupted and the manifest still lands.
        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.runner.parallel.wait", interrupted_wait)
        manifest_path = tmp_path / "run.json"
        payloads, manifest, manifest_file = run_experiments(
            ["survey", "table1"], _CONFIG, jobs=2,
            cache_dir=tmp_path / "store", manifest_path=manifest_path,
        )
        assert manifest.interrupted
        assert manifest_file.exists()
        assert all(not o.ok for o in manifest.outcomes)
        assert all("interrupted" in o.error for o in manifest.outcomes)
