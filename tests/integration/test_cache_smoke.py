"""End-to-end smoke test: ``repro all --jobs 2``, cold then warm.

Exercises the whole subsystem the way CI does: a cold parallel run over a
fresh cache directory populates the store, a warm run hydrates from it, and
both produce identical experiment text (checked via the manifests'
``text_sha256`` digests — no tolerance, the store round-trip is lossless).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.core.pipeline import clear_contexts
from repro.runner import RunManifest

_WORLD_ARGS = ["--sites", "1000", "--days", "6", "--seed", "42"]


def _run_all(tmp_path: Path, tag: str) -> RunManifest:
    manifest_path = tmp_path / f"{tag}.json"
    code = main(
        ["all", *_WORLD_ARGS, "--jobs", "2",
         "--cache-dir", str(tmp_path / "store"),
         "--manifest", str(manifest_path)]
    )
    assert code == 0, f"{tag} run must exit 0"
    return RunManifest.from_dict(json.loads(manifest_path.read_text()))


class TestColdWarmSmoke:
    def test_cold_then_warm(self, tmp_path, capsys):
        clear_contexts()
        cold = _run_all(tmp_path, "cold")
        assert not cold.failures
        cold_totals = cold.cache_totals()
        assert cold_totals.get("world", {}).get("puts", 0) >= 1

        # Warm run: same cache dir, new worker pool.  World construction is
        # skipped — the manifest shows hydration hits for every stored kind.
        # Traffic is recomputed from the world and never touches the store.
        clear_contexts()
        warm = _run_all(tmp_path, "warm")
        assert not warm.failures
        warm_totals = warm.cache_totals()
        for kind in ("world", "metrics", "providers"):
            assert warm_totals.get(kind, {}).get("hits", 0) > 0, (
                f"warm run must hydrate {kind} from the store: {warm_totals}"
            )
        assert "traffic" not in cold_totals and "traffic" not in warm_totals
        assert warm.total_hits() > 0

        # Results are numerically identical cold vs warm.
        cold_digests = {o.name: o.text_sha256 for o in cold.outcomes}
        warm_digests = {o.name: o.text_sha256 for o in warm.outcomes}
        assert cold_digests == warm_digests
        assert all(digest for digest in cold_digests.values())

        # Both runs actually went through the pool.
        assert cold.jobs == 2 and warm.jobs == 2
        capsys.readouterr()  # swallow the CLI chatter
