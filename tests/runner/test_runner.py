"""Runner tests: manifests, failure isolation, retry, result JSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import experiments as experiments_mod
from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.core.pipeline import clear_contexts
from repro.obs import Span, Tracer, stage_totals
from repro.runner import ExperimentOutcome, RunManifest, run_experiments
from repro.runner.manifest import build_timings
from repro.runner.parallel import _jsonable
from repro.store import SCHEMA_VERSION, ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)


def _tiny_experiment(ctx) -> ExperimentResult:
    return ExperimentResult(
        name="tiny",
        title="Tiny",
        data={"n_sites": ctx.world.n_sites},
        text=f"n_sites={ctx.world.n_sites}",
    )


_FLAKY_CALLS = {"count": 0}


def _flaky_experiment(ctx) -> ExperimentResult:
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        raise RuntimeError("transient failure")
    return ExperimentResult(name="flaky", title="Flaky", data={}, text="recovered")


def _broken_experiment(ctx) -> ExperimentResult:
    raise ValueError("always broken")


def _dying_experiment(ctx) -> ExperimentResult:
    import os as _os

    _os._exit(9)  # simulated OOM-kill: the worker vanishes mid-task


def _spec(name, fn):
    return ExperimentSpec(
        id=name, title=name.title(), fn=fn, tags=("test",), required_artifacts=()
    )


@pytest.fixture()
def registry(monkeypatch):
    """SPECS extended with synthetic test experiments."""
    extended = dict(SPECS)
    for name, fn in (
        ("tiny", _tiny_experiment),
        ("flaky", _flaky_experiment),
        ("broken", _broken_experiment),
        ("dying", _dying_experiment),
    ):
        extended[name] = _spec(name, fn)
    monkeypatch.setattr(experiments_mod, "SPECS", extended)
    monkeypatch.setattr("repro.runner.parallel.SPECS", extended)
    _FLAKY_CALLS["count"] = 0
    clear_contexts()
    return extended


class TestInlineRunner:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"], _CONFIG)

    def test_success_payload_and_manifest(self, registry, tmp_path):
        payloads, manifest, manifest_file = run_experiments(
            ["tiny"], _CONFIG, cache_dir=tmp_path / "store"
        )
        assert payloads[0]["ok"] and payloads[0]["text"] == "n_sites=400"
        assert manifest_file is not None and manifest_file.exists()

        outcome = manifest.outcomes[0]
        assert outcome.name == "tiny"
        assert outcome.ok and outcome.attempts == 1 and outcome.error is None
        assert outcome.seconds > 0 and outcome.worker_pid > 0
        assert outcome.text_sha256 == ExperimentOutcome.digest("n_sites=400")
        assert outcome.cache, "store-backed run must attribute cache traffic"

        # The manifest on disk round-trips.
        reloaded = RunManifest.from_dict(json.loads(manifest_file.read_text()))
        assert reloaded.config == json.loads(_CONFIG.to_json())
        assert reloaded.schema_version == SCHEMA_VERSION
        assert reloaded.outcomes[0].text_sha256 == outcome.text_sha256

    def test_failure_is_isolated_and_retried(self, registry, tmp_path):
        payloads, manifest, _ = run_experiments(
            ["broken", "tiny"], _CONFIG, cache_dir=tmp_path / "store"
        )
        by_name = {payload["name"]: payload for payload in payloads}
        assert not by_name["broken"]["ok"]
        assert by_name["tiny"]["ok"], "one failure must not abort the batch"

        broken = next(o for o in manifest.outcomes if o.name == "broken")
        assert broken.attempts == 2, "failed experiments are retried once"
        assert "always broken" in broken.error
        assert manifest.failures == [broken]

    def test_transient_failure_recovers_on_retry(self, registry):
        payloads, manifest, _ = run_experiments(["flaky"], _CONFIG)
        assert payloads[0]["ok"] and payloads[0]["text"] == "recovered"
        assert manifest.outcomes[0].attempts == 2
        assert manifest.outcomes[0].error is None

    def test_seconds_are_cumulative_across_attempts(self, registry):
        # The manifest used to report only the final attempt's wall time,
        # hiding the failed first attempt entirely.
        _, manifest, _ = run_experiments(["flaky"], _CONFIG)
        outcome = manifest.outcomes[0]
        assert len(outcome.per_attempt) == 2
        assert all(seconds > 0 for seconds in outcome.per_attempt)
        # Cumulative wall includes the attempts plus the retry backoff.
        assert outcome.seconds >= sum(outcome.per_attempt)

    def test_single_attempt_per_attempt_shape(self, registry):
        _, manifest, _ = run_experiments(["tiny"], _CONFIG)
        outcome = manifest.outcomes[0]
        assert len(outcome.per_attempt) == 1
        assert outcome.seconds >= outcome.per_attempt[0]

    def test_result_artifact_persisted(self, registry, tmp_path):
        store_dir = tmp_path / "store"
        run_experiments(["tiny"], _CONFIG, cache_dir=store_dir)
        record = ArtifactStore(store_dir).get_json(config_key(_CONFIG), "results/tiny")
        assert record is not None
        assert record["name"] == "tiny"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["config"] == json.loads(_CONFIG.to_json())
        assert record["data"] == {"n_sites": 400}

    def test_no_cache_dir_means_no_manifest_file(self, registry):
        payloads, manifest, manifest_file = run_experiments(["tiny"], _CONFIG)
        assert manifest_file is None
        assert payloads[0]["ok"]
        assert manifest.cache_dir is None
        assert manifest.outcomes[0].cache == {}

    def test_explicit_manifest_path(self, registry, tmp_path):
        target = tmp_path / "deep" / "run.json"
        _, _, manifest_file = run_experiments(["tiny"], _CONFIG, manifest_path=target)
        assert manifest_file == target and target.exists()

    def test_keep_data_attaches_json_projection(self, registry):
        payloads, _, _ = run_experiments(["tiny"], _CONFIG, keep_data=True)
        assert payloads[0]["data"] == {"n_sites": 400}
        json.dumps(payloads[0]["data"])  # plain JSON types only

        payloads, _, _ = run_experiments(["tiny"], _CONFIG)
        assert "data" not in payloads[0], "data projection is opt-in"

    def test_outcomes_have_no_golden_status_outside_qa(self, registry):
        _, manifest, _ = run_experiments(["tiny"], _CONFIG)
        assert manifest.outcomes[0].golden_status is None
        assert manifest.qa is None
        assert "golden_status" in json.dumps(manifest.to_dict())


class TestPoolRunner:
    def test_worker_death_does_not_fabricate_attempts(self, registry, tmp_path):
        # A pool worker that dies (OOM-kill shape) must be reported with
        # attempts=0 (the true count is unknown) and elapsed-since-submit
        # timing — and, since the pool is poisoned, never hang the batch.
        # Workers fork, so they inherit the monkeypatched registry.
        payloads, manifest, _ = run_experiments(
            ["dying", "tiny"], _CONFIG, jobs=2, cache_dir=tmp_path / "store"
        )
        dying = next(o for o in manifest.outcomes if o.name == "dying")
        assert not dying.ok
        assert dying.worker_died
        assert dying.attempts == 0
        assert dying.seconds > 0, "elapsed-since-submit, never fabricated"
        assert dying.worker_pid == 0, "the reporting pid is unknown"
        assert manifest.faults is not None
        assert manifest.faults["worker_deaths"] >= 1

    def test_keep_data_crosses_the_pool(self, tmp_path):
        # Real registry entries: keeps the pool test meaningful even under
        # spawn semantics, using the two cheapest genuine experiments.
        payloads, manifest, _ = run_experiments(
            ["survey", "table1"], _CONFIG, jobs=2, cache_dir=tmp_path / "store",
            keep_data=True,
        )
        by_name = {p["name"]: p for p in payloads}
        assert by_name["survey"]["ok"] and by_name["table1"]["ok"]
        for payload in payloads:
            json.dumps(payload["data"])  # projection survived pickling
        assert "coverage" in by_name["table1"]["data"]
        assert not manifest.failures


class TestTracedRunner:
    def test_trace_is_opt_in(self, registry):
        payloads, manifest, _ = run_experiments(["tiny"], _CONFIG)
        assert "trace" not in payloads[0]
        assert manifest.timings is None

    def test_traced_run_attaches_spans_and_timings(self, registry):
        payloads, manifest, _ = run_experiments(["tiny"], _CONFIG, trace=True)
        root = Span.from_dict(payloads[0]["trace"])
        assert root.name == "tiny"
        # _tiny_experiment touches ctx.world, so the context choke point
        # must have recorded the artifact-construction span (under the
        # experiment's analysis span, where the world is first built).
        assert "context/world" in stage_totals(root)
        assert set(manifest.timings) == {"experiments", "stages"}
        assert set(manifest.timings["experiments"]) == {"tiny"}
        assert "context/world" in manifest.timings["stages"]

    def test_timings_round_trip_through_manifest_file(self, registry, tmp_path):
        target = tmp_path / "run.json"
        _, manifest, _ = run_experiments(
            ["tiny"], _CONFIG, manifest_path=target, trace=True
        )
        reloaded = RunManifest.from_dict(json.loads(target.read_text()))
        assert reloaded.timings == manifest.timings
        rebuilt = Span.from_dict(reloaded.timings["experiments"]["tiny"])
        assert stage_totals(rebuilt) == pytest.approx(
            reloaded.timings["stages"]
        )

    def test_build_timings_merges_across_workers(self):
        # Two root spans as two pool workers would serialize them: the
        # merged stage view sums wall time for the shared stage name.
        traces = {}
        for name in ("a", "b"):
            tracer = Tracer(name)
            with tracer.span("context/world"):
                pass
            traces[name] = tracer.finish().to_dict()
        timings = build_timings(traces)
        assert set(timings["experiments"]) == {"a", "b"}
        expected = sum(
            stage_totals(Span.from_dict(trace))["context/world"]
            for trace in traces.values()
        )
        assert timings["stages"]["context/world"] == pytest.approx(expected)

    def test_traces_merge_from_pool_workers(self, tmp_path):
        # Real registry entries (workers cannot see monkeypatched specs):
        # both experiments' span trees must land in one timings block.
        payloads, manifest, _ = run_experiments(
            ["survey", "table1"], _CONFIG, jobs=2,
            cache_dir=tmp_path / "store", trace=True,
        )
        assert all(isinstance(p.get("trace"), dict) for p in payloads)
        assert set(manifest.timings["experiments"]) == {"survey", "table1"}
        # table1 walks the full artifact chain in some worker process.
        assert "context/world" in manifest.timings["stages"]


class TestManifestAggregation:
    def _outcome(self, name, cache):
        return ExperimentOutcome(name=name, ok=True, seconds=1.0, worker_pid=1, cache=cache)

    def test_cache_totals_sum_by_kind(self):
        manifest = RunManifest(
            config={}, schema_version=SCHEMA_VERSION, jobs=2, cache_dir=None,
            started_unix=0.0,
            outcomes=[
                self._outcome("a", {"world": {"hits": 1}, "traffic": {"misses": 2, "puts": 2}}),
                self._outcome("b", {"world": {"hits": 1}, "traffic": {"hits": 2}}),
            ],
        )
        totals = manifest.cache_totals()
        assert totals["world"]["hits"] == 2
        assert totals["traffic"] == {"hits": 2, "misses": 2, "puts": 2}
        assert manifest.total_hits() == 4


class TestJsonable:
    def test_scalars_and_numpy(self):
        assert _jsonable(np.float64(0.5)) == 0.5
        assert _jsonable(np.int32(7)) == 7
        assert _jsonable(None) is None

    def test_small_array_inlined_large_summarized(self):
        assert _jsonable(np.arange(3)) == [0, 1, 2]
        summary = _jsonable(np.zeros((100, 100)))
        assert summary == {"__array__": True, "shape": [100, 100], "dtype": "float64"}

    def test_tuple_keys_joined(self):
        assert _jsonable({("alexa", "pageloads"): 0.4}) == {"alexa|pageloads": 0.4}

    def test_opaque_objects_reprd(self):
        value = _jsonable({"obj": object()})
        assert isinstance(value["obj"], str)
        json.dumps(value)  # everything must serialize
