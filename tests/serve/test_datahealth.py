"""Serving under data chaos: ``data_health`` on every list surface.

A module-scoped service armed with the default data plan (seed 11 over
an 8-day world) must mark every degraded day in its list bodies, key
ETags off the health-carrying snapshot (degraded can't collide with
clean), summarize degradation in the stability surface, admit the armed
state in the lists index, and expose the fired/digest accounting in
``/metricz`` with an in-run replay match.
"""

from __future__ import annotations

import json

import pytest

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.faults import inject as fault_inject
from repro.faults.plan import default_data_plan
from repro.gates import fetch
from repro.loadgen.personas import validate_data_health
from repro.runner import run_experiments
from repro.serve.server import MetricsService, ServeSettings
from repro.store import ArtifactStore
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=8, seed=11, tranco_window=3)
_NAME = "dh1"
_SEED = 11


@pytest.fixture(scope="module")
def tiny_registry():
    def fn(ctx) -> ExperimentResult:
        return ExperimentResult(
            name=_NAME, title="Dh1",
            data={"n_sites": ctx.world.n_sites}, text="dh1",
        )

    SPECS[_NAME] = ExperimentSpec(
        id=_NAME, title="Dh1", fn=fn, tags=("test",), required_artifacts=(),
    )
    yield [_NAME]
    SPECS.pop(_NAME, None)


@pytest.fixture(scope="module")
def service(tiny_registry, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("datahealth-cache"))
    _payloads, manifest, _path = run_experiments(
        list(tiny_registry), _CONFIG, cache_dir=cache
    )
    assert not manifest.failures
    fault_inject.activate(default_data_plan(_SEED, _CONFIG.n_days))
    svc = MetricsService(
        _CONFIG, ArtifactStore(cache),
        settings=ServeSettings(
            port=0, max_inflight=8, queue_depth=8, deadline_ms=10000.0,
            drain_seconds=2.0,
        ),
        names=list(tiny_registry),
    )
    svc.warm()
    svc.start()
    yield svc
    fault_inject.activate(None)
    if not svc.draining:
        svc.drain(reason="test")


def _get_json(svc, path, headers=None):
    response = fetch(svc.host, svc.port, path, headers=headers)
    assert response is not None, f"no response for {path}"
    return response, (json.loads(response.body) if response.status == 200
                      else None)


class TestListBodies:
    def test_every_provider_day_carries_well_formed_health(self, service):
        for provider in ("alexa", "umbrella", "majestic", "tranco"):
            for day in range(_CONFIG.n_days):
                response, body = _get_json(
                    service, f"/v1/lists/{provider}/{day}?k=20"
                )
                assert response.status == 200, (provider, day)
                health = body.get("data_health")
                assert health is not None, (provider, day)
                assert validate_data_health(health) is None, (
                    provider, day, health
                )

    def test_some_days_are_actually_degraded(self, service):
        degraded = set()
        for provider in ("alexa", "umbrella", "majestic"):
            for day in range(_CONFIG.n_days):
                _, body = _get_json(service,
                                    f"/v1/lists/{provider}/{day}?k=20")
                if body["data_health"]["degraded"]:
                    degraded.add(body["data_health"]["status"])
        assert degraded, "the default plan must degrade visible days"

    def test_day_zero_is_clean_everywhere(self, service):
        for provider in ("alexa", "umbrella", "majestic"):
            _, body = _get_json(service, f"/v1/lists/{provider}/0?k=20")
            assert body["data_health"]["status"] == "clean"
            assert body["data_health"]["degraded"] is False

    def test_tranco_component_faults_do_not_break_the_aggregate(
        self, service
    ):
        # Tranco is aggregated downstream of its own clean components
        # here; its wrapper health must be clean and the body complete.
        for day in range(_CONFIG.n_days):
            _, body = _get_json(service, f"/v1/lists/tranco/{day}?k=20")
            assert body["data_health"]["status"] == "clean"
            assert body["count"] == 20

    def test_degraded_day_revalidates_like_any_other(self, service):
        # Find a degraded day, then 304 it: the ETag is the version of
        # the health-carrying snapshot, so revalidation still works.
        for provider in ("alexa", "umbrella", "majestic"):
            for day in range(1, _CONFIG.n_days):
                response, body = _get_json(
                    service, f"/v1/lists/{provider}/{day}?k=20"
                )
                if not body["data_health"]["degraded"]:
                    continue
                etag = response.headers.get("etag")
                assert etag
                again = fetch(service.host, service.port,
                              f"/v1/lists/{provider}/{day}?k=20",
                              headers={"If-None-Match": etag})
                assert again.status == 304
                return
        pytest.fail("no degraded day found")


class TestStabilityAndIndex:
    def test_stability_summarizes_degraded_days(self, service):
        _, body = _get_json(service, "/v1/lists/alexa/stability?k=50")
        health = body.get("data_health")
        assert health is not None
        assert isinstance(health["degraded_days"], int)
        assert isinstance(health["by_status"], dict)
        assert health["degraded_days"] == len(body["degraded_days"])

    def test_lists_index_admits_data_chaos(self, service):
        _, body = _get_json(service, "/v1/lists")
        assert body.get("data_chaos") is True

    def test_metricz_data_block_accounts_and_replays(self, service):
        # Force full resolution first so the fired set is complete.
        for provider in ("alexa", "umbrella", "majestic"):
            _get_json(service,
                      f"/v1/lists/{provider}/{_CONFIG.n_days - 1}?k=10")
        _, body = _get_json(service, "/metricz")
        data = body["data"]
        assert data["armed"] is True
        assert data["digest"] is not None
        assert data["digest"] == data["replay_digest"]
        assert set(data["fired"]) == {
            "data.day.missing", "data.day.stale_repeat",
            "data.day.truncated", "data.day.duplicate_ranks",
            "data.day.schema_drift", "data.provider.retired",
        }
        for name in ("alexa", "umbrella", "majestic"):
            assert data["providers"][name]["days_resolved"] == _CONFIG.n_days
