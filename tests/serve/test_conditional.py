"""The versioned/cache-validatable list API: strong ETags, 304s with
zero store reads, rank diffs, stability analytics, and the canonical
error envelope.

Same tiny-registry pattern as ``test_server.py``; a module-scoped
service keeps the whole file on one warm world.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.faults import FaultPlan, FaultRule
from repro.faults import inject as fault_inject
from repro.gates import fetch
from repro.ranking.snapshots import canonical_bytes, snapshot_doc
from repro.runner import run_experiments
from repro.serve.server import MetricsService, ServeSettings
from repro.store import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
_NAMES = ("cond1", "cond2")


def _make_fn(name):
    def fn(ctx) -> ExperimentResult:
        return ExperimentResult(
            name=name, title=name.title(),
            data={"which": name, "n_sites": ctx.world.n_sites},
            text=f"{name} over {ctx.world.n_sites} sites",
        )

    return fn


@pytest.fixture(scope="module")
def tiny_registry():
    for name in _NAMES:
        SPECS[name] = ExperimentSpec(
            id=name, title=name.title(), fn=_make_fn(name),
            tags=("test",), required_artifacts=(),
        )
    yield list(_NAMES)
    for name in _NAMES:
        SPECS.pop(name, None)


@pytest.fixture(scope="module")
def service(tiny_registry, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("conditional-cache"))
    _payloads, manifest, _path = run_experiments(
        list(tiny_registry), _CONFIG, cache_dir=cache
    )
    assert not manifest.failures
    svc = MetricsService(
        _CONFIG, ArtifactStore(cache),
        settings=ServeSettings(
            port=0, max_inflight=8, queue_depth=8, deadline_ms=5000.0,
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


def _get(svc, path, headers=None):
    response = fetch(svc.host, svc.port, path, headers=headers)
    assert response is not None, f"no response for {path}"
    return response


def _store_reads(svc):
    stats = svc.store.stats
    return stats.total_hits + stats.total_misses


def _revalidate(svc, path):
    """GET once for the ETag, again with If-None-Match; returns both."""
    first = _get(svc, path)
    assert first.status == 200
    etag = first.headers.get("etag")
    assert etag, f"no ETag on 200 for {path}"
    second = _get(svc, path, headers={"If-None-Match": etag})
    return first, second


class TestExperimentEtags:
    def test_etag_is_the_store_checksum(self, service):
        response = _get(service, f"/v1/experiments/{_NAMES[0]}")
        assert response.status == 200
        # The checksum the store recorded in the artifact's header line.
        path = service.store._path(
            config_key(_CONFIG), f"results/{_NAMES[0]}", "json"
        )
        header = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        checksum = header.rpartition(" sha256=")[2]
        assert len(checksum) == 64
        assert response.headers["etag"] == '"%s"' % checksum

    def test_revalidation_304_with_zero_store_reads(self, service):
        path = f"/v1/experiments/{_NAMES[0]}"
        first = _get(service, path)
        etag = first.headers["etag"]
        before = _store_reads(service)
        second = _get(service, path, headers={"If-None-Match": etag})
        assert second.status == 304
        assert second.body == b""
        assert second.headers["etag"] == etag
        assert _store_reads(service) == before

    def test_stale_etag_gets_a_full_200(self, service):
        path = f"/v1/experiments/{_NAMES[0]}"
        response = _get(service, path, headers={"If-None-Match": '"stale"'})
        assert response.status == 200
        assert response.body

    def test_weak_and_star_validators_match(self, service):
        path = f"/v1/experiments/{_NAMES[1]}"
        etag = _get(service, path).headers["etag"]
        weak = _get(service, path, headers={"If-None-Match": f"W/{etag}"})
        assert weak.status == 304
        star = _get(service, path, headers={"If-None-Match": "*"})
        assert star.status == 304

    def test_experiments_index_revalidates(self, service):
        _, second = _revalidate(service, "/v1/experiments")
        assert second.status == 304


class TestListVersions:
    def test_list_body_carries_its_snapshot_version(self, service):
        response = _get(service, "/v1/lists/alexa/0?k=5")
        assert response.status == 200
        doc = json.loads(response.body)
        version = doc["version"]
        assert isinstance(version, str) and len(version) == 64
        # The version is the identity of the full (provider, day)
        # snapshot, so every k-slice of the same day shares it.
        other = json.loads(_get(service, "/v1/lists/alexa/0?k=25").body)
        assert other["version"] == version

    def test_list_revalidation_304(self, service):
        first, second = _revalidate(service, "/v1/lists/alexa/1?k=10")
        assert second.status == 304
        assert second.body == b""
        assert second.headers["etag"] == first.headers["etag"]

    def test_different_slices_have_different_etags(self, service):
        a = _get(service, "/v1/lists/alexa/0?k=5").headers["etag"]
        b = _get(service, "/v1/lists/alexa/0?k=10").headers["etag"]
        assert a != b

    def test_version_names_the_served_snapshot_not_a_file_on_disk(
        self, tiny_registry, tmp_path
    ):
        # An older snapshot file under the name list versions were once
        # stored as, and a store that went read-only on ENOSPC: the version
        # must still be the sha256 of the snapshot this process serves.
        store = ArtifactStore(tmp_path / "store")
        key = config_key(_CONFIG)
        store.put_json(key, "lists/alexa/day-0", {"stale": True})
        with fault_inject.injecting(
            FaultPlan([FaultRule("store.write.enospc", match="results/*")])
        ):
            store.put_json(key, "results/any", {})
        assert store.read_only
        svc = MetricsService(
            _CONFIG, store,
            settings=ServeSettings(port=0, deadline_ms=5000.0, drain_seconds=2.0),
            names=[],
        )
        svc.warm()
        svc.start()
        try:
            response = _get(svc, "/v1/lists/alexa/0?k=5")
        finally:
            svc.drain(reason="test")
        assert response.status == 200
        ctx = svc._context()
        snapshot = snapshot_doc(ctx.providers["alexa"].daily_list(0), ctx.world)
        expected = hashlib.sha256(canonical_bytes(snapshot)).hexdigest()
        assert json.loads(response.body)["version"] == expected


class TestDiffEndpoint:
    def test_diff_shape(self, service):
        response = _get(service, "/v1/lists/alexa/diff?from=0&to=1&k=25")
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["provider"] == "alexa"
        assert doc["from"] == 0 and doc["to"] == 1 and doc["k"] == 25
        assert isinstance(doc["entrants"], list)
        assert isinstance(doc["dropouts"], list)
        assert isinstance(doc["moved"], list)
        assert isinstance(doc["unchanged"], int)
        moved_total = len(doc["moved"]) + doc["unchanged"]
        assert moved_total + len(doc["entrants"]) == doc["to_count"]

    def test_diff_revalidation_304(self, service):
        _, second = _revalidate(service, "/v1/lists/alexa/diff?from=0&to=1&k=5")
        assert second.status == 304

    def test_diff_missing_params_is_400_enveloped(self, service):
        response = _get(service, "/v1/lists/alexa/diff?from=0")
        assert response.status == 400
        doc = json.loads(response.body)
        assert set(doc) >= {"error", "detail"}

    def test_diff_bad_day_is_404(self, service):
        response = _get(
            service, f"/v1/lists/alexa/diff?from=0&to={_CONFIG.n_days}"
        )
        assert response.status == 404
        assert "error" in json.loads(response.body)

    def test_diff_unknown_provider_is_404(self, service):
        response = _get(service, "/v1/lists/nope/diff?from=0&to=1")
        assert response.status == 404


class TestStabilityEndpoint:
    def test_stability_shape(self, service):
        response = _get(service, "/v1/lists/umbrella/stability?k=50")
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["provider"] == "umbrella"
        assert doc["k"] == 50
        assert doc["days"] == _CONFIG.n_days
        assert len(doc["churn"]) == _CONFIG.n_days
        assert len(doc["intersection_decay"]) == _CONFIG.n_days
        assert doc["churn"][0] == 0.0
        assert doc["intersection_decay"][0] == 1.0
        assert "weekday" in doc

    def test_stability_revalidation_304(self, service):
        _, second = _revalidate(service, "/v1/lists/umbrella/stability?k=50")
        assert second.status == 304

    def test_stability_unknown_provider_is_404(self, service):
        assert _get(service, "/v1/lists/nope/stability").status == 404


class TestErrorEnvelope:
    @pytest.mark.parametrize("path", [
        "/v1/nope",
        "/v1/lists/nope/0",
        "/v1/lists/alexa/99",
        "/v1/lists/alexa/0?k=zero",
        "/v1/experiments/ghost",
    ])
    def test_4xx_bodies_carry_the_envelope(self, service, path):
        response = _get(service, path)
        assert 400 <= response.status < 500
        doc = json.loads(response.body)
        assert isinstance(doc["error"], str) and doc["error"]
        assert "detail" in doc
        # retry_after appears exactly when the header does.
        assert ("retry_after" in doc) == ("retry-after" in response.headers)


class TestMetricz:
    def test_conditional_counters_surface(self, service):
        _revalidate(service, "/v1/lists/majestic/0?k=5")
        doc = json.loads(_get(service, "/metricz").body)
        conditional = doc["conditional"]
        assert conditional["not_modified_total"] >= 1
        assert conditional["etags_cached"] >= 1
        assert conditional["snapshot_versions"] >= 1
