"""The serve hot path moves bytes: stored experiment payloads replayed
without a JSON round trip, list-shaped bodies rendered once per key.

Each test gets its own service over a fresh copy of one tiny results
cache, so tampering with ``results/<name>`` or arming data chaos never
leaks into another test.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import types

import pytest

import repro.serve.server as server_module
from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.faults import inject as fault_inject
from repro.faults.plan import default_data_plan
from repro.gates import fetch
from repro.ranking.snapshots import canonical_bytes, snapshot_doc
from repro.runner import run_experiments
from repro.serve.server import MetricsService, ServeSettings
from repro.store import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=8, seed=11, tranco_window=3)
_NAMES = ("hot1", "hot2")
_HEADER = b"repro-artifact/1 sha256="


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
def results_cache(tiny_registry, tmp_path_factory):
    cache = tmp_path_factory.mktemp("hotpath-cache")
    _payloads, manifest, _path = run_experiments(
        list(tiny_registry), _CONFIG, cache_dir=str(cache)
    )
    assert not manifest.failures
    return cache


def _start(cache, names, tmp_path, build_lists):
    store_dir = tmp_path / "store"
    shutil.copytree(cache, store_dir)
    svc = MetricsService(
        _CONFIG, ArtifactStore(store_dir),
        settings=ServeSettings(
            port=0, max_inflight=4, queue_depth=4, deadline_ms=10000.0,
            breaker_threshold=5, drain_seconds=2.0,
        ),
        names=names,
    )
    svc.warm(build_lists=build_lists)
    svc.start()
    return svc


@pytest.fixture()
def service(results_cache, tiny_registry, tmp_path):
    svc = _start(results_cache, list(tiny_registry), tmp_path, build_lists=False)
    yield svc
    fault_inject.activate(None)
    if not svc.draining:
        svc.drain(reason="test")


@pytest.fixture()
def list_service(results_cache, tmp_path):
    svc = _start(results_cache, [], tmp_path, build_lists=True)
    yield svc
    fault_inject.activate(None)
    if not svc.draining:
        svc.drain(reason="test")


def _get(svc, path, headers=None):
    response = fetch(svc.host, svc.port, path, headers=headers)
    assert response is not None, f"no response for {path}"
    return response


def _result_file(svc, name):
    return svc.store._path(config_key(_CONFIG), f"results/{name}", "json")


def _plant(svc, name, payload):
    """Overwrite ``results/<name>`` with a checksum-valid ``payload``."""
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    _result_file(svc, name).write_bytes(_HEADER + digest + b"\n" + payload)


def _header_checksum(svc, name):
    header = _result_file(svc, name).read_bytes().split(b"\n", 1)[0]
    return header.decode("ascii").rpartition(" sha256=")[2]


def _counter(svc, name):
    with svc.tracer._root_lock:
        return svc.tracer.root.counters.get(name, 0)


class _CallCounter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture()
def spies(monkeypatch):
    """Count the server module's JSON decodes and canonical encodes."""
    loads = _CallCounter(json.loads)
    spy_json = types.SimpleNamespace(**{
        key: getattr(json, key) for key in ("JSONDecodeError", "dumps")
    })
    spy_json.loads = loads
    monkeypatch.setattr(server_module, "json", spy_json)
    encode = _CallCounter(canonical_bytes)
    monkeypatch.setattr(server_module, "canonical_bytes", encode)
    return types.SimpleNamespace(loads=loads, canonical_bytes=encode)


class TestStoredPayloads:
    def test_drifted_payload_answers_last_known_good(self, service):
        baseline = _get(service, "/v1/experiments/hot1")
        blob = json.loads(baseline.body)
        blob["text"] = "someone else's numbers"
        _plant(service, "hot1", canonical_bytes(blob))
        failures = service.breaker.snapshot()["failures_total"]
        response = _get(service, "/v1/experiments/hot1")
        assert response.status == 200
        assert response.body == baseline.body
        assert response.headers["etag"] == baseline.headers["etag"]
        assert response.headers["x-repro-source"] == "last-known-good"
        assert service.non_golden_blocked == 1
        assert service.breaker.snapshot()["failures_total"] == failures + 1
        assert service.repairs == 0  # drift is refused, never overwritten

    @pytest.mark.parametrize("payload", [
        b"not json at all",
        json.dumps({"schema_version": 999, "name": "hot2"}).encode(),
    ], ids=["not-json", "other-schema-version"])
    def test_invalid_payload_answers_last_known_good_and_is_repaired(
        self, service, payload
    ):
        baseline = _get(service, "/v1/experiments/hot2")
        _plant(service, "hot2", payload)
        response = _get(service, "/v1/experiments/hot2")
        assert response.status == 200
        assert response.body == baseline.body
        assert response.headers["x-repro-source"] == "last-known-good"
        assert service.repairs == 1
        assert service.log.events("store.repair")

    def test_repair_restores_the_reference_checksum(self, service):
        baseline = _get(service, "/v1/experiments/hot2")
        etag = baseline.headers["etag"]
        _plant(service, "hot2", b"[1, 2, 3]")
        assert _get(service, "/v1/experiments/hot2").headers[
            "x-repro-source"] == "last-known-good"
        assert '"%s"' % _header_checksum(service, "hot2") == etag
        healed = _get(service, "/v1/experiments/hot2")
        assert healed.headers["x-repro-source"] == "store"
        assert healed.body == baseline.body
        assert healed.headers["etag"] == etag

    def test_non_canonical_payload_serves_canonical_bytes(self, service):
        baseline = _get(service, "/v1/experiments/hot1")
        blob = json.loads(baseline.body)
        _plant(service, "hot1", json.dumps(blob, indent=2).encode())
        response = _get(service, "/v1/experiments/hot1")
        assert response.headers["x-repro-source"] == "store"
        assert response.body == baseline.body
        assert response.headers["etag"] == baseline.headers["etag"]
        assert _counter(service, "serve.results_decoded") == 1

    def test_steady_read_is_one_store_read_and_no_decode(self, service, spies):
        first = _get(service, "/v1/experiments/hot1")
        hits = service.store.stats.hits.get("results", 0)
        second = _get(service, "/v1/experiments/hot1")
        assert second.status == 200
        assert second.headers["x-repro-source"] == "store"
        assert second.body == first.body
        assert second.headers["etag"] == first.headers["etag"]
        assert first.headers["etag"] == '"%s"' % hashlib.sha256(first.body).hexdigest()
        assert service.store.stats.hits.get("results", 0) == hits + 1
        assert spies.loads.calls == 0
        assert spies.canonical_bytes.calls == 0
        assert _counter(service, "serve.results_decoded") == 0


class TestResponseCache:
    @pytest.mark.parametrize("path", [
        "/v1/lists/alexa/1?k=10",
        "/v1/lists/alexa/diff?from=0&to=3&k=10",
        "/v1/lists/alexa/stability?k=10",
    ], ids=["list", "diff", "stability"])
    def test_repeat_200_replays_the_first_body(
        self, list_service, spies, monkeypatch, path
    ):
        first = _get(list_service, path)
        assert first.status == 200
        provider = list_service._context().providers["alexa"]
        daily_list = _CallCounter(provider.daily_list)
        monkeypatch.setattr(provider, "daily_list", daily_list)
        doc = _CallCounter(server_module.snapshot_doc)
        monkeypatch.setattr(server_module, "snapshot_doc", doc)
        encodes = spies.canonical_bytes.calls
        replayed = _counter(list_service, "serve.bodies_replayed")
        second = _get(list_service, path)
        assert second.status == 200
        assert second.body == first.body
        assert second.headers["etag"] == first.headers["etag"]
        assert daily_list.calls == 0
        assert doc.calls == 0
        assert spies.canonical_bytes.calls == encodes
        assert _counter(list_service, "serve.bodies_replayed") == replayed + 1

    def test_cache_is_bounded_and_304s_read_nothing(
        self, list_service, monkeypatch
    ):
        monkeypatch.setattr(server_module, "ETAG_CACHE_CAPACITY", 4)
        etags = {}
        for k in range(1, 8):
            response = _get(list_service, f"/v1/lists/umbrella/2?k={k}")
            assert response.status == 200
            etags[k] = response.headers["etag"]
            assert len(list_service._responses) <= 4
        doc = json.loads(_get(list_service, "/metricz").body)
        assert doc["conditional"]["etags_cached"] == 4
        stats = list_service.store.stats
        reads = stats.total_hits + stats.total_misses
        revalidated = _get(list_service, "/v1/lists/umbrella/2?k=7",
                           headers={"If-None-Match": etags[7]})
        assert revalidated.status == 304
        assert stats.total_hits + stats.total_misses == reads
        # An evicted key re-renders the same bytes.
        again = _get(list_service, "/v1/lists/umbrella/2?k=1")
        assert again.status == 200
        assert again.headers["etag"] == etags[1]


class TestDataChaosArmedAtRuntime:
    def test_version_and_etag_follow_the_armed_state(self, list_service):
        path = "/v1/lists/alexa/1?k=10"
        clean = _get(list_service, path)
        assert "data_health" not in json.loads(clean.body)
        fault_inject.activate(default_data_plan(11, _CONFIG.n_days))
        marked = _get(list_service, path,
                      headers={"If-None-Match": clean.headers["etag"]})
        assert marked.status == 200, "a clean ETag must not revalidate a marked body"
        body = json.loads(marked.body)
        health = body["data_health"]
        assert marked.headers["etag"] != clean.headers["etag"]
        ctx = list_service._context()
        ranked, resolved_health = list_service._data_resolve("alexa", 1)
        assert resolved_health == health
        snapshot = snapshot_doc(ranked, ctx.world, data_health=health)
        assert body["version"] == hashlib.sha256(canonical_bytes(snapshot)).hexdigest()
        assert body["version"] != json.loads(clean.body)["version"]
