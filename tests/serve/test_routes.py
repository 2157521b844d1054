"""The route table: one entry per endpoint, and the answers it gives.

The answer table below was recorded against the hand-written dispatcher
the table replaced; each row is (path, status, ``error`` token, route
label).  A label of None marks a malformed list path, which may match
no list route and be labelled ``unknown``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.gates import fetch
from repro.runner import run_experiments
from repro.serve.server import ROUTES, MetricsService, ServeSettings
from repro.store import ArtifactStore
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
_NAME = "route1"

ANSWERS = [
    ("/healthz", 200, None, "healthz"),
    ("/readyz", 200, None, "readyz"),
    ("/metricz", 200, None, "metricz"),
    ("/v1/experiments", 200, None, "experiments"),
    (f"/v1/experiments/{_NAME}", 200, None, "experiment"),
    ("/v1/experiments/nope", 404, "not_found", "experiment"),
    ("/v1/experiments/", 404, "not_found", "experiment"),
    ("/v1/experiments/a/b", 404, "not_found", "experiment"),
    ("/v1/lists", 200, None, "lists-index"),
    ("/v1/lists/", 200, None, "lists-index"),
    ("/v1/lists/alexa/0?k=5", 200, None, "lists"),
    ("/v1/lists/alexa/99", 404, "not_found", "lists"),
    ("/v1/lists/alexa/x", 404, "not_found", "lists"),
    ("/v1/lists/alexa/0?k=0", 400, "bad_request", "lists"),
    ("/v1/lists/alexa/0?k=zero", 400, "bad_request", "lists"),
    ("/v1/lists/nope/0", 404, "not_found", "lists"),
    # The parameter check comes before the provider check.
    ("/v1/lists/nope/0?k=0", 400, "bad_request", "lists"),
    ("/v1/lists/alexa/diff?to=1", 400, "bad_request", "lists-diff"),
    ("/v1/lists/alexa/diff?from=0&to=99", 404, "not_found", "lists-diff"),
    ("/v1/lists/alexa/diff?from=0&to=1&k=5", 200, None, "lists-diff"),
    ("/v1/lists/nope/diff?from=0&to=1", 404, "not_found", "lists-diff"),
    ("/v1/lists/alexa/stability?k=0", 400, "bad_request", "lists-stability"),
    ("/v1/lists/alexa/stability?k=5", 200, None, "lists-stability"),
    ("/v1/lists/nope/stability", 404, "not_found", "lists-stability"),
    ("/v1/lists/alexa/0/x", 404, "not_found", None),
    ("/v1/lists/alexa", 404, "not_found", None),
    ("/v1/lists//0", 404, "not_found", None),
    ("/nope", 404, "not_found", "unknown"),
]

#: Paths revalidated with their own ETag after the table's requests.
REVALIDATED = ["/v1/experiments", f"/v1/experiments/{_NAME}", "/v1/lists/alexa/0?k=5"]

#: ``/metricz`` after the well-formed table rows, then REVALIDATED
#: (one plain GET and one conditional GET each), as the hand-written
#: dispatcher reported it (``uptime_seconds`` and ``config_key`` left
#: out).
METRICZ = {
    "breaker/closes": 0, "breaker/consecutive_failures": 0,
    "breaker/cooldown_seconds": 0.5, "breaker/failure_threshold": 3,
    "breaker/failures_total": 0, "breaker/opens": 0, "breaker/probes": 0,
    "breaker/state": "closed",
    "conditional/etags_cached": 3, "conditional/not_modified_total": 3,
    "conditional/snapshot_versions": 1,
    "connections/active": 1, "connections/idle_timeout_seconds": 30.0,
    "connections/lifetime_seconds": 120.0,
    "connections/max_header_bytes": 16384, "connections/max_header_count": 64,
    "connections/reaped": 0,
    "counters/serve.bodies_replayed": 1.0, "counters/serve.not_modified": 3.0,
    "counters/serve.requests": 31.0, "counters/serve.status.2xx": 13.0,
    "counters/serve.status.3xx": 3.0, "counters/serve.status.4xx": 15.0,
    "data/armed": False, "data/digest": None, "data/replay_digest": None,
    "deadline/deadline_ms": 5000.0, "deadline/timeouts": 0,
    "draining": False,
    "last_known_good/capacity": 64, "last_known_good/non_golden_blocked": 0,
    "last_known_good/repairs": 0, "last_known_good/serves": 0,
    "last_known_good/size": 1,
    "ready": True,
    "requests/by_route/experiment": 6, "requests/by_route/experiments": 3,
    "requests/by_route/healthz": 1, "requests/by_route/lists": 9,
    "requests/by_route/lists-diff": 4, "requests/by_route/lists-index": 2,
    "requests/by_route/lists-stability": 3, "requests/by_route/metricz": 1,
    "requests/by_route/readyz": 1, "requests/by_route/unknown": 1,
    "requests/by_status/200": 13, "requests/by_status/304": 3,
    "requests/by_status/400": 5, "requests/by_status/404": 10,
    "requests/client_gone": 0, "requests/protocol_errors": 0,
    "requests/total": 31,
    "retry_after/cap_seconds": 30, "retry_after/current_seconds": 1,
    "retry_after/floor_seconds": 1,
    "shed/admitted_total": 28, "shed/inflight": 0, "shed/max_inflight": 8,
    "shed/queue_depth": 16, "shed/shed_total": 0, "shed/waiting": 0,
    "store/corrupt": 0, "store/quarantined": 0, "store/read_only": False,
    "store/snapshot/results/hits": 3, "store/snapshot/results/misses": 0,
    "store/snapshot/results/puts": 0,
}


def _fn(ctx) -> ExperimentResult:
    return ExperimentResult(
        name=_NAME, title=_NAME.title(),
        data={"which": _NAME, "n_sites": ctx.world.n_sites},
        text=f"{_NAME} over {ctx.world.n_sites} sites",
    )


@pytest.fixture(scope="module")
def served_cache(tmp_path_factory):
    SPECS[_NAME] = ExperimentSpec(
        id=_NAME, title=_NAME.title(), fn=_fn, tags=("test",),
        required_artifacts=(),
    )
    cache = str(tmp_path_factory.mktemp("routes-cache"))
    _payloads, manifest, _path = run_experiments([_NAME], _CONFIG, cache_dir=cache)
    assert not manifest.failures
    yield cache
    SPECS.pop(_NAME, None)


def _start(cache, **overrides):
    settings = dict(port=0, deadline_ms=5000.0, drain_seconds=2.0)
    settings.update(overrides)
    svc = MetricsService(_CONFIG, ArtifactStore(cache),
                         settings=ServeSettings(**settings), names=[_NAME])
    svc.warm()
    svc.start()
    return svc


@pytest.fixture()
def service(served_cache):
    svc = _start(served_cache)
    yield svc
    svc.drain(reason="test")


@pytest.fixture(scope="module")
def shared_service(served_cache):
    svc = _start(served_cache)
    yield svc
    svc.drain(reason="test")


def _get(svc, path, headers=None):
    response = fetch(svc.host, svc.port, path, headers=headers)
    assert response is not None, f"no response for {path}"
    return response


def _metricz(svc):
    return json.loads(_get(svc, "/metricz").body)


def _flatten(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}/{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


class TestTable:
    def test_each_route_is_named_once(self):
        names = [route.name for route in ROUTES]
        assert len(names) == len(set(names))
        assert set(names) == {
            "healthz", "readyz", "metricz", "experiments", "experiment",
            "lists-index", "lists-diff", "lists-stability", "lists", "unknown",
        }

    def test_only_the_health_routes_bypass_admission(self):
        bypass = {route.name for route in ROUTES if not route.admitted}
        assert bypass == {"healthz", "readyz", "metricz"}

    def test_every_handler_exists(self):
        for route in ROUTES:
            assert callable(getattr(MetricsService, route.handler, None)), route


class TestAnswers:
    @pytest.mark.parametrize(
        "path,status,token,label", ANSWERS, ids=[row[0] for row in ANSWERS]
    )
    def test_answer(self, shared_service, path, status, token, label):
        before = _metricz(shared_service)["requests"]["by_route"]
        response = _get(shared_service, path)
        after = _metricz(shared_service)["requests"]["by_route"]
        assert response.status == status
        if token is not None:
            assert json.loads(response.body)["error"] == token
        if label is not None:
            # The first /metricz read is itself counted by the second.
            before["metricz"] = before.get("metricz", 0) + 1
            moved = {
                route for route, count in after.items()
                if count != before.get(route, 0)
            }
            assert moved == {label}

    def test_metricz_counts_each_event_once(self, service):
        for path, _status, _token, label in ANSWERS:
            if label is not None:
                _get(service, path)
        for path in REVALIDATED:
            etag = _get(service, path).headers["etag"]
            assert _get(service, path, {"If-None-Match": etag}).status == 304
        doc = _metricz(service)
        flat = _flatten(doc)
        for key, value in METRICZ.items():
            assert flat.get(key, "missing") == value, key
        counters = doc["counters"]
        for code, count in doc["requests"]["by_status"].items():
            assert counters[f"serve.by_status.{code}"] == count
        for route, count in doc["requests"]["by_route"].items():
            assert counters[f"serve.by_route.{route}"] == count


class TestDeadlines:
    def test_stability_walk_out_of_budget_counts_one_timeout(
        self, served_cache, monkeypatch
    ):
        svc = _start(served_cache, deadline_ms=300.0)
        try:
            ranked = svc._ranked

            def slow_ranked(provider, day):
                time.sleep(0.4)
                return ranked(provider, day)

            monkeypatch.setattr(svc, "_ranked", slow_ranked)
            response = _get(svc, "/v1/lists/alexa/stability?k=5")
            assert response.status == 504
            assert json.loads(response.body)["error"] == "deadline"
            assert "retry-after" in response.headers
            doc = _metricz(svc)
            assert doc["deadline"]["timeouts"] == 1
            assert doc["counters"]["serve.deadline_timeouts"] == 1
            assert doc["requests"]["by_status"] == {"504": 1}
        finally:
            svc.drain(reason="test")

    def test_experiment_deadline_returns_the_probe_slot(
        self, served_cache, monkeypatch
    ):
        svc = _start(served_cache, deadline_ms=300.0)
        try:
            allow = svc.breaker.allow
            successes = []

            def slow_allow():
                time.sleep(0.4)
                return allow()

            monkeypatch.setattr(svc.breaker, "allow", slow_allow)
            monkeypatch.setattr(svc.breaker, "record_success",
                                lambda: successes.append(1))
            response = _get(svc, f"/v1/experiments/{_NAME}")
            assert response.status == 504
            assert successes == [1]
            assert _metricz(svc)["deadline"]["timeouts"] == 1
        finally:
            svc.drain(reason="test")


class TestListsIndexRevalidates:
    def test_own_etag_answers_304_with_zero_store_reads(self, service):
        first = _get(service, "/v1/lists")
        assert first.status == 200
        etag = first.headers["etag"]
        stats = service.store.stats
        reads = stats.total_hits + stats.total_misses
        revalidated = _get(service, "/v1/lists", {"If-None-Match": etag})
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.headers["etag"] == etag
        assert stats.total_hits + stats.total_misses == reads
