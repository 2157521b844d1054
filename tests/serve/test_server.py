"""MetricsService over real sockets: routes, breaker, shedding, drain.

The tests register throwaway tiny experiments (the runner-test pattern)
and serve them at a 400-site world so the whole module stays fast; the
full-scale path is covered by ``repro serve --selftest`` in CI.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.faults import FaultPlan, FaultRule
from repro.faults import inject as fault_inject
from repro.gates import fetch
from repro.runner import run_experiments
from repro.serve.breaker import BreakerState
from repro.serve.server import (
    RETRY_AFTER_CAP,
    MetricsService,
    ServeSettings,
    dynamic_retry_after,
)
from repro.store import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
_NAMES = ("srv1", "srv2", "srv3", "srv4")


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
    """Throwaway specs registered in the live SPECS dict (shared by the
    runner and the server, which both hold references to it)."""
    for name in _NAMES:
        SPECS[name] = ExperimentSpec(
            id=name, title=name.title(), fn=_make_fn(name),
            tags=("test",), required_artifacts=(),
        )
    yield list(_NAMES)
    for name in _NAMES:
        SPECS.pop(name, None)


@pytest.fixture(scope="module")
def served_cache(tiny_registry, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("serve-cache"))
    _payloads, manifest, _path = run_experiments(
        list(tiny_registry), _CONFIG, cache_dir=cache
    )
    assert not manifest.failures
    return cache


def _settings(**overrides):
    base = dict(
        port=0, max_inflight=4, queue_depth=4, deadline_ms=2000.0,
        breaker_threshold=2, breaker_cooldown_seconds=0.2,
        drain_seconds=2.0,
    )
    base.update(overrides)
    return ServeSettings(**base)


@pytest.fixture()
def service(served_cache, tiny_registry):
    svc = MetricsService(
        _CONFIG, ArtifactStore(served_cache),
        settings=_settings(), names=list(tiny_registry),
    )
    svc.warm()
    svc.start()
    yield svc
    fault_inject.activate(None)
    if not svc.draining:
        svc.drain(reason="test")


def _get(svc, path):
    response = fetch(svc.host, svc.port, path)
    assert response is not None, f"no response for {path}"
    return response


class TestRoutes:
    def test_healthz(self, service):
        response = _get(service, "/healthz")
        assert response.status == 200
        assert json.loads(response.body) == {"status": "alive"}

    def test_readyz_after_warm(self, service):
        assert _get(service, "/readyz").status == 200

    def test_experiments_index(self, service):
        response = _get(service, "/v1/experiments")
        assert response.status == 200
        doc = json.loads(response.body)
        rows = {row["id"]: row for row in doc["experiments"]}
        assert set(rows) == set(_NAMES)
        assert all(row["status"] == "available" for row in rows.values())

    def test_experiment_body(self, service):
        response = _get(service, "/v1/experiments/srv1")
        assert response.status == 200
        assert response.headers["x-repro-source"] == "store"
        blob = json.loads(response.body)
        assert blob["name"] == "srv1"
        assert blob["data"]["n_sites"] == _CONFIG.n_sites

    def test_content_length_matches_body(self, service):
        response = _get(service, "/v1/experiments/srv2")
        assert int(response.headers["content-length"]) == len(response.body)

    def test_unknown_experiment_404(self, service):
        assert _get(service, "/v1/experiments/nope").status == 404

    def test_unknown_route_404(self, service):
        assert _get(service, "/v2/anything").status == 404

    def test_lists_index(self, service):
        response = _get(service, "/v1/lists")
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["days"] == _CONFIG.n_days
        assert doc["default_k"] == service.settings.default_k
        assert doc["max_k"] == service.settings.max_k
        assert doc["config_key"] == config_key(_CONFIG)
        rows = doc["providers"]
        assert [row["id"] for row in rows] == sorted(row["id"] for row in rows)
        assert rows, "a warm service advertises at least one provider"
        for row in rows:
            assert row["days"] == _CONFIG.n_days
            assert row["path"] == f"/v1/lists/{row['id']}/<day>?k=<k>"

    def test_lists_index_rows_resolve(self, service):
        doc = json.loads(_get(service, "/v1/lists").body)
        provider = doc["providers"][0]["id"]
        response = _get(service, f"/v1/lists/{provider}/0?k=5")
        assert response.status == 200
        assert json.loads(response.body)["provider"] == provider

    def test_lists_index_trailing_slash_is_the_index(self, service):
        assert json.loads(_get(service, "/v1/lists/").body) == json.loads(
            _get(service, "/v1/lists").body
        )

    def test_lists_endpoint(self, service):
        response = _get(service, "/v1/lists/alexa/0?k=7")
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["provider"] == "alexa"
        assert doc["k"] == 7
        assert doc["count"] == 7
        assert len(doc["names"]) == 7

    def test_lists_bucketed_provider_reports_bounds(self, service):
        response = _get(service, "/v1/lists/crux/0?k=50")
        doc = json.loads(response.body)
        assert doc["bucketed"] is True
        assert doc["bucket_bounds"][-1] == doc["count"]

    def test_lists_unknown_provider_404(self, service):
        assert _get(service, "/v1/lists/nope/0").status == 404

    def test_lists_day_out_of_range_404(self, service):
        assert _get(service, f"/v1/lists/alexa/{_CONFIG.n_days}").status == 404
        assert _get(service, "/v1/lists/alexa/-1").status == 404

    def test_lists_bad_k_400(self, service):
        assert _get(service, "/v1/lists/alexa/0?k=zero").status == 400
        assert _get(service, "/v1/lists/alexa/0?k=0").status == 400

    def test_lists_k_clamped_to_max(self, service):
        response = _get(service, "/v1/lists/alexa/0?k=999999")
        doc = json.loads(response.body)
        assert doc["k"] <= service.settings.max_k

    def test_metricz_counters(self, service):
        _get(service, "/v1/experiments/srv1")
        # Accounting lands just after the response bytes flush: poll so a
        # fast /metricz read cannot race the prior request's counters.
        deadline = time.monotonic() + 2.0
        while True:
            doc = json.loads(_get(service, "/metricz").body)
            if doc["requests"]["total"] >= 1 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert doc["ready"] is True
        assert doc["requests"]["total"] >= 1
        assert doc["breaker"]["state"] == BreakerState.CLOSED
        assert doc["shed"]["max_inflight"] == 4
        assert "counters" in doc


class TestBreakerIntegration:
    def test_corrupt_read_serves_last_known_good_and_repairs(self, service):
        baseline = _get(service, "/v1/experiments/srv1").body
        plan = FaultPlan(
            rules=[FaultRule("store.read.corrupt", match="results/srv1")],
            seed=7,
        )
        fault_inject.activate(plan)
        try:
            poisoned = _get(service, "/v1/experiments/srv1")
        finally:
            fault_inject.activate(None)
        assert poisoned.status == 200
        assert poisoned.body == baseline
        assert poisoned.headers["x-repro-source"] == "last-known-good"
        assert service.repairs == 1
        # The repair wrote the blob back: the next read is a clean hit.
        healed = _get(service, "/v1/experiments/srv1")
        assert healed.headers["x-repro-source"] == "store"
        assert healed.body == baseline

    def test_breaker_opens_serves_cached_then_recloses(self, service):
        for name in ("srv1", "srv2"):
            baseline = _get(service, f"/v1/experiments/{name}")
            assert baseline.status == 200
        plan = FaultPlan(
            rules=[FaultRule("store.read.corrupt", match="results/*")],
            seed=7,
        )
        fault_inject.activate(plan)
        try:
            # threshold=2: two consecutive poisoned reads open the circuit,
            # both still answered 200 from last-known-good.
            assert _get(service, "/v1/experiments/srv1").status == 200
            assert _get(service, "/v1/experiments/srv2").status == 200
            assert service.breaker.state == BreakerState.OPEN
            # While open the store is never read: untouched fault budget.
            open_hit = _get(service, "/v1/experiments/srv3")
            assert open_hit.status == 200
            assert open_hit.headers["x-repro-source"] == "last-known-good"
            # After the cooldown, the half-open probe reads the repaired
            # blob (its corrupt budget was spent tripping) and re-closes.
            time.sleep(0.25)
            probe = _get(service, "/v1/experiments/srv1")
            assert probe.status == 200
            assert service.breaker.state == BreakerState.CLOSED
        finally:
            fault_inject.activate(None)
        assert service.breaker.opens >= 1
        assert service.breaker.closes >= 1
        assert service.log.events("breaker.open")
        assert service.log.events("breaker.close")


class TestSheddingIntegration:
    def test_saturated_gate_sheds_with_retry_after(self, service):
        held = 0
        try:
            while service.gate.try_acquire() is None:
                held += 1
            burst = service.settings.queue_depth + 3
            results = [None] * burst

            def request(i):
                results[i] = fetch(service.host, service.port,
                                   "/v1/experiments/srv1")

            threads = [threading.Thread(target=request, args=(i,))
                       for i in range(burst)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for _ in range(held):
                service.gate.release()
        for response in results:
            assert response is not None
            assert response.status == 503
            assert "retry-after" in response.headers
        assert service.gate.shed_total >= burst

    def test_health_endpoints_bypass_admission(self, service):
        held = 0
        try:
            while service.gate.try_acquire() is None:
                held += 1
            assert _get(service, "/healthz").status == 200
            assert _get(service, "/metricz").status == 200
        finally:
            for _ in range(held):
                service.gate.release()


class TestRetryAfter:
    """Every 503/504 carries an integer-seconds Retry-After derived from
    live load (queue backlog, breaker cooldown) — the loadgen contract."""

    def test_floor_applies_when_idle(self):
        assert dynamic_retry_after(1, waiting=0, capacity=4,
                                   deadline_ms=2000.0) == 1
        assert dynamic_retry_after(5, waiting=0, capacity=4,
                                   deadline_ms=2000.0) == 5

    def test_queue_backlog_raises_the_estimate(self):
        # 8 waiters over 2 slots at a 2s deadline: ~8s to drain.
        assert dynamic_retry_after(1, waiting=8, capacity=2,
                                   deadline_ms=2000.0) == 8

    def test_open_breaker_cooldown_raises_the_estimate(self):
        assert dynamic_retry_after(1, waiting=0, capacity=4,
                                   deadline_ms=2000.0,
                                   breaker_remaining=6.2) == 7

    def test_clamped_to_cap_and_never_below_one(self):
        assert dynamic_retry_after(1, waiting=10_000, capacity=1,
                                   deadline_ms=5000.0) == RETRY_AFTER_CAP
        assert dynamic_retry_after(0, waiting=0, capacity=1,
                                   deadline_ms=0.0) == 1

    def test_shed_503_carries_integer_retry_after(self, service):
        held = 0
        try:
            while service.gate.try_acquire() is None:
                held += 1
            response = fetch(service.host, service.port,
                             "/v1/experiments/srv1")
        finally:
            for _ in range(held):
                service.gate.release()
        assert response.status == 503
        assert int(response.headers["retry-after"]) >= 1

    def test_deadline_504_carries_integer_retry_after(
        self, served_cache, tiny_registry
    ):
        svc = MetricsService(
            _CONFIG, ArtifactStore(served_cache),
            settings=_settings(deadline_ms=0.0), names=list(tiny_registry),
        )
        svc.warm()
        svc.start()
        try:
            response = fetch(svc.host, svc.port, "/v1/experiments/srv1")
            assert response.status == 504
            assert int(response.headers["retry-after"]) >= 1
        finally:
            svc.drain(reason="test")

    def test_metricz_reports_the_retry_after_derivation(self, service):
        doc = json.loads(_get(service, "/metricz").body)
        block = doc["retry_after"]
        assert block["floor_seconds"] == service.settings.retry_after_seconds
        assert block["cap_seconds"] == RETRY_AFTER_CAP
        assert block["current_seconds"] >= 1


class TestDeadline:
    def test_exhausted_budget_is_504(self, served_cache, tiny_registry):
        svc = MetricsService(
            _CONFIG, ArtifactStore(served_cache),
            settings=_settings(deadline_ms=0.0), names=list(tiny_registry),
        )
        svc.warm()
        svc.start()
        try:
            response = fetch(svc.host, svc.port, "/v1/experiments/srv1")
            assert response is not None
            assert response.status == 504
            assert "retry-after" in response.headers
            # Health surfaces are exempt from the deadline budget.
            assert fetch(svc.host, svc.port, "/healthz").status == 200
        finally:
            svc.drain(reason="test")


class TestDrainIntegration:
    def test_drain_stops_serving_and_logs_exit(self, served_cache, tiny_registry):
        svc = MetricsService(
            _CONFIG, ArtifactStore(served_cache),
            settings=_settings(), names=list(tiny_registry),
        )
        svc.warm()
        svc.start()
        assert fetch(svc.host, svc.port, "/readyz").status == 200
        host, port = svc.host, svc.port
        assert svc.drain(reason="SIGTERM")
        assert svc.draining
        assert fetch(host, port, "/readyz") is None  # listener closed
        exits = svc.log.events("serve.exit")
        assert len(exits) == 1
        assert exits[0]["code"] == "0"
        starts = svc.log.events("drain.start")
        assert starts and starts[0]["reason"] == "SIGTERM"
        assert svc.log.events("drain.complete")

    def test_readyz_reports_draining(self, served_cache, tiny_registry):
        svc = MetricsService(
            _CONFIG, ArtifactStore(served_cache),
            settings=_settings(), names=list(tiny_registry),
        )
        svc.warm()
        svc.start()
        try:
            svc._draining = True
            response = fetch(svc.host, svc.port, "/readyz")
            assert response is not None
            assert response.status == 503
            assert "retry-after" in response.headers
            # Not-ready uses the canonical error envelope, with the body's
            # retry_after mirroring the Retry-After header.
            body = json.loads(response.body)
            assert body["error"] == "not_ready"
            assert body["detail"] == "draining"
            assert body["retry_after"] == int(response.headers["retry-after"])
        finally:
            svc._draining = False
            svc.drain(reason="test")


class TestWarmup:
    def test_missing_result_reported_and_404(self, served_cache, tiny_registry):
        name = "srv_missing"
        SPECS[name] = ExperimentSpec(
            id=name, title="Missing", fn=_make_fn(name),
            tags=("test",), required_artifacts=(),
        )
        try:
            svc = MetricsService(
                _CONFIG, ArtifactStore(served_cache),
                settings=_settings(),
                names=list(tiny_registry) + [name],
            )
            statuses = svc.warm(build_lists=False)
            assert statuses[name] == "missing"
            svc.start()
            try:
                assert fetch(svc.host, svc.port,
                              f"/v1/experiments/{name}").status == 404
            finally:
                svc.drain(reason="test")
        finally:
            SPECS.pop(name, None)

    def test_warm_is_reference_digest_mode_without_goldens(self, served_cache,
                                                           tiny_registry):
        store = ArtifactStore(served_cache)
        svc = MetricsService(
            _CONFIG, store, settings=_settings(), names=list(tiny_registry),
        )
        statuses = svc.warm(build_lists=False)
        assert all(status == "ok" for status in statuses.values())
        assert set(svc._reference) == set(tiny_registry)
        cfg = config_key(_CONFIG)
        blob = store.get_json(cfg, "results/srv1")
        body = json.dumps(blob, sort_keys=True).encode()
        import hashlib

        # The reference is the body's strong ETag: quoted sha256 hex.
        assert svc._reference["srv1"] == '"%s"' % hashlib.sha256(body).hexdigest()
