"""Spawned-child helpers: command building, port picking, pinning, plans.

The full child lifecycle (fork, warm, load, drain) is exercised by
``repro loadgen --spawn --quick`` in CI's gate matrix; these tests cover
the pure :mod:`repro.gates` helpers it is built from.
"""

from __future__ import annotations

import json
import socket
import sys

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.gates import (
    ensure_results,
    free_port,
    pin_expectations,
    serve_command,
    write_fault_plan,
)
from repro.store import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)


def test_free_port_is_bindable():
    port = free_port()
    assert 1 <= port <= 65535
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


def test_serve_command_shape(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text("{}")
    command = serve_command(
        port=12345, cache_dir="/tmp/cache", quick=True,
        fault_plan=plan, access_log=tmp_path / "access.log",
    )
    assert command[0] == sys.executable
    assert command[1:4] == ["-m", "repro.cli", "serve"]
    assert "--port" in command and "12345" in command
    assert "--quick" in command
    assert "--fault-plan" in command and str(plan) in command
    assert "--access-log" in command


def test_serve_command_omits_optional_flags():
    command = serve_command(port=1, cache_dir="c", quick=False)
    assert "--quick" not in command
    assert "--fault-plan" not in command
    assert "--access-log" not in command


def test_write_fault_plan_round_trips(tmp_path):
    path = write_fault_plan(7, tmp_path)
    plan = FaultPlan.from_json(path.read_text())
    assert plan.seed == 7
    sites = [rule.site for rule in plan.rules]
    assert "store.read.slow" in sites
    assert "store.read.corrupt" in sites
    assert "serve.request.error" in sites
    # The chaos defaults: one clean warmup read per key, bounded error
    # probability on the lists surface.
    store_rules = [r for r in plan.rules if r.site.startswith("store.")]
    assert all(rule.min_occurrence == 1 for rule in store_rules)
    (error_rule,) = [r for r in plan.rules if r.site == "serve.request.error"]
    assert 0.0 < error_rule.probability < 1.0


def test_ensure_results_and_pin_expectations(tmp_path):
    name = "spawnpin1"
    SPECS[name] = ExperimentSpec(
        id=name, title="Spawn Pin", tags=("test",), required_artifacts=(),
        fn=lambda ctx: ExperimentResult(
            name=name, title="Spawn Pin",
            data={"n_sites": ctx.world.n_sites}, text="pin",
        ),
    )
    try:
        cache = str(tmp_path / "cache")
        failures = ensure_results([name], _CONFIG, cache)
        assert failures == []
        # Idempotent: a second call finds the blob and runs nothing.
        assert ensure_results([name], _CONFIG, cache) == []

        expectations = pin_expectations([name], _CONFIG, cache)
        path = f"/v1/experiments/{name}"
        assert set(expectations) == {path}
        # The pin is exactly the server's wire encoding of the blob.
        blob = ArtifactStore(cache).get_json(
            config_key(_CONFIG), f"results/{name}"
        )
        assert expectations[path] == json.dumps(
            blob, sort_keys=True
        ).encode("utf-8")
        # Unknown names are skipped, not errors.
        assert pin_expectations(["ghost"], _CONFIG, cache) == {}
    finally:
        SPECS.pop(name, None)
