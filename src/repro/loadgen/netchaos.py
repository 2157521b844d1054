"""``repro chaos-net``: the end-to-end transport-resilience gate.

Topology: a scripted loadgen driver → :class:`~repro.faults.netproxy.
NetProxy` (armed with :func:`~repro.faults.plan.default_net_plan`) →
a chaos-armed ``repro serve`` child.  The proxy breaks the wire in
every way the ``net.*`` sites describe; the driver must convert each
break into a classified, retried outcome; the gate then requires

* every armed ``net.*`` site fired at least once,
* >= 99% eventual-success availability with golden-correct bodies,
* zero body drift (a truncated or garbled body must never be mistaken
  for a short-but-valid one),
* a fault-sequence digest that replays exactly (and therefore
  reproduces across runs with the same seed), and
* a clean SIGTERM drain of the serve child.

Determinism is structural, not statistical: the driver issues a fixed
request script sequentially with keep-alive off, so connection serials
at the proxy are a pure function of (script, seed) — including the
extra connections its own retries open.  Readiness polling and catalog
discovery go straight to the child, never through the proxy, keeping
driver traffic the only thing the serial sequence counts.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.faults.netproxy import NetProxy
from repro.faults.plan import default_net_plan
from repro.gates import (
    GateRun,
    availability_gate,
    replay_gate,
    sites_fired_gate,
    spawned_server,
    write_fault_plan,
)
from repro.loadgen.engine import LoadEngine, discover_catalog
from repro.loadgen.personas import Catalog, Persona, PlannedRequest
from repro.runner.retry import RetryPolicy

__all__ = ["ScriptPersona", "build_script", "run_chaos_net"]

#: Script length: quick for CI smoke, full for soaks.
_QUICK_REQUESTS = 120
_FULL_REQUESTS = 400

#: The driver's per-request client timeout.  Must sit *below* the net
#: plan's stall (so a stalled connection is observed as a timeout, not
#: absorbed) and comfortably above the child's honest p99.
_DRIVER_TIMEOUT = 1.5

#: ``net.read.stall`` sleep; > ``_DRIVER_TIMEOUT`` by construction.
_STALL_SECONDS = 2.5


class ScriptPersona(Persona):
    """The driver's identity: no planning (the script is external).

    The engine itself enforces that every 200 body parses as JSON and
    matches its pinned golden bytes where pinned; beyond that the
    script asks only that the body is a JSON object — the shape every
    served surface returns."""

    kind = "script"

    def validate(self, request: PlannedRequest, body: object) -> Optional[str]:
        if not isinstance(body, dict):
            return f"expected a JSON object, got {type(body).__name__}"
        return None


def build_script(catalog: Catalog, count: int) -> List[PlannedRequest]:
    """A fixed, deterministic request script over the served catalog.

    Pure rotation — no RNG at all: the same catalog and count yield the
    same script, which is half of what makes the fault digest replay.
    Mixes pinned experiment bodies (byte-exact drift detection), list
    slices across providers/days/k, the lists index, and health probes.
    """
    experiments = list(catalog.experiments)
    providers = list(catalog.providers)
    days = max(1, catalog.days)
    ks = (25, 50, 100)
    script: List[PlannedRequest] = []
    for i in range(count):
        slot = i % 5
        if slot in (0, 2) and experiments:
            name = experiments[(i // 5 + slot) % len(experiments)]
            path, kind = f"/v1/experiments/{name}", "experiment"
        elif slot == 1 and providers:
            provider = providers[(i // 5) % len(providers)]
            path = f"/v1/lists/{provider}/{i % days}?k={ks[i % len(ks)]}"
            kind = "lists"
        elif slot == 3:
            path, kind = "/v1/lists", "lists-index"
        else:
            path, kind = "/healthz", "health"
        script.append(
            PlannedRequest(
                path=path, kind=kind, think_seconds=0.0,
                persona_id="netchaos-driver", conditional=False,
            )
        )
    return script


def run_chaos_net(
    seed: int = 7,
    quick: bool = False,
    cache_dir: Optional[str] = None,
    jobs: int = 2,
    manifest_path: Optional[str] = None,
) -> GateRun:
    """Run the transport chaos gate end to end (blocking)."""
    from repro.store import default_cache_dir

    cache_dir = cache_dir or str(default_cache_dir())
    count = _QUICK_REQUESTS if quick else _FULL_REQUESTS
    net_plan = default_net_plan(seed, stall_seconds=_STALL_SECONDS)
    armed_sites = sorted({rule.site for rule in net_plan.rules})

    # The child keeps its own store-level chaos (slow + corrupt reads,
    # absorbed by breaker/LKG) but no injected 5xx — transport faults
    # own the error budget in this gate.
    with spawned_server(
        "chaos-net", cache_dir, jobs=jobs,
        plan=lambda scratch: write_fault_plan(seed, scratch, error_probability=0.0),
    ) as child:
        catalog = discover_catalog(child.host, child.port)
        proxy = NetProxy(child.host, child.port, plan=net_plan)
        proxy.start()
        try:
            assert proxy.port is not None
            script = build_script(catalog, count)
            print(f"[chaos-net: proxy on port {proxy.port}; driving "
                  f"{len(script)} scripted requests, seed {seed}, "
                  f"{len(armed_sites)} armed net sites]")
            engine = LoadEngine(
                child.host, proxy.port, catalog, seed,
                expectations=child.expectations,
                tracer=obs.Tracer("chaos-net"),
                policy=RetryPolicy(
                    max_attempts=4, base_delay=0.05, multiplier=2.0,
                    max_delay=0.4,
                ),
                timeout=_DRIVER_TIMEOUT,
                keepalive=False,
            )
            persona = ScriptPersona("netchaos-driver", seed, catalog)
            phase = engine.run_script("chaos-net", persona, script)
        finally:
            proxy.stop()

    fired = proxy.fired_snapshot()
    digest = proxy.fault_digest()
    replay = proxy.replay_digest()

    run = GateRun("chaos-net")
    run.checks.append(sites_fired_gate("net_sites_fired", armed_sites, fired))
    run.checks.append(availability_gate("availability", phase))
    run.check(
        "body_drift", phase.body_drift == 0, phase.body_drift, 0.0,
        f"{len(child.expectations)} pinned golden bodies",
    )
    run.checks.append(replay_gate("digest_replay", digest, replay))
    run.checks.append(child.drain_gate("drain"))

    run.manifest = {
        "seed": seed,
        "quick": quick,
        "requests": count,
        "net_plan": net_plan.to_dict(),
        "proxy": {
            "connections": proxy.connections,
            "fired": fired,
            "fault_log": list(proxy.fault_log),
            "digest": digest,
            "replay_digest": replay,
        },
        "phase": phase.summary(),
        "client": engine.client_stats.to_dict(),
        "serve": {
            "command": child.command,
            "fault_plan": child.fault_plan,
            "access_log": child.access_log,
            "drain_exit_code": child.drain_code,
        },
    }
    run.lines = [
        f"chaos-net seed {seed}: {phase.requests} requests, "
        f"{proxy.connections} connections through the proxy",
        "fault fires: " + (
            ", ".join(f"{site}={fired[site]}" for site in sorted(fired))
            or "none"
        ),
        "outcomes: " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(phase.by_outcome.items()) if n
        ),
        f"client: {engine.client_stats.to_dict()}",
        f"fault digest: {digest}",
    ]
    run.write_manifest(manifest_path)
    return run
