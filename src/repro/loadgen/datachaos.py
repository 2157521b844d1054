"""``repro chaos-data``: the end-to-end degraded-provider ingestion gate.

Two stages, one verdict:

* **Pipeline stage (in-process).**  A dedicated world runs
  :func:`~repro.ranking.degraded.proof_of_degraded_equivalence` under a
  :func:`~repro.faults.plan.default_data_plan`: every gap-tolerant
  Tranco window must equal the Dowdall oracle (:mod:`repro.qa.dowdall`)
  over the same degraded input, every day whose window holds a
  non-clean cell must be explicitly marked, fully-clean windows must
  match the undegraded pipeline byte for byte, every armed ``data.*``
  site must fire, and the fault-sequence digest must replay exactly.

* **Serve stage (child process).**  A ``repro serve`` child is armed
  with a *data-only* fault plan (no store or transport chaos — degraded
  data owns the error budget here) and driven with a fixed scripted
  client mix over list, stability, index, and health surfaces.  Every
  200 list body must carry a well-formed ``data_health`` block, at
  least one degraded day must actually be observed, availability must
  clear the loadgen floor, the child's ``/metricz`` data block must
  show every armed site fired with ``digest == replay_digest``, and the
  child must drain clean on SIGTERM.

Determinism is structural: provider days resolve strictly sequentially
and are memoized, so each ``(provider, day)`` fault key is consulted at
most once regardless of request interleaving, and the printed
``fault digest`` — pipeline and serve digests joined — is a pure
function of the seed.  CI runs the gate twice and requires the printed
digests to match byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.faults.plan import DATA_SITES, default_data_plan
from repro.gates import (
    GateRun,
    availability_gate,
    fetch_json,
    replay_gate,
    sites_fired_gate,
    spawned_server,
)
from repro.loadgen.engine import LoadEngine, discover_catalog
from repro.loadgen.personas import (
    Catalog,
    Persona,
    PlannedRequest,
    validate_data_health,
)
from repro.runner.retry import RetryPolicy

__all__ = [
    "DataScriptPersona",
    "build_data_script",
    "run_chaos_data",
    "write_data_plan",
]

#: Script length: quick for CI smoke, full for soaks.
_QUICK_REQUESTS = 90
_FULL_REQUESTS = 300

#: The component providers the default data plan degrades.
DATA_PROVIDERS = ("alexa", "umbrella", "majestic")

#: In-process pipeline-proof world shapes.  Small enough for CI, deep
#: enough that the rolling window actually slides (window < n_days) and
#: the plan's pinned days spread across distinct windows.
_PIPELINE_QUICK = {"n_sites": 600, "n_days": 12, "tranco_window": 4}
_PIPELINE_FULL = {"n_sites": 1500, "n_days": 16, "tranco_window": 5}


class DataScriptPersona(Persona):
    """The driver's identity for the serve stage.

    Beyond the engine's own checks (every 200 parses as JSON), the
    persona enforces the data-chaos contract per surface: list bodies
    must carry a well-formed ``data_health`` block (shape-checked by
    :func:`~repro.loadgen.personas.validate_data_health`), stability
    bodies must summarize degraded days, and the lists index must admit
    it is running under data chaos.  It also counts degraded days seen,
    so the gate can prove the faults were *observable*, not just fired.
    """

    kind = "script"

    def __init__(self, persona_id: str, seed: int, catalog: Catalog) -> None:
        super().__init__(persona_id, seed, catalog)
        self.health_bodies = 0
        self.degraded_seen = 0
        self.statuses: Dict[str, int] = {}

    def validate(self, request: PlannedRequest, body: object) -> Optional[str]:
        if not isinstance(body, dict):
            return f"expected a JSON object, got {type(body).__name__}"
        if request.kind == "lists":
            health = body.get("data_health")
            if health is None:
                return "list body missing data_health under data chaos"
            error = validate_data_health(health)
            if error is not None:
                return error
            self.health_bodies += 1
            status = str(health["status"])
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if health["degraded"]:
                self.degraded_seen += 1
            return None
        if request.kind == "lists-stability":
            health = body.get("data_health")
            if not isinstance(health, dict):
                return "stability body missing data_health under data chaos"
            degraded_days = health.get("degraded_days")
            if not isinstance(degraded_days, int) or degraded_days < 0:
                return f"stability degraded_days malformed: {degraded_days!r}"
            if not isinstance(health.get("by_status"), dict):
                return "stability by_status missing or not an object"
            return None
        if request.kind == "lists-index":
            if body.get("data_chaos") is not True:
                return "lists index does not report data_chaos under chaos"
            return None
        return None


def build_data_script(catalog: Catalog, count: int) -> List[PlannedRequest]:
    """A fixed, deterministic request script for the serve stage.

    Pure rotation, no RNG.  Opens by requesting the **last** day of each
    degraded provider — sequential memoized resolution means that one
    request forces the provider's whole day range through the ingest
    gate, so every pinned fault day is consulted no matter how short the
    script.  The rotation then mixes list slices across all providers
    and days, per-provider stability surfaces, the lists index, and
    health probes.
    """
    providers = list(catalog.providers)
    degraded = [p for p in DATA_PROVIDERS if p in providers] or providers
    days = max(1, catalog.days)
    last = days - 1
    ks = (25, 50, 100)

    def _request(path: str, kind: str) -> PlannedRequest:
        return PlannedRequest(
            path=path, kind=kind, think_seconds=0.0,
            persona_id="datachaos-driver", conditional=False,
        )

    script: List[PlannedRequest] = [
        _request(f"/v1/lists/{provider}/{last}?k=50", "lists")
        for provider in degraded
    ]
    for i in range(max(0, count - len(script))):
        slot = i % 6
        if slot in (0, 3):
            provider = degraded[(i // 6 + slot) % len(degraded)]
            path = f"/v1/lists/{provider}/{i % days}?k={ks[i % len(ks)]}"
            script.append(_request(path, "lists"))
        elif slot == 1:
            provider = providers[(i // 6) % len(providers)]
            path = f"/v1/lists/{provider}/{(i // 2) % days}?k={ks[i % len(ks)]}"
            script.append(_request(path, "lists"))
        elif slot == 2:
            provider = degraded[(i // 6) % len(degraded)]
            script.append(
                _request(f"/v1/lists/{provider}/stability?k=50",
                         "lists-stability")
            )
        elif slot == 4:
            script.append(_request("/v1/lists", "lists-index"))
        else:
            script.append(_request("/healthz", "health"))
    return script


def write_data_plan(seed: int, out_dir: Path, n_days: int) -> Path:
    """Write the serve child's data-only fault plan to a JSON file."""
    plan = default_data_plan(seed, n_days, providers=DATA_PROVIDERS)
    path = Path(out_dir) / "data_fault_plan.json"
    path.write_text(plan.to_json())
    return path


def _run_pipeline_proof(seed: int, quick: bool) -> Dict:
    """The in-process stage: degraded-vs-oracle equivalence proof."""
    from repro.providers.registry import build_providers
    from repro.worldgen.config import WorldConfig
    from repro.worldgen.world import build_world

    shape = _PIPELINE_QUICK if quick else _PIPELINE_FULL
    config = WorldConfig(seed=seed, **shape)
    world = build_world(config)
    tranco = build_providers(world)["tranco"]
    plan = default_data_plan(seed, config.n_days, providers=DATA_PROVIDERS)
    from repro.ranking.degraded import proof_of_degraded_equivalence

    proof = proof_of_degraded_equivalence(tranco, plan)
    proof["config"] = {
        "n_sites": config.n_sites, "n_days": config.n_days,
        "tranco_window": config.tranco_window, "seed": seed,
    }
    return proof


def run_chaos_data(
    seed: int = 7,
    quick: bool = False,
    cache_dir: Optional[str] = None,
    jobs: int = 2,
    manifest_path: Optional[str] = None,
) -> GateRun:
    """Run the degraded-data chaos gate end to end (blocking)."""
    from repro.qa.goldens import GOLDEN_CONFIG
    from repro.store import default_cache_dir

    cache_dir = cache_dir or str(default_cache_dir())
    count = _QUICK_REQUESTS if quick else _FULL_REQUESTS
    armed_sites = sorted(DATA_SITES)

    print(f"[chaos-data: pipeline proof, seed {seed}, "
          f"{'quick' if quick else 'full'} world]")
    proof = _run_pipeline_proof(seed, quick)

    # Data faults own the error budget: the child gets *only* the data
    # plan (no store chaos, no transport chaos), so any non-200 in the
    # script is a real serving bug, not absorbed noise.
    with spawned_server(
        "chaos-data", cache_dir, jobs=jobs, deadline_ms=5000.0,
        plan=lambda scratch: write_data_plan(seed, scratch, GOLDEN_CONFIG.n_days),
    ) as child:
        catalog = discover_catalog(child.host, child.port)
        script = build_data_script(catalog, count)
        print(f"[chaos-data: driving {len(script)} scripted requests, "
              f"seed {seed}, {len(armed_sites)} armed data sites]")
        engine = LoadEngine(
            child.host, child.port, catalog, seed,
            expectations={},
            tracer=obs.Tracer("chaos-data"),
            policy=RetryPolicy(
                max_attempts=4, base_delay=0.05, multiplier=2.0,
                max_delay=0.4,
            ),
            timeout=6.0,
            keepalive=False,
        )
        persona = DataScriptPersona("datachaos-driver", seed, catalog)
        phase = engine.run_script("chaos-data", persona, script)
        data_metrics = fetch_json(child.host, child.port, "/metricz").get("data") or {}

    fired = dict(data_metrics.get("fired") or {})
    serve_digest = data_metrics.get("digest")
    pipeline_digest = proof["fault_digest"]
    digest = f"{pipeline_digest}/{serve_digest}"

    run = GateRun("chaos-data")
    run.check(
        "pipeline_equivalence",
        proof["identical"] and proof["clean_days_identical"],
        len(proof["mismatched_days"]) + len(proof["clean_mismatched_days"]),
        0.0,
        f"{proof['days_checked']} days vs oracle "
        f"({len(proof['degraded_days'])} degraded)",
    )
    run.check(
        "pipeline_marking", proof["marking_consistent"],
        len(proof["marking_error_days"]), 0.0,
        "degraded iff window holds a non-clean cell",
    )
    run.checks.append(sites_fired_gate(
        "pipeline_sites_fired", proof["armed_sites"], proof["sites_fired"]
    ))
    run.checks.append(replay_gate(
        "pipeline_digest_replay", pipeline_digest, proof["replay_digest"]
    ))
    run.checks.append(sites_fired_gate("serve_sites_fired", armed_sites, fired))
    run.check(
        "serve_health_marked",
        persona.health_bodies > 0 and persona.degraded_seen > 0,
        persona.degraded_seen, 1.0,
        f"{persona.health_bodies} list bodies carried data_health, "
        f"{persona.degraded_seen} degraded",
    )
    run.checks.append(availability_gate("availability", phase))
    run.checks.append(replay_gate(
        "serve_digest_replay", serve_digest, data_metrics.get("replay_digest")
    ))
    run.checks.append(child.drain_gate("drain"))

    run.manifest = {
        "seed": seed,
        "quick": quick,
        "requests": count,
        "pipeline": {
            key: proof[key] for key in (
                "config", "window", "days_checked", "identical",
                "marking_consistent", "clean_days", "degraded_days",
                "armed_sites", "sites_fired", "fault_digest",
                "replay_digest", "digest_match", "ok",
            )
        },
        "serve": {
            "command": child.command,
            "fault_plan": child.fault_plan,
            "access_log": child.access_log,
            "drain_exit_code": child.drain_code,
            "data": data_metrics,
        },
        "script": {
            "health_bodies": persona.health_bodies,
            "degraded_seen": persona.degraded_seen,
            "statuses": dict(sorted(persona.statuses.items())),
        },
        "phase": phase.summary(),
        "client": engine.client_stats.to_dict(),
        "fault_digest": digest,
    }
    run.lines = [
        f"chaos-data seed {seed}: {proof['days_checked']} pipeline "
        f"days proved, {phase.requests} scripted requests at the child",
        "pipeline fires: " + (
            ", ".join(f"{s}={n}"
                      for s, n in sorted(proof["sites_fired"].items()))
            or "none"
        ),
        "serve fires: " + (
            ", ".join(f"{s}={n}" for s, n in sorted(fired.items()))
            or "none"
        ),
        "list health statuses: " + (
            ", ".join(f"{s}={n}"
                      for s, n in sorted(persona.statuses.items()))
            or "none"
        ),
        "outcomes: " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(phase.by_outcome.items()) if n
        ),
        f"fault digest: {digest}",
    ]
    run.write_manifest(manifest_path)
    return run
