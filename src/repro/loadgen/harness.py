"""``repro loadgen`` orchestration: phases, gates, report, exit code.

Three entry shapes:

* ``--base-url http://host:port`` — measure a service somebody else is
  running: one phase (open-loop at ``--rate`` or closed-loop with
  ``--closed-loop N`` sessions), SLO-gated.
* ``--spawn`` — own the whole story: fork a ``repro serve`` child
  against a prebuilt cache with the chaos fault plan armed, run a
  **chaos** phase (steady persona mix that must stay >= 99%
  golden-correct on non-shed responses while blobs corrupt and the
  breaker cycles underneath) and a **saturation** phase (a zero-think
  closed-loop fleet sized several times the admission gate, which must
  drive real shedding — every shed carrying a parseable Retry-After),
  then SIGTERM the child and require a clean drain.
* ``--compare PREV --against CUR`` — no load at all: gate one existing
  ``LATENCY_*.json`` against another (CI's follow-up step compares the
  current run's trajectory to the previous green run on main).

``--workers N`` scales either load mode past the single-process client
ceiling: N processes each drive a deterministic shard of the persona
roster through their own keep-alive connection pools, spill exact
histograms, and the parent merges them (see :mod:`repro.loadgen.pool`).

Every load run writes ``LOADGEN_<yyyymmdd>.json`` plus the latency
trajectory ``LATENCY_<yyyymmdd>.json``; the structural gates, any
``--slo`` thresholds, and (with ``--compare``) the p99 drift gates
decide the exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro import obs
from repro.gates import (
    CHILD_JOBS,
    CHILD_QUEUE_DEPTH,
    GateResult,
    GateRun,
    availability_gate,
    spawned_server,
    write_fault_plan,
)
from repro.loadgen.engine import (
    ClientStats,
    LoadEngine,
    PhaseSpec,
    discover_catalog,
)
from repro.loadgen.metrics import PhaseMetrics
from repro.loadgen.personas import DEFAULT_MIX
from repro.loadgen.pool import run_pool
from repro.loadgen.report import (
    SloThresholds,
    build_report,
    loadgen_path,
    write_report,
)
from repro.loadgen.trajectory import (
    DEFAULT_P99_TOLERANCE,
    build_trajectory,
    compare_trajectories,
    latency_path,
    load_trajectory,
    write_trajectory,
)

__all__ = ["LoadgenOptions", "LoadgenResult", "run_loadgen"]

#: Saturation sizing: worker sessions per admission-gate slot
#: (inflight + queue).  Several times the gate guarantees shedding.
_SATURATION_PRESSURE = 12


@dataclass
class LoadgenOptions:
    """Parsed ``repro loadgen`` invocation."""

    seed: int = 7
    base_url: Optional[str] = None
    spawn: bool = False
    duration_seconds: Optional[float] = None
    rate: Optional[float] = None  # open loop when set
    closed_loop: Optional[int] = None  # closed-loop worker count
    mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    slo: SloThresholds = field(default_factory=SloThresholds)
    report_path: Optional[str] = None
    quick: bool = False
    cache_dir: Optional[str] = None
    jobs: int = 2
    fault_plan: Optional[str] = None  # explicit plan file for the child
    no_faults: bool = False  # spawn a fault-free child
    timeout: float = 5.0
    workers: int = 1  # client processes (1 = in-process engine)
    keepalive: bool = True  # persistent HTTP/1.1 connections
    latency_out: Optional[str] = None  # LATENCY_<date>.json override
    compare: Optional[str] = None  # previous LATENCY file to gate against
    against: Optional[str] = None  # compare-only: current LATENCY file
    p99_tolerance: float = DEFAULT_P99_TOLERANCE


@dataclass
class LoadgenResult(GateRun):
    """What ``run_loadgen`` hands back to the CLI: the gate run (phase and
    client summaries as its lines) plus the LOADGEN report."""

    name: str = "loadgen"
    report: Dict[str, object] = field(default_factory=dict)
    report_path: Optional[str] = None
    phases: List[PhaseMetrics] = field(default_factory=list)


def _summary_lines(
    phases: Sequence[PhaseMetrics], client: Mapping[str, int]
) -> List[str]:
    """One line per phase, then the client's socket and transport-fault tallies."""
    lines: List[str] = []
    for phase in phases:
        quantiles = phase.latency.quantiles_ms()
        lines.append(
            f"[{phase.name}: {phase.requests} requests in "
            f"{phase.duration_seconds:.2f}s "
            f"({phase.throughput_rps():.0f} rps); "
            f"p50 {quantiles['p50_ms']:.1f}ms p99 {quantiles['p99_ms']:.1f}ms; "
            f"ok {phase.by_outcome['ok']} "
            f"304 {phase.by_outcome['not_modified']} "
            f"shed {phase.sheds} "
            f"drift {phase.body_drift}; "
            f"availability {phase.availability:.4f}]"
        )
    if client.get("requests"):
        lines.append(
            f"[client: {client['connections_opened']} socket(s) for "
            f"{client['requests']} requests "
            f"({client['requests_on_reused']} on reused connections, "
            f"{client['stale_retries']} stale retries)]"
        )
    transport = {
        name: client.get(name, 0)
        for name in ("resets", "stalled", "garbled", "truncated")
    }
    if any(transport.values()):
        lines.append(
            "[transport faults observed: "
            + ", ".join(
                f"{name} {count}" for name, count in transport.items() if count
            )
            + "]"
        )
    return lines


def _parse_target(base_url: str) -> Tuple[str, int]:
    parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
    if parts.scheme not in ("http", ""):
        raise ValueError(f"only http targets are supported, got {base_url!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port if parts.port is not None else 80
    return host, port


def _structural_gates(
    run: LoadgenResult,
    chaos: Optional[PhaseMetrics],
    saturation: Optional[PhaseMetrics],
    totals: PhaseMetrics,
    drain: Optional[GateResult],
) -> None:
    """The spawn-mode contract, independent of any ``--slo`` flags."""
    if chaos is not None:
        run.checks.append(availability_gate("chaos.availability", chaos))
    if saturation is not None:
        run.check("saturation.sheds", saturation.sheds >= 1, saturation.sheds, 1,
                  "admission gate must actually shed under pressure")
        run.check("saturation.retry_after_seen", saturation.retry_after_seen >= 1,
                  saturation.retry_after_seen, 1,
                  "sheds must carry a parseable Retry-After")
    run.check("retry_after.missing", totals.retry_after_missing == 0,
              totals.retry_after_missing, 0,
              "every 503/504 must carry integer-seconds Retry-After")
    run.check("body_drift.total", totals.body_drift == 0, totals.body_drift, 0,
              "no 200 body may differ from its pinned golden bytes")
    if drain is not None:
        run.checks.append(drain)


@dataclass
class _DriveResult:
    """What the client side produced, whoever (engine or pool) drove it."""

    phases: List[PhaseMetrics]
    schedule_digests: List[Dict[str, object]]
    counters: Dict[str, float]
    client: ClientStats


def _drive(
    options: LoadgenOptions,
    tracer: obs.Tracer,
    host: str,
    port: int,
    catalog,
    specs: Sequence[PhaseSpec],
    expectations: Optional[Mapping[str, bytes]] = None,
) -> _DriveResult:
    """Run ``specs`` in order: in-process for ``--workers 1``, else the
    multi-process pool over sharded persona rosters."""
    if options.workers > 1:
        pooled = run_pool(
            host, port, catalog, options.seed, list(specs),
            workers=options.workers,
            expectations=expectations,
            timeout=options.timeout,
            keepalive=options.keepalive,
        )
        return _DriveResult(
            phases=pooled.phases,
            schedule_digests=pooled.schedule_digests,
            counters=pooled.counters,
            client=pooled.client,
        )
    engine = LoadEngine(
        host, port, catalog, options.seed,
        expectations=expectations, tracer=tracer,
        timeout=options.timeout, keepalive=options.keepalive,
    )
    phases = [engine.run_phase(spec) for spec in specs]
    return _DriveResult(
        phases=phases,
        schedule_digests=engine.schedule_digests(),
        counters={},
        client=engine.client_stats,
    )


def _run_base_url(options: LoadgenOptions, tracer: obs.Tracer) -> LoadgenResult:
    host, port = _parse_target(options.base_url or "")
    catalog = discover_catalog(host, port, timeout=options.timeout)
    duration = options.duration_seconds or (4.0 if options.quick else 15.0)
    if options.rate is not None:
        spec = PhaseSpec(
            name="steady", mode="open", duration_seconds=duration,
            workers=max(4, options.closed_loop or 8),
            mix=options.mix, rate=options.rate,
        )
    else:
        spec = PhaseSpec(
            name="steady", mode="closed", duration_seconds=duration,
            workers=options.closed_loop or 6, mix=options.mix,
        )
    print(f"[loadgen: {spec.mode}-loop against http://{host}:{port} "
          f"for {duration:.1f}s, seed {options.seed}, "
          f"{options.workers} client process(es), "
          f"keep-alive {'on' if options.keepalive else 'off'}]")
    driven = _drive(options, tracer, host, port, catalog, [spec])
    steady = driven.phases[0]
    totals = PhaseMetrics("totals")
    for phase in driven.phases:
        totals.merge(phase)
    result = LoadgenResult()
    _structural_gates(result, None, None, totals, drain=None)
    result.checks.extend(options.slo.evaluate(steady, totals))
    return _finish(
        options, result, driven, catalog,
        target=f"http://{host}:{port}", mode="base-url", tracer=tracer,
    )


def _run_spawn(options: LoadgenOptions, tracer: obs.Tracer) -> LoadgenResult:
    from repro.store import default_cache_dir

    cache_dir = options.cache_dir or str(default_cache_dir())

    def plan(scratch):
        return options.fault_plan or write_fault_plan(options.seed, scratch)

    with spawned_server(
        "loadgen --spawn", cache_dir, jobs=options.jobs,
        plan=None if options.no_faults else plan,
    ) as child:
        catalog = discover_catalog(child.host, child.port, timeout=options.timeout)
        total = options.duration_seconds or (4.0 if options.quick else 15.0)
        chaos_spec = PhaseSpec(
            name="chaos", mode="closed",
            duration_seconds=max(1.0, total * 0.7),
            workers=options.closed_loop or 6,
            mix=options.mix,
            min_requests=400,
        )
        gate_slots = CHILD_JOBS + CHILD_QUEUE_DEPTH
        saturation_spec = PhaseSpec(
            name="saturation", mode="closed",
            duration_seconds=max(1.0, total * 0.3),
            workers=gate_slots * _SATURATION_PRESSURE,
            mix=options.mix,
            think_scale=0.0,
            # Saturation measures refusals: don't wait sheds out, and
            # don't let client-side body validation throttle the offered
            # load below the gate's capacity (drift pinning stays on).
            retry_sheds=False,
            validate_bodies=False,
        )
        print(f"[chaos phase: {chaos_spec.workers} sessions, "
              f">= {chaos_spec.min_requests} requests; then saturation: "
              f"{saturation_spec.workers} zero-think sessions vs a "
              f"{gate_slots}-slot gate; {options.workers} client "
              f"process(es)]")
        driven = _drive(
            options, tracer, child.host, child.port, catalog,
            [chaos_spec, saturation_spec], expectations=child.expectations,
        )
        chaos, saturation = driven.phases
    totals = PhaseMetrics("totals")
    for phase in driven.phases:
        totals.merge(phase)
    result = LoadgenResult()
    _structural_gates(
        result, chaos, saturation, totals, child.drain_gate("serve.drain")
    )
    result.checks.extend(options.slo.evaluate(chaos, totals))
    return _finish(
        options, result, driven, catalog,
        target=f"http://{child.host}:{child.port} (spawned)", mode="spawn",
        tracer=tracer,
        extra={
            "spawn": {
                "command": child.command,
                "fault_plan": child.fault_plan,
                "access_log": child.access_log,
                "drain_exit_code": child.drain_code,
                "cache_dir": cache_dir,
            },
        },
    )


def _run_compare_only(options: LoadgenOptions) -> LoadgenResult:
    """Pure file comparison: gate one LATENCY document against another."""
    try:
        current = load_trajectory(options.against or "")
        previous = load_trajectory(options.compare or "")
    except OSError as error:
        # A file you named but can't read is a usage problem, and the
        # CLI maps ValueError to the usage exit code.
        raise ValueError(f"cannot read trajectory: {error}") from None
    gates = compare_trajectories(
        current, previous, tolerance=options.p99_tolerance
    )
    report: Dict[str, object] = {
        "mode": "compare",
        "current": options.against,
        "previous": options.compare,
        "p99_tolerance": options.p99_tolerance,
        "gates": {
            "passed": all(gate.passed for gate in gates),
            "results": [gate.to_dict() for gate in gates],
        },
    }
    return LoadgenResult(checks=gates, report=report)


def _finish(
    options: LoadgenOptions,
    result: LoadgenResult,
    driven: _DriveResult,
    catalog,
    *,
    target: str,
    mode: str,
    tracer: obs.Tracer,
    extra: Optional[Mapping[str, object]] = None,
) -> LoadgenResult:
    # The latency trajectory rides along with every load run, and its
    # drift gates (when --compare names a baseline) join the exit-code
    # decision like any structural gate.
    trajectory = build_trajectory(
        seed=options.seed,
        mode=mode,
        workers=options.workers,
        keepalive=options.keepalive,
        phases=driven.phases,
    )
    trajectory_target = options.latency_out or str(latency_path())
    write_trajectory(trajectory, trajectory_target)
    compared: Optional[str] = None
    if options.compare:
        previous = load_trajectory(options.compare)
        result.checks.extend(compare_trajectories(
            trajectory, previous, tolerance=options.p99_tolerance
        ))
        compared = options.compare
    counters = tracer.root_counters()
    for name, value in driven.counters.items():
        counters[name] = counters.get(name, 0.0) + float(value)
    merged_extra: Dict[str, object] = {
        "client": driven.client.to_dict(),
        "pool": {
            "workers": options.workers,
            "keepalive": options.keepalive,
        },
        "trajectory": {
            "path": trajectory_target,
            "compared_against": compared,
            "p99_tolerance": options.p99_tolerance,
        },
    }
    if extra:
        merged_extra.update(dict(extra))
    report = build_report(
        seed=options.seed,
        target=target,
        mode=mode,
        phases=driven.phases,
        gates=result.checks,
        schedule_digests=driven.schedule_digests,
        catalog={
            "providers": list(catalog.providers),
            "days": catalog.days,
            "experiments": list(catalog.experiments),
            "default_k": catalog.default_k,
            "max_k": catalog.max_k,
        },
        tracer_counters=counters,
        slo=options.slo,
        extra=merged_extra,
    )
    path = options.report_path or str(loadgen_path())
    write_report(report, path)
    result.report, result.report_path, result.phases = report, path, driven.phases
    result.lines = _summary_lines(driven.phases, driven.client.to_dict())
    result.lines.append(f"report: {path}")
    return result


def run_loadgen(options: LoadgenOptions) -> LoadgenResult:
    """Run one load-test invocation end to end; see the module docstring.

    Raises:
        ValueError: inconsistent options (no target, both targets, or a
          malformed compare-only invocation).
        RuntimeError: spawn-mode setup failures (results, readiness),
          or a wedged/failed worker process.
    """
    if options.against is not None:
        if options.compare is None:
            raise ValueError("--against requires --compare <previous.json>")
        if options.base_url or options.spawn:
            raise ValueError(
                "--against is a pure file comparison; drop --base-url/--spawn"
            )
        return _run_compare_only(options)
    if bool(options.base_url) == bool(options.spawn):
        raise ValueError("exactly one of --base-url or --spawn is required")
    if options.workers < 1:
        raise ValueError(f"workers must be >= 1, got {options.workers}")
    tracer = obs.Tracer()
    started = time.perf_counter()
    if options.spawn:
        result = _run_spawn(options, tracer)
    else:
        result = _run_base_url(options, tracer)
    result.report["wall_seconds"] = round(time.perf_counter() - started, 3)
    if result.report_path:
        write_report(result.report, result.report_path)
    return result
