"""``repro loadgen`` — a deterministic load harness for the serve layer.

Layers, one module per concern:

* :mod:`repro.loadgen.personas` — seeded client behaviors (dashboard
  pollers, researchers, health probes) that plan requests from a
  hash-counter stream and validate every body they get back.
* :mod:`repro.loadgen.engine` — the asyncio engine: keep-alive
  raw-socket HTTP/1.1 connection pool, open-loop token-bucket pacing,
  closed-loop sessions, retries that honor ``Retry-After``.
* :mod:`repro.loadgen.histogram` — mergeable log-bucketed latency
  histograms with bounded quantile error.
* :mod:`repro.loadgen.metrics` — the outcome taxonomy (ok / shed /
  drift / ...), per-phase counters, merged totals, spill round-trip.
* :mod:`repro.loadgen.pool` — the multi-process client pool: sharded
  persona schedules, per-worker spill files, merged results.
* :mod:`repro.loadgen.report` — the ``LOADGEN_<yyyymmdd>.json``
  document and the SLO gate that decides the exit code.
* :mod:`repro.loadgen.trajectory` — the ``LATENCY_<yyyymmdd>.json``
  latency-trajectory document and the run-over-run p99 drift gate.
* :mod:`repro.loadgen.harness` — phase orchestration tying it together;
  ``--spawn`` runs its ``repro serve`` child through
  :func:`repro.gates.spawned_server`.
"""

from repro.loadgen.engine import (
    ClientStats,
    ConnectionPool,
    LoadEngine,
    PhaseSpec,
    TokenBucket,
    discover_catalog,
)
from repro.loadgen.harness import LoadgenOptions, LoadgenResult, run_loadgen
from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.metrics import Outcome, PhaseMetrics
from repro.loadgen.personas import (
    Catalog,
    DashboardPoller,
    HashStream,
    HealthProbe,
    Persona,
    PlannedRequest,
    Researcher,
    apportion,
    make_persona,
    parse_mix,
    roster,
)
from repro.loadgen.pool import PoolResult, run_pool
from repro.loadgen.report import (
    LOADGEN_SCHEMA_VERSION,
    GateResult,
    SloThresholds,
    build_report,
    loadgen_path,
    write_report,
)
from repro.loadgen.trajectory import (
    LATENCY_SCHEMA_VERSION,
    build_trajectory,
    compare_trajectories,
    latency_path,
    write_trajectory,
)

__all__ = [
    "Catalog",
    "ClientStats",
    "ConnectionPool",
    "DashboardPoller",
    "GateResult",
    "HashStream",
    "HealthProbe",
    "LATENCY_SCHEMA_VERSION",
    "LOADGEN_SCHEMA_VERSION",
    "LatencyHistogram",
    "LoadEngine",
    "LoadgenOptions",
    "LoadgenResult",
    "Outcome",
    "Persona",
    "PhaseMetrics",
    "PhaseSpec",
    "PlannedRequest",
    "PoolResult",
    "Researcher",
    "SloThresholds",
    "TokenBucket",
    "apportion",
    "build_report",
    "build_trajectory",
    "compare_trajectories",
    "discover_catalog",
    "latency_path",
    "loadgen_path",
    "make_persona",
    "parse_mix",
    "roster",
    "run_loadgen",
    "run_pool",
    "write_report",
    "write_trajectory",
]
