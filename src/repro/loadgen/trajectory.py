"""The latency trajectory: ``LATENCY_<yyyymmdd>.json`` and its drift gate.

BENCH files track pipeline throughput run over run; this module gives
the serve layer the same treatment for *latency under load*.  Every
loadgen run distills its merged phase metrics into a small,
schema-stable document — per-endpoint p50/p90/p99/p99.9, achieved
requests/sec, shed rate, worker count — and ``repro loadgen --compare
<previous.json>`` turns two such documents into pass/fail gates: p99
regressions beyond a tolerance exit nonzero, so a serve-layer slowdown
fails CI instead of passing silently behind a still-green SLO ceiling.

The comparison is deliberately forgiving about *shape*: an endpoint
present in only one document (a new route, a retired one) is reported
as a passing gate with a note, never an error — the gate exists to
catch drift in what both runs measured, not to freeze the route table.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.gates import GateResult, write_json
from repro.loadgen.metrics import PhaseMetrics

__all__ = [
    "DEFAULT_P99_TOLERANCE",
    "LATENCY_SCHEMA_VERSION",
    "build_trajectory",
    "compare_trajectories",
    "latency_path",
    "load_trajectory",
    "write_trajectory",
]

#: Layout version of the LATENCY JSON document.
LATENCY_SCHEMA_VERSION = 1

#: Default allowed relative p99 growth between runs.  Generous on
#: purpose: CI runners are shared hardware and cross-run noise is real;
#: the gate is for regressions, not jitter.
DEFAULT_P99_TOLERANCE = 0.50

#: Absolute slack (ms) added on top of the relative tolerance, so
#: microsecond-scale endpoints (health probes) can't fail on scheduler
#: noise alone.
DEFAULT_ABS_SLACK_MS = 25.0

#: Endpoints with fewer samples than this in either run are noted, not
#: gated — a p99 over a handful of requests is an anecdote.
MIN_GATED_SAMPLES = 20


def _quantile_block(histogram) -> Dict[str, object]:
    block: Dict[str, object] = dict(histogram.quantiles_ms())
    block["count"] = histogram.count
    return block


def build_trajectory(
    *,
    seed: int,
    mode: str,
    workers: int,
    keepalive: bool,
    phases: Sequence[PhaseMetrics],
) -> Dict[str, object]:
    """Distill merged phase metrics into the LATENCY document.

    ``achieved_rps`` is requests over summed wall time of the (serial)
    phases — the honest offered-load number the acceptance criterion
    tracks.  Endpoint keys are the personas' request kinds (``lists``,
    ``experiment``, ``health``, ...), which is what stays stable as
    routes evolve.
    """
    totals = PhaseMetrics("totals")
    for phase in phases:
        totals.merge(phase)
    wall = sum(phase.duration_seconds for phase in phases)
    return {
        "latency_schema_version": LATENCY_SCHEMA_VERSION,
        "date": time.strftime("%Y%m%d"),
        "seed": int(seed),
        "mode": mode,
        "workers": int(workers),
        "keepalive": bool(keepalive),
        "requests": totals.requests,
        "achieved_rps": round(totals.requests / wall, 2) if wall else 0.0,
        "shed_rate": round(totals.shed_rate, 6),
        "overall": _quantile_block(totals.latency),
        "endpoints": {
            kind: _quantile_block(histogram)
            for kind, histogram in sorted(totals.latency_by_kind.items())
        },
        "phases": {
            phase.name: {
                "achieved_rps": round(phase.throughput_rps(), 2),
                "shed_rate": round(phase.shed_rate, 6),
                **_quantile_block(phase.latency),
            }
            for phase in phases
        },
    }


def compare_trajectories(
    current: Mapping[str, object],
    previous: Mapping[str, object],
    *,
    tolerance: float = DEFAULT_P99_TOLERANCE,
    abs_slack_ms: float = DEFAULT_ABS_SLACK_MS,
    min_samples: int = MIN_GATED_SAMPLES,
) -> List[GateResult]:
    """Gate ``current`` against ``previous``: p99 must not regress.

    One gate per endpoint both documents measured with enough samples,
    plus one for the overall distribution.  The threshold for each is
    ``previous_p99 * (1 + tolerance) + abs_slack_ms``.  Endpoints
    missing from either side, or too thin to judge, produce *passing*
    gates whose detail says why they were not compared.

    Raises:
        ValueError: either document is not a LATENCY schema this code
          understands.
    """
    for label, document in (("current", current), ("previous", previous)):
        version = document.get("latency_schema_version")
        if version != LATENCY_SCHEMA_VERSION:
            raise ValueError(
                f"{label} trajectory has schema {version!r}; "
                f"expected {LATENCY_SCHEMA_VERSION}"
            )
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    gates: List[GateResult] = []

    def gate_one(name: str, cur: Mapping[str, object], prev: Mapping[str, object]) -> None:
        cur_p99 = float(cur.get("p99_ms", 0.0))
        prev_p99 = float(prev.get("p99_ms", 0.0))
        cur_count = int(cur.get("count", 0))
        prev_count = int(prev.get("count", 0))
        if min(cur_count, prev_count) < min_samples:
            gates.append(GateResult(
                name=f"trajectory.{name}.p99",
                passed=True,
                measured=cur_p99,
                threshold=-1.0,  # sentinel: not gated
                detail=(
                    f"not gated: only {min(cur_count, prev_count)} samples "
                    f"(< {min_samples})"
                ),
            ))
            return
        threshold = prev_p99 * (1.0 + tolerance) + abs_slack_ms
        gates.append(GateResult(
            name=f"trajectory.{name}.p99",
            passed=cur_p99 <= threshold,
            measured=cur_p99,
            threshold=round(threshold, 3),
            detail=(
                f"previous p99 {prev_p99}ms, tolerance "
                f"{tolerance:.0%} + {abs_slack_ms}ms"
            ),
        ))

    gate_one("overall", dict(current.get("overall", {})), dict(previous.get("overall", {})))
    cur_endpoints = dict(current.get("endpoints", {}))
    prev_endpoints = dict(previous.get("endpoints", {}))
    for kind in sorted(cur_endpoints):
        if kind not in prev_endpoints:
            gates.append(GateResult(
                name=f"trajectory.{kind}.p99",
                passed=True,
                measured=float(dict(cur_endpoints[kind]).get("p99_ms", 0.0)),
                threshold=-1.0,  # sentinel: not gated
                detail="no baseline for this endpoint; skipped",
            ))
            continue
        gate_one(kind, dict(cur_endpoints[kind]), dict(prev_endpoints[kind]))
    for kind in sorted(set(prev_endpoints) - set(cur_endpoints)):
        gates.append(GateResult(
            name=f"trajectory.{kind}.p99",
            passed=True,
            measured=0.0,
            threshold=-1.0,  # sentinel: not gated
            detail="endpoint absent from current run; skipped",
        ))
    return gates


def latency_path(out_dir: os.PathLike = ".", date: Optional[str] = None) -> Path:
    """The canonical output path: ``<out_dir>/LATENCY_<yyyymmdd>.json``."""
    stamp = date if date is not None else time.strftime("%Y%m%d")
    return Path(os.fspath(out_dir)) / f"LATENCY_{stamp}.json"


def write_trajectory(payload: Mapping[str, object], path: os.PathLike) -> Path:
    """Write a LATENCY document as stable (sorted-key) indented JSON."""
    return write_json(payload, path)


def load_trajectory(path: os.PathLike) -> Dict[str, object]:
    """Read a LATENCY document (no schema check; compare does that).

    Raises:
        OSError: unreadable file.
        ValueError: not valid JSON or not a JSON object.
    """
    try:
        payload = json.loads(Path(os.fspath(path)).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{os.fspath(path)} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{os.fspath(path)} is not a JSON object")
    return payload
