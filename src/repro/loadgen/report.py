"""The ``LOADGEN_<yyyymmdd>.json`` report and its SLO gate.

The report mirrors the BENCH document conventions (schema version,
stable sorted-key JSON, dated filename) so tooling that diffs one can
diff the other.  Unlike BENCH it carries a verdict: the harness's
structural gates (did saturation actually shed? did every shed carry
Retry-After? did any body drift?) and the user's ``--slo`` thresholds
are evaluated into a ``gates`` block whose worst result decides the
process exit code — which is what lets CI fail a PR on a serving
regression without anyone reading the JSON.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.gates import GateResult, write_json
from repro.loadgen.metrics import PhaseMetrics

__all__ = [
    "LOADGEN_SCHEMA_VERSION",
    "GateResult",
    "SloThresholds",
    "build_report",
    "loadgen_path",
    "write_report",
]

#: Layout version of the LOADGEN JSON document.
LOADGEN_SCHEMA_VERSION = 1

#: SLO keys ``--slo`` accepts, mapped to how the threshold is compared.
#: All are "measured must be <= threshold" except availability, which is
#: "measured must be >= threshold".
_SLO_KEYS = ("p99_ms", "p999_ms", "shed_rate", "error_rate", "availability", "body_drift")


@dataclass(frozen=True)
class SloThresholds:
    """Parsed ``--slo`` thresholds; None means "not gated".

    ``p99_ms``/``p999_ms``/``shed_rate``/``error_rate``/``body_drift``
    are ceilings; ``availability`` is a floor.
    """

    p99_ms: Optional[float] = None
    p999_ms: Optional[float] = None
    shed_rate: Optional[float] = None
    error_rate: Optional[float] = None
    availability: Optional[float] = None
    body_drift: Optional[float] = None

    @classmethod
    def parse(cls, text: Optional[str]) -> "SloThresholds":
        """Parse ``p99_ms=750,shed_rate=0.25,error_rate=0.01`` syntax."""
        if not text:
            return cls()
        values: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"SLO entry {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in _SLO_KEYS:
                raise ValueError(
                    f"unknown SLO key {key!r}; expected one of {list(_SLO_KEYS)}"
                )
            try:
                values[key] = float(raw)
            except ValueError:
                raise ValueError(f"SLO value {raw!r} for {key} is not a number") from None
        return cls(**values)

    def evaluate(self, steady: PhaseMetrics, totals: PhaseMetrics) -> List[GateResult]:
        """Gate the *steady* phase's latency/rates and the run-wide drift.

        Latency and rate SLOs are judged against the steady phase — the
        saturation phase exists to provoke shedding, so folding its
        numbers in would make every threshold meaningless.  Body drift
        is judged run-wide: drift is never acceptable, not even while
        saturated.
        """
        measured = {
            "p99_ms": (steady.latency.quantile(0.99) * 1000.0, "steady-phase p99_ms"),
            "p999_ms": (steady.latency.quantile(0.999) * 1000.0, "steady-phase p999_ms"),
            "shed_rate": (steady.shed_rate, "steady-phase shed_rate"),
            "error_rate": (steady.error_rate, "steady-phase error_rate"),
            "availability": (steady.availability, "steady-phase ok over non-shed"),
            "body_drift": (float(totals.body_drift), "run-wide golden-body mismatches"),
        }
        gates: List[GateResult] = []
        for key in _SLO_KEYS:
            threshold = getattr(self, key)
            if threshold is None:
                continue
            value, detail = measured[key]
            passed = value >= threshold if key == "availability" else value <= threshold
            gates.append(GateResult(f"slo.{key}", passed, value, threshold, detail))
        return gates


def build_report(
    *,
    seed: int,
    target: str,
    mode: str,
    phases: Sequence[PhaseMetrics],
    gates: Sequence[GateResult],
    schedule_digests: Sequence[Mapping[str, object]],
    catalog: Mapping[str, object],
    tracer_counters: Optional[Mapping[str, float]] = None,
    slo: Optional[SloThresholds] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the canonical LOADGEN document.

    ``phases`` are reported in run order; ``totals`` is their merge
    (exercising histogram merge on every run).  The ``determinism``
    block carries per-persona schedule digests — two runs with the same
    seed must produce byte-identical digests, and the acceptance test
    holds the harness to it.
    """
    totals = PhaseMetrics("totals")
    for phase in phases:
        totals.merge(phase)
    report: Dict[str, object] = {
        "loadgen_schema_version": LOADGEN_SCHEMA_VERSION,
        "date": time.strftime("%Y%m%d"),
        "seed": int(seed),
        "target": target,
        "mode": mode,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "catalog": dict(catalog),
        "phases": [phase.to_dict() for phase in phases],
        "totals": totals.to_dict(),
        "gates": {
            "passed": all(gate.passed for gate in gates),
            "results": [gate.to_dict() for gate in gates],
        },
        "slo": (
            {
                key: getattr(slo, key)
                for key in _SLO_KEYS
                if getattr(slo, key) is not None
            }
            if slo is not None
            else {}
        ),
        "determinism": {
            "schedule_digest_prefix": 64,
            "personas": [dict(digest) for digest in schedule_digests],
        },
        "tracer": dict(sorted((tracer_counters or {}).items())),
    }
    if extra:
        report.update(dict(extra))
    return report


def loadgen_path(out_dir: os.PathLike = ".", date: Optional[str] = None) -> Path:
    """The canonical output path: ``<out_dir>/LOADGEN_<yyyymmdd>.json``."""
    stamp = date if date is not None else time.strftime("%Y%m%d")
    return Path(os.fspath(out_dir)) / f"LOADGEN_{stamp}.json"


def write_report(payload: Dict[str, object], path: os.PathLike) -> Path:
    """Write a LOADGEN document as stable (sorted-key) indented JSON."""
    return write_json(payload, path)
