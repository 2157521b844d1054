"""Aggregated load-test metrics: outcome taxonomy, rates, histograms.

The engine reports every completed request attempt as an
:class:`Outcome`; :class:`PhaseMetrics` folds those into counters and
log-bucketed latency histograms (overall and per request kind).  The
taxonomy matters more than the raw counts:

* ``ok`` — 200 with a semantically valid, golden-identical body.
* ``not_modified`` — 304 answering a conditional GET the client sent
  with ``If-None-Match``: the cached body is still current.  Counted as
  success in availability (it is the *cheapest* correct answer), but
  kept separate from ``ok`` so reports show how much traffic the
  ETag layer absorbed.
* ``shed`` — 503/504 *with* ``Retry-After``: the service deliberately
  refused work.  Sheds are excluded from the availability denominator
  (turning clients away politely under overload is correct behavior),
  but tracked as ``shed_rate`` so the SLO gate can bound them.
* ``body_drift`` — a 200 whose body differs from the pinned golden
  bytes: the one unforgivable outcome, counted separately and gated at
  zero.
* ``validation`` — a 200 whose body fails the persona's semantic checks.
* ``http_5xx`` / ``http_4xx`` — everything else the server said.
* ``client_timeout`` / ``connect_error`` — the client gave up.
* ``truncated`` — the peer closed before delivering the bytes its
  ``Content-Length`` promised.  Detected, never silently returned as a
  short body; retried like a connect error.
* ``retries_exhausted`` — every attempt in the per-request retry budget
  failed at the transport layer (reset / stall / truncation), or the
  pool's stale-reconnect budget ran dry.  Its own kind — a reset storm
  must show up as exhausted budgets, not a vague ``connect_error``.

Phase metrics merge (histogram merge + counter addition) into run
totals, which is what the report's ``totals`` block is.  The same
algebra crosses process boundaries: a multi-process worker serializes
its phase with :meth:`PhaseMetrics.to_spill` (exact counters plus
*full* per-kind histograms, unlike the rounded report projection) and
the parent rebuilds and merges with :meth:`PhaseMetrics.from_spill`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.loadgen.histogram import LatencyHistogram

__all__ = ["Outcome", "PhaseMetrics", "OUTCOME_KINDS", "SPILL_SCHEMA_VERSION"]

OUTCOME_KINDS = (
    "ok",
    "not_modified",
    "shed",
    "body_drift",
    "validation",
    "http_4xx",
    "http_5xx",
    "client_timeout",
    "connect_error",
    "truncated",
    "retries_exhausted",
)

#: Cap on stored failure examples, so a pathological run can't bloat the report.
_MAX_SAMPLES = 10

#: Layout version of the worker spill document.
SPILL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Outcome:
    """One finished request (after retries), as the engine saw it."""

    path: str
    kind: str  # request kind from the persona (lists, experiment, ...)
    persona_id: str
    outcome: str  # one of OUTCOME_KINDS
    status: Optional[int]  # HTTP status, None for client-side failures
    latency_seconds: float  # total time incl. retries
    attempts: int = 1
    bytes_in: int = 0
    bytes_out: int = 0
    retry_after_seen: int = 0  # 503/504 responses that carried Retry-After
    retry_after_missing: int = 0  # 503/504 responses that lacked/garbled it
    retry_after_honored_seconds: float = 0.0  # total seconds slept because of it
    detail: str = ""  # validator/drift reason, for the report samples


class PhaseMetrics:
    """Counters + histograms for one load phase; mergeable into totals."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.requests = 0
        self.attempts = 0
        self.retries = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.by_outcome: Dict[str, int] = {kind: 0 for kind in OUTCOME_KINDS}
        self.by_status: Dict[str, int] = {}
        self.by_kind: Dict[str, int] = {}
        self.retry_after_seen = 0
        self.retry_after_missing = 0
        self.retry_after_honored_seconds = 0.0
        self.latency = LatencyHistogram()
        self.latency_by_kind: Dict[str, LatencyHistogram] = {}
        self.samples: List[Dict[str, object]] = []
        self.duration_seconds = 0.0

    # ------------------------------------------------------------------
    # Recording.

    def record(self, outcome: Outcome) -> None:
        if outcome.outcome not in self.by_outcome:
            raise ValueError(f"unknown outcome kind {outcome.outcome!r}")
        self.requests += 1
        self.attempts += outcome.attempts
        self.retries += max(0, outcome.attempts - 1)
        self.bytes_in += outcome.bytes_in
        self.bytes_out += outcome.bytes_out
        self.by_outcome[outcome.outcome] += 1
        if outcome.status is not None:
            key = str(outcome.status)
            self.by_status[key] = self.by_status.get(key, 0) + 1
        self.by_kind[outcome.kind] = self.by_kind.get(outcome.kind, 0) + 1
        self.retry_after_seen += outcome.retry_after_seen
        self.retry_after_missing += outcome.retry_after_missing
        self.retry_after_honored_seconds += outcome.retry_after_honored_seconds
        self.latency.record(outcome.latency_seconds)
        per_kind = self.latency_by_kind.get(outcome.kind)
        if per_kind is None:
            per_kind = self.latency_by_kind[outcome.kind] = LatencyHistogram()
        per_kind.record(outcome.latency_seconds)
        if (
            outcome.outcome in ("body_drift", "validation", "http_5xx", "http_4xx")
            and len(self.samples) < _MAX_SAMPLES
        ):
            self.samples.append({
                "path": outcome.path,
                "outcome": outcome.outcome,
                "status": outcome.status,
                "detail": outcome.detail,
            })

    def merge(self, other: "PhaseMetrics") -> "PhaseMetrics":
        """Fold ``other`` into this (for the run totals); returns self."""
        self.requests += other.requests
        self.attempts += other.attempts
        self.retries += other.retries
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        for kind, count in other.by_outcome.items():
            self.by_outcome[kind] = self.by_outcome.get(kind, 0) + count
        for status, count in other.by_status.items():
            self.by_status[status] = self.by_status.get(status, 0) + count
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        self.retry_after_seen += other.retry_after_seen
        self.retry_after_missing += other.retry_after_missing
        self.retry_after_honored_seconds += other.retry_after_honored_seconds
        self.latency.merge(other.latency)
        for kind, histogram in other.latency_by_kind.items():
            mine = self.latency_by_kind.get(kind)
            if mine is None:
                mine = self.latency_by_kind[kind] = LatencyHistogram()
            mine.merge(histogram)
        for sample in other.samples:
            if len(self.samples) < _MAX_SAMPLES:
                self.samples.append(sample)
        self.duration_seconds += other.duration_seconds
        return self

    # ------------------------------------------------------------------
    # Derived rates (all safe on an empty phase).

    @property
    def sheds(self) -> int:
        return self.by_outcome["shed"]

    @property
    def shed_rate(self) -> float:
        """Fraction of requests the service deliberately refused."""
        return self.sheds / self.requests if self.requests else 0.0

    @property
    def availability(self) -> float:
        """Correct answers over non-shed requests.

        A 304 to a conditional GET counts as a correct answer — the
        service validated the client's cached body without resending it.
        Sheds are excluded from the denominator: an overloaded service
        saying "come back later" is behaving, not failing.
        """
        non_shed = self.requests - self.sheds
        good = self.by_outcome["ok"] + self.by_outcome["not_modified"]
        return good / non_shed if non_shed else 1.0

    @property
    def error_rate(self) -> float:
        """Hard failures (5xx/4xx/timeouts/drift/validation) over all."""
        if not self.requests:
            return 0.0
        errors = sum(
            self.by_outcome[kind]
            for kind in (
                "body_drift", "validation", "http_4xx", "http_5xx",
                "client_timeout", "connect_error", "truncated",
                "retries_exhausted",
            )
        )
        return errors / self.requests

    @property
    def body_drift(self) -> int:
        return self.by_outcome["body_drift"]

    def throughput_rps(self) -> float:
        return (
            self.requests / self.duration_seconds if self.duration_seconds else 0.0
        )

    # ------------------------------------------------------------------
    # Serialization.

    def summary(self) -> Dict[str, object]:
        """The compact block a gate manifest records for a scripted phase."""
        return {
            "requests": self.requests,
            "attempts": self.attempts,
            "availability": round(self.availability, 6),
            "error_rate": round(self.error_rate, 6),
            "body_drift": self.body_drift,
            "by_outcome": {kind: n for kind, n in self.by_outcome.items() if n},
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration_seconds": round(self.duration_seconds, 3),
            "requests": self.requests,
            "attempts": self.attempts,
            "retries": self.retries,
            "throughput_rps": round(self.throughput_rps(), 2),
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "by_outcome": dict(sorted(self.by_outcome.items())),
            "by_status": dict(sorted(self.by_status.items())),
            "by_kind": dict(sorted(self.by_kind.items())),
            "rates": {
                "shed_rate": round(self.shed_rate, 6),
                "availability": round(self.availability, 6),
                "error_rate": round(self.error_rate, 6),
            },
            "retry_after": {
                "seen": self.retry_after_seen,
                "missing": self.retry_after_missing,
                "honored_seconds": round(self.retry_after_honored_seconds, 3),
            },
            "latency": {
                **self.latency.quantiles_ms(),
                "mean_ms": round(self.latency.mean * 1000.0, 3),
                "histogram": self.latency.to_dict(),
            },
            "latency_by_kind": {
                kind: histogram.quantiles_ms()
                for kind, histogram in sorted(self.latency_by_kind.items())
            },
            "samples": list(self.samples),
        }

    def to_spill(self) -> Dict[str, object]:
        """Lossless projection for worker spill files.

        Unlike :meth:`to_dict` (the human-facing report block, which
        rounds rates and collapses per-kind histograms to quantiles),
        this keeps exact counters and full histograms so the parent's
        merge is bit-identical to having recorded every outcome in one
        process.
        """
        return {
            "spill_schema_version": SPILL_SCHEMA_VERSION,
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "attempts": self.attempts,
            "retries": self.retries,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "by_outcome": dict(sorted(self.by_outcome.items())),
            "by_status": dict(sorted(self.by_status.items())),
            "by_kind": dict(sorted(self.by_kind.items())),
            "retry_after_seen": self.retry_after_seen,
            "retry_after_missing": self.retry_after_missing,
            "retry_after_honored_seconds": self.retry_after_honored_seconds,
            "latency": self.latency.to_dict(),
            "latency_by_kind": {
                kind: histogram.to_dict()
                for kind, histogram in sorted(self.latency_by_kind.items())
            },
            "samples": list(self.samples),
        }

    @classmethod
    def from_spill(cls, payload: Dict[str, object]) -> "PhaseMetrics":
        """Rebuild a phase from :meth:`to_spill` output.

        Raises:
            ValueError: unknown spill schema version.
        """
        version = payload.get("spill_schema_version")
        if version != SPILL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported spill schema {version!r}; "
                f"expected {SPILL_SCHEMA_VERSION}"
            )
        phase = cls(str(payload["name"]))
        phase.duration_seconds = float(payload.get("duration_seconds", 0.0))
        phase.requests = int(payload.get("requests", 0))
        phase.attempts = int(payload.get("attempts", 0))
        phase.retries = int(payload.get("retries", 0))
        phase.bytes_in = int(payload.get("bytes_in", 0))
        phase.bytes_out = int(payload.get("bytes_out", 0))
        for kind, count in dict(payload.get("by_outcome", {})).items():
            if kind not in phase.by_outcome:
                raise ValueError(f"unknown outcome kind {kind!r} in spill")
            phase.by_outcome[kind] = int(count)
        phase.by_status = {
            str(status): int(count)
            for status, count in dict(payload.get("by_status", {})).items()
        }
        phase.by_kind = {
            str(kind): int(count)
            for kind, count in dict(payload.get("by_kind", {})).items()
        }
        phase.retry_after_seen = int(payload.get("retry_after_seen", 0))
        phase.retry_after_missing = int(payload.get("retry_after_missing", 0))
        phase.retry_after_honored_seconds = float(
            payload.get("retry_after_honored_seconds", 0.0)
        )
        phase.latency = LatencyHistogram.from_dict(dict(payload["latency"]))
        phase.latency_by_kind = {
            str(kind): LatencyHistogram.from_dict(dict(blob))
            for kind, blob in dict(payload.get("latency_by_kind", {})).items()
        }
        phase.samples = [dict(sample) for sample in payload.get("samples", [])][
            :_MAX_SAMPLES
        ]
        return phase
