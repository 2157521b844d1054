"""Degraded-provider ingestion: contracts, gap policy, and the data feed.

Real top lists are messy upstream artifacts: providers skip days, repeat
yesterday's file, truncate, emit duplicate ranks, drift their format, and
— as Alexa did — retire outright.  This module is the validation layer
between "what a provider published" and "what the aggregation consumes".

The data-fault rule (DESIGN.md): every ingest path classifies each
arriving day as **clean**, **repaired**, or **quarantined** against the
provider's schema contract, and never silently coerces malformed input.
Whatever the classification, the resolution the pipeline actually uses —
accept, carry-forward with a staleness age, or an unrecoverable hole —
is recorded per (provider, day) and surfaced as ``data_health``.

Fault decisions come from the ordinary :class:`repro.faults.FaultPlan`
machinery at the ``data.*`` sites, keyed on ``<provider>/day-<ddd>``.
Each key is consulted exactly once per feed (ingestion is strictly
sequential per provider), so every decision is a pure function of
``(seed, provider, day)`` — which is what makes the fault-sequence
digest replayable, in-run and across processes.  Day 0 is the bootstrap
day and is never faulted: carry-forward always has a source.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.faults.plan import DATA_SITES, FaultPlan, FaultRule, day_key
from repro.providers.base import RankedList, TopListProvider
from repro.worldgen.world import World

__all__ = [
    "WIRE_SCHEMA",
    "LEGACY_WIRE_SCHEMA",
    "DEFAULT_TRUNCATE_FRACTION",
    "TRUNCATION_FLOOR",
    "GapPolicy",
    "DayRecord",
    "ProviderContract",
    "IngestGate",
    "DegradedFeed",
    "ProviderStream",
    "contract_for",
    "decide_day",
    "digest_of_data_log",
    "legacy_wire_doc",
    "wire_doc",
]

#: Canonical wire schema a provider publishes one day's list under.
WIRE_SCHEMA = "repro/day-list/1"

#: The previous wire generation: rank/row entry objects instead of a row
#: array.  Contracts recognize and normalize it (a *repair*, recorded as
#: ``schema_drift``); anything else is quarantined as ``unknown_schema``.
LEGACY_WIRE_SCHEMA = "repro/day-list/0"

#: List fraction kept by ``data.day.truncated`` when the firing rule
#: carries no explicit ``fraction``.
DEFAULT_TRUNCATE_FRACTION = 0.4

#: Minimum fraction of a provider's learned publication length an
#: arriving day must reach to be repairable; shorter days are
#: quarantined as ``truncated``.
TRUNCATION_FLOOR = 0.5


def wire_doc(provider: str, day: int, granularity: str,
             rows: Sequence[int]) -> Dict:
    """One published provider day in the canonical wire schema."""
    return {
        "schema": WIRE_SCHEMA,
        "provider": provider,
        "day": int(day),
        "granularity": granularity,
        "rows": [int(r) for r in rows],
    }


def legacy_wire_doc(provider: str, day: int, granularity: str,
                    rows: Sequence[int]) -> Dict:
    """The same day in the drifted legacy schema (entry objects)."""
    return {
        "schema": LEGACY_WIRE_SCHEMA,
        "list": {
            "provider": provider,
            "day": int(day),
            "granularity": granularity,
            "entries": [
                {"rank": i + 1, "row": int(r)} for i, r in enumerate(rows)
            ],
        },
    }


@dataclass(frozen=True)
class GapPolicy:
    """How the pipeline resolves days the contract could not accept.

    Attributes:
        max_carry: consecutive days a provider's last accepted list may
          be carried forward (with a growing staleness age) before the
          gap becomes an unrecoverable hole and the aggregation window
          re-normalizes around it.
    """

    max_carry: int = 3

    def __post_init__(self) -> None:
        if self.max_carry < 0:
            raise ValueError(f"max_carry must be >= 0, got {self.max_carry}")


@dataclass(frozen=True)
class DayRecord:
    """The ingest ledger entry for one (provider, day).

    ``status`` is the contract classification of what arrived (``clean``
    / ``repaired`` / ``quarantined`` / ``missing`` / ``retired``);
    ``resolution`` is what the pipeline consumes (``clean`` /
    ``repaired`` / ``carried_forward`` / ``unrecoverable`` /
    ``retired``).  ``staleness`` is days since the provider's last
    accepted publication (0 for a fresh accept, 1 for a stale repeat).
    """

    provider: str
    day: int
    arrived: bool
    status: str
    resolution: str
    staleness: int
    reasons: Tuple[str, ...]
    repairs: Tuple[str, ...]
    injected: Optional[str]
    rows: Optional[Tuple[int, ...]]

    @property
    def degraded(self) -> bool:
        return self.resolution != "clean"

    def health(self) -> Dict:
        """The flat per-day ``data_health`` block the serving layer embeds."""
        return {
            "status": self.resolution,
            "degraded": self.degraded,
            "staleness": self.staleness,
            "reasons": list(self.reasons),
            "repairs": list(self.repairs),
            "injected": self.injected,
        }


class ProviderContract:
    """The schema contract one provider's published days must satisfy.

    Stateless: classification of a day depends only on the document, the
    previous accepted rows (stale-repeat detection), and the learned
    reference length (truncation detection) that the caller passes in.
    """

    def __init__(self, provider: str, granularity: str, n_rows: int,
                 max_length: int) -> None:
        if n_rows < 1:
            raise ValueError("contract needs a non-empty name table")
        if max_length < 1:
            raise ValueError("contract needs max_length >= 1")
        self.provider = provider
        self.granularity = granularity
        self.n_rows = n_rows
        self.max_length = max_length

    def classify(
        self,
        doc: object,
        *,
        day: int,
        previous_rows: Optional[Tuple[int, ...]] = None,
        reference_length: Optional[int] = None,
    ) -> Tuple[str, Optional[Tuple[int, ...]], Tuple[str, ...], Tuple[str, ...]]:
        """Classify one arriving day.

        Returns ``(status, rows, reasons, repairs)`` where status is
        ``clean`` / ``repaired`` / ``quarantined`` and rows is the
        accepted (possibly repaired) row tuple, or None on quarantine.
        """
        reasons: List[str] = []
        repairs: List[str] = []

        def quarantined(reason: str):
            return "quarantined", None, tuple(reasons + [reason]), tuple(repairs)

        if not isinstance(doc, dict):
            return quarantined("not_a_document")
        schema = doc.get("schema")
        if schema == WIRE_SCHEMA:
            body = doc
            raw_rows = doc.get("rows")
        elif schema == LEGACY_WIRE_SCHEMA:
            body = doc.get("list")
            if not isinstance(body, dict):
                return quarantined("malformed_legacy_document")
            entries = body.get("entries")
            if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "row" in e for e in entries
            ):
                return quarantined("malformed_legacy_document")
            raw_rows = [e["row"] for e in entries]
            repairs.append("schema_drift")
        else:
            return quarantined("unknown_schema")
        if body.get("provider") != self.provider:
            return quarantined("provider_mismatch")
        if body.get("day") != day:
            # Non-contiguous / relabeled day numbers: the stream is
            # strictly sequential, a day claiming another index is not
            # trustworthy as *this* day.
            return quarantined("day_mismatch")
        if body.get("granularity") != self.granularity:
            return quarantined("granularity_mismatch")
        if not isinstance(raw_rows, list):
            return quarantined("malformed_rows")
        rows: List[int] = []
        for value in raw_rows:
            if isinstance(value, bool) or not isinstance(value, int):
                return quarantined("malformed_rows")
            if not 0 <= value < self.n_rows:
                return quarantined("row_out_of_range")
            rows.append(value)
        if not rows:
            return quarantined("empty_day")
        if len(set(rows)) != len(rows):
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
            repairs.append("duplicate_ranks")
        if len(rows) > self.max_length:
            rows = rows[: self.max_length]
            repairs.append("overlong")
        if reference_length is not None and len(rows) < reference_length:
            if len(rows) < TRUNCATION_FLOOR * reference_length:
                return quarantined("truncated")
            repairs.append("short_day")
        if previous_rows is not None and tuple(rows) == previous_rows:
            repairs.append("stale_repeat")
        status = "repaired" if repairs else "clean"
        return status, tuple(rows), tuple(reasons), tuple(repairs)


def contract_for(provider: TopListProvider, world: World) -> ProviderContract:
    """The contract a simulated provider's published days must satisfy."""
    return ProviderContract(
        provider=provider.name,
        granularity=provider.granularity,
        n_rows=len(world.names.strings),
        max_length=world.config.list_length,
    )


class IngestGate:
    """Stateful per-provider ingestion: contract + gap policy + ledger.

    Days must be ingested strictly in order.  Every day produces exactly
    one :class:`DayRecord`; nothing is ever silently coerced or dropped.
    """

    def __init__(self, contract: ProviderContract,
                 policy: Optional[GapPolicy] = None) -> None:
        self.contract = contract
        self.policy = policy or GapPolicy()
        self.records: List[DayRecord] = []
        self.retired_at: Optional[int] = None
        self._last_rows: Optional[Tuple[int, ...]] = None
        self._reference_length: Optional[int] = None
        self._staleness = 0

    @property
    def next_day(self) -> int:
        return len(self.records)

    def ingest(self, day: int, doc: Optional[object],
               injected: Optional[str] = None) -> DayRecord:
        """Classify and resolve one arriving day (or its absence).

        Args:
            day: the day index; must equal :attr:`next_day`.
            doc: the published wire document, or None when nothing
              arrived (missing day, or a retired provider).
            injected: the ``data.*`` site that degraded this day, if the
              feed knows it — recorded in the ledger for audit, never
              consulted for classification (the contract must catch the
              damage on its own).
        """
        if day != self.next_day:
            raise ValueError(
                f"days must be ingested in order: got day {day}, "
                f"expected {self.next_day}"
            )
        if injected == "data.provider.retired" and self.retired_at is None:
            self.retired_at = day
        if self.retired_at is not None:
            # Retirement is one-way: the component is dropped from
            # aggregation (no carry — the provider is gone, not late).
            self._staleness += 1
            record = DayRecord(
                provider=self.contract.provider, day=day, arrived=False,
                status="retired", resolution="retired",
                staleness=self._staleness, reasons=("provider_retired",),
                repairs=(), injected=injected, rows=None,
            )
            self.records.append(record)
            return record
        if doc is None:
            return self._resolve_gap(day, "missing", ("missing_day",),
                                     (), injected)
        status, rows, reasons, repairs = self.contract.classify(
            doc, day=day, previous_rows=self._last_rows,
            reference_length=self._reference_length,
        )
        if status == "quarantined":
            return self._resolve_gap(day, status, reasons, repairs, injected)
        assert rows is not None
        self._last_rows = rows
        self._reference_length = max(self._reference_length or 0, len(rows))
        self._staleness = 1 if "stale_repeat" in repairs else 0
        record = DayRecord(
            provider=self.contract.provider, day=day, arrived=True,
            status=status, resolution=status, staleness=self._staleness,
            reasons=reasons, repairs=repairs, injected=injected, rows=rows,
        )
        self.records.append(record)
        return record

    def _resolve_gap(self, day: int, status: str, reasons: Tuple[str, ...],
                     repairs: Tuple[str, ...],
                     injected: Optional[str]) -> DayRecord:
        self._staleness += 1
        if (self._last_rows is not None
                and self._staleness <= self.policy.max_carry):
            resolution = "carried_forward"
            rows: Optional[Tuple[int, ...]] = self._last_rows
        else:
            resolution = "unrecoverable"
            rows = None
        record = DayRecord(
            provider=self.contract.provider, day=day,
            arrived=status not in ("missing",), status=status,
            resolution=resolution, staleness=self._staleness,
            reasons=reasons, repairs=repairs, injected=injected, rows=rows,
        )
        self.records.append(record)
        return record

    def counts(self) -> Dict[str, int]:
        """Resolution counts over the ledger (for ``/metricz``)."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.resolution] = out.get(record.resolution, 0) + 1
        return out


def decide_day(plan: FaultPlan, provider: str,
               day: int) -> Tuple[Optional[str], Optional[FaultRule]]:
    """Consult the ``data.*`` sites for one (provider, day) key.

    Rules pinned to this exact key are consulted first (a background
    wildcard must not steal a pinned day), then the remaining sites in
    canonical :data:`DATA_SITES` order; the first fire wins — at most one
    data fault per provider-day.  Day 0 never faults (bootstrap day).
    """
    if day <= 0:
        return None, None
    key = day_key(provider, day)
    pinned = [r.site for r in plan.rules
              if r.site in DATA_SITES and r.match == key]
    order = list(dict.fromkeys(pinned))
    order += [site for site in DATA_SITES if site not in order]
    for site in order:
        rule = plan.fire(site, key)
        if rule is not None:
            return site, rule
    return None, None


def digest_of_data_log(entries: Sequence[Dict]) -> str:
    """Order-insensitive digest of a data-fault log.

    Canonicalized by sorting ``key:site`` lines, so concurrent serving
    paths that interleave providers differently still produce the same
    digest for the same decisions.
    """
    lines = sorted(f"{e['key']}:{e['site']}" for e in entries)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class DegradedFeed:
    """A fault-armed publisher: clean provider days, degraded on the wire.

    Wraps the simulated providers and applies plan-decided ``data.*``
    faults to each published day, producing exactly what a messy real
    provider would: a wire document (canonical or drifted), yesterday's
    file again, a truncated file, or nothing at all.  Keeps the ordered
    fault log whose digest the chaos-data gate replays.
    """

    def __init__(self, providers: Mapping[str, TopListProvider],
                 plan: Optional[FaultPlan]) -> None:
        self._providers = dict(providers)
        self.plan = plan
        self.retired: Dict[str, int] = {}
        self.fault_log: List[Dict] = []
        self._consulted: List[Tuple[str, int]] = []
        self._consulted_keys: set = set()
        self._published: Dict[str, List[int]] = {}

    def fetch(self, provider: str, day: int
              ) -> Tuple[Optional[Dict], Optional[str]]:
        """Publish one provider day; returns ``(doc, injected_site)``.

        ``doc`` is None for a missing day or a retired provider;
        ``injected_site`` names the fault that degraded this day (for
        the ledger — ``data.provider.retired`` is sticky and reported
        for every post-retirement day, though only the first consult
        fires and is logged).
        """
        if provider not in self._providers:
            raise KeyError(f"unknown provider {provider!r}")
        retired_at = self.retired.get(provider)
        if retired_at is not None and day >= retired_at:
            return None, "data.provider.retired"
        site: Optional[str] = None
        rule: Optional[FaultRule] = None
        if self.plan is not None and day > 0:
            key = (provider, day)
            if key in self._consulted_keys:
                raise ValueError(
                    f"day {day} of {provider!r} consulted twice; the feed "
                    "is strictly sequential per provider"
                )
            self._consulted_keys.add(key)
            self._consulted.append(key)
            site, rule = decide_day(self.plan, provider, day)
            if site is not None:
                obs.count(f"faults.{site}")
                self.fault_log.append(
                    {"key": day_key(provider, day), "site": site,
                     "provider": provider, "day": day}
                )
        if site == "data.provider.retired":
            self.retired[provider] = day
            return None, site
        if site == "data.day.missing":
            return None, site
        source = self._providers[provider]
        if site == "data.day.stale_repeat" and provider in self._published:
            rows = list(self._published[provider])
        else:
            rows = [int(r) for r in source.daily_list(day).name_rows]
            if site == "data.day.truncated":
                fraction = (rule.fraction if rule and rule.fraction is not None
                            else DEFAULT_TRUNCATE_FRACTION)
                rows = rows[: max(1, int(len(rows) * fraction))]
            elif site == "data.day.duplicate_ranks" and len(rows) >= 4:
                rows[len(rows) // 2] = rows[0]
                rows[(2 * len(rows)) // 3] = rows[1]
        self._published[provider] = rows
        if site == "data.day.schema_drift":
            return legacy_wire_doc(provider, day, source.granularity,
                                   rows), site
        return wire_doc(provider, day, source.granularity, rows), site

    def fired_sites(self) -> Dict[str, int]:
        """Fires per ``data.*`` site, from the feed's own log."""
        out: Dict[str, int] = {}
        for entry in self.fault_log:
            out[entry["site"]] = out.get(entry["site"], 0) + 1
        return out

    def fault_digest(self) -> str:
        return digest_of_data_log(self.fault_log)

    def replay_digest(self) -> str:
        """Re-run every recorded consult against a fresh plan copy.

        Equality with :meth:`fault_digest` proves the decision procedure
        is a pure function of (seed, provider, day) — no hidden state
        leaked into the sequence the run actually took.
        """
        if self.plan is None:
            return digest_of_data_log([])
        twin = FaultPlan.from_dict(self.plan.to_dict())
        log: List[Dict] = []
        for provider, day in self._consulted:
            site, _ = decide_day(twin, provider, day)
            if site is not None:
                log.append({"key": day_key(provider, day), "site": site})
        return digest_of_data_log(log)


class ProviderStream:
    """Serve-side sequential ingestion of one provider's published days.

    Resolution is strictly in day order with memoization, so a request
    for day *d* first materializes days ``0..d-1`` — which is what keeps
    every ``data.*`` consult a single, request-order-independent event.
    The stream never refuses a day: past the carry bound it keeps serving
    the last accepted list, but marks it ``unrecoverable`` (or
    ``retired``) with its staleness age in ``data_health`` — stale bytes
    are acceptable, unmarked stale bytes are not.
    """

    def __init__(self, provider: TopListProvider, world: World,
                 feed: DegradedFeed) -> None:
        self._provider = provider
        self._feed = feed
        self._gate = IngestGate(contract_for(provider, world))
        self._resolved: List[Tuple[RankedList, Dict]] = []
        self._last_served: Optional[RankedList] = None

    @property
    def gate(self) -> IngestGate:
        return self._gate

    def resolve(self, day: int) -> Tuple[RankedList, Dict]:
        """The list and ``data_health`` block served for ``day``."""
        if day < 0:
            raise ValueError("day must be >= 0")
        while len(self._resolved) <= day:
            self._resolved.append(self._resolve_next())
        return self._resolved[day]

    def _resolve_next(self) -> Tuple[RankedList, Dict]:
        day = len(self._resolved)
        doc, injected = self._feed.fetch(self._provider.name, day)
        record = self._gate.ingest(day, doc, injected=injected)
        health = record.health()
        if record.resolution == "clean" and injected is None:
            # Clean day straight from the source: serve the provider's
            # own list object so bucketed providers keep their bounds
            # and the clean path stays bit-identical to no-chaos serving.
            ranked = self._provider.daily_list(day)
        elif record.rows is not None:
            ranked = RankedList(
                provider=self._provider.name, day=day,
                granularity=self._provider.granularity,
                name_rows=np.asarray(record.rows, dtype=np.int64),
            )
        elif self._last_served is not None:
            previous = self._last_served
            ranked = RankedList(
                provider=previous.provider, day=day,
                granularity=previous.granularity,
                name_rows=previous.name_rows,
                bucket_bounds=previous.bucket_bounds,
            )
        else:
            # Unreachable with a day-0 bootstrap, but never serve
            # fabricated data: fall back to the source list, marked.
            ranked = self._provider.daily_list(day)
        self._last_served = ranked
        return ranked, health

    def counts(self) -> Dict[str, object]:
        """The per-provider block ``/metricz`` reports."""
        gate = self._gate
        return {
            "resolutions": gate.counts(),
            "retired_at": gate.retired_at,
            "max_staleness": max(
                (r.staleness for r in gate.records), default=0
            ),
            "days_resolved": len(gate.records),
        }
