"""Fault plans: declarative, seeded, deterministic failure schedules.

A :class:`FaultPlan` is a JSON-serializable list of :class:`FaultRule`
entries, each naming an injection *site* (one of :data:`SITES`), a glob
``match`` over the key presented at that site (an artifact name such as
``metrics/day-003`` for store sites, an experiment id for worker sites),
a ``probability``, and a ``max_fires`` budget.

Determinism is the whole point — chaos runs must replay bit-for-bit:

* Probabilistic decisions never consult a live RNG.  Each decision hashes
  ``(plan seed, rule index, site, key, occurrence)`` and compares the
  resulting uniform value against ``probability``, so the same plan makes
  the same calls regardless of process scheduling or call interleaving
  from *other* sites.
* The occurrence index is a per-process counter per ``(rule, key)`` for
  store sites, and the explicit submission number for worker sites (the
  supervisor passes it in), so a one-shot crash rule fires on the first
  submission and stays quiet on the resubmission — the recovery path is
  guaranteed to get a clean run.

Plans travel to pool/supervised worker processes as JSON through the
worker initializer; fire counters are therefore per-process, and the run
manifest aggregates them across workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SITES",
    "NET_SITES",
    "DATA_SITES",
    "FaultRule",
    "FaultPlan",
    "default_chaos_plan",
    "default_serve_plan",
    "default_net_plan",
    "default_data_plan",
    "connection_key",
    "day_key",
]

#: The transport-level sites consulted by :mod:`repro.faults.netproxy`.
#: They key on connection serials (``conn-000042``) assigned in accept
#: order, not on paths — the proxy never needs to understand the request
#: to break the wire under it.
NET_SITES: Tuple[str, ...] = (
    "net.accept.reset",
    "net.read.stall",
    "net.write.garble",
    "net.write.truncate",
    "net.close.mid_response",
    "net.write.split",
)

#: The data-plane sites consulted by :mod:`repro.ranking.ingest` when a
#: provider's published day list is fetched.  They key on
#: ``<provider>/day-<ddd>`` (see :func:`day_key`) so every decision is a
#: pure function of (seed, provider, day) — the ingestion layer consults
#: each key exactly once per feed, regardless of request interleaving.
DATA_SITES: Tuple[str, ...] = (
    "data.provider.retired",
    "data.day.missing",
    "data.day.stale_repeat",
    "data.day.truncated",
    "data.day.duplicate_ranks",
    "data.day.schema_drift",
)

#: Every injection site wired into the pipeline.  ``store.*`` sites key on
#: artifact names, ``worker.*`` and ``experiment.*`` sites on experiment
#: ids, ``serve.*`` sites on HTTP request paths, ``net.*`` sites on proxy
#: connection serials, and ``data.*`` sites on provider-day keys.
SITES: Tuple[str, ...] = (
    "store.read.corrupt",
    "store.read.slow",
    "store.write.enospc",
    "store.write.partial",
    "worker.crash",
    "worker.hang",
    "experiment.flaky_first_attempt",
    "serve.request.error",
) + NET_SITES + DATA_SITES


@dataclass(frozen=True)
class FaultRule:
    """One fault source.

    Attributes:
        site: injection site, one of :data:`SITES`.
        match: glob matched (case-sensitively) against the site's key.
        probability: chance of firing per eligible occurrence, decided by
          the plan's deterministic hash — 1.0 fires always.
        max_fires: occurrence budget.  For store sites this caps fires per
          process; for worker sites it caps fires per *submission index*,
          which is what lets a killed worker's resubmission run clean.
        min_occurrence: first eligible occurrence index (default 0).  A
          rule with ``min_occurrence=1`` lets the *first* consult per key
          pass clean and becomes eligible from the second on — which is
          how a serving-path plan armed at boot spares the warmup read
          (one read per results key) and fires under live traffic instead.
        delay_seconds: sleep length for ``worker.hang`` (default 3600 —
          anything longer than any sane deadline) and ``store.read.slow``
          (default 0.25 — long enough to trip a serving-path breaker).
        exit_code: process exit status for ``worker.crash``.
        fraction: for ``data.day.truncated``, the fraction of the day's
          list the degraded feed keeps (default 0.4 when unset).
    """

    site: str
    match: str = "*"
    probability: float = 1.0
    max_fires: int = 1
    delay_seconds: Optional[float] = None
    exit_code: int = 3
    min_occurrence: int = 0
    fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {', '.join(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.min_occurrence < 0:
            raise ValueError(
                f"min_occurrence must be >= 0, got {self.min_occurrence}"
            )
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "site": self.site,
            "match": self.match,
            "probability": self.probability,
            "max_fires": self.max_fires,
        }
        if self.delay_seconds is not None:
            payload["delay_seconds"] = self.delay_seconds
        if self.exit_code != 3:
            payload["exit_code"] = self.exit_code
        if self.min_occurrence:
            payload["min_occurrence"] = self.min_occurrence
        if self.fraction is not None:
            payload["fraction"] = self.fraction
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultRule":
        return cls(
            site=str(payload["site"]),
            match=str(payload.get("match", "*")),
            probability=float(payload.get("probability", 1.0)),
            max_fires=int(payload.get("max_fires", 1)),
            delay_seconds=(
                None if payload.get("delay_seconds") is None
                else float(payload["delay_seconds"])  # type: ignore[arg-type]
            ),
            exit_code=int(payload.get("exit_code", 3)),
            min_occurrence=int(payload.get("min_occurrence", 0)),
            fraction=(
                None if payload.get("fraction") is None
                else float(payload["fraction"])  # type: ignore[arg-type]
            ),
        )


class FaultPlan:
    """A seeded set of fault rules plus per-process fire accounting.

    Args:
        rules: the fault sources, consulted in order (first match wins).
        seed: feeds the deterministic probability hash.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        #: Fires per site, in this process.
        self.fired: Dict[str, int] = {}
        self._occurrences: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # The decision procedure.

    def _decide(self, rule_index: int, site: str, key: str, occurrence: int,
                probability: float) -> bool:
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        token = f"{self.seed}:{rule_index}:{site}:{key}:{occurrence}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < probability

    def fire(self, site: str, key: str, occurrence: Optional[int] = None
             ) -> Optional[FaultRule]:
        """Consult the plan at an injection site; returns the firing rule.

        Args:
            site: one of :data:`SITES`.
            key: the artifact name or experiment id at the site.
            occurrence: explicit occurrence index (worker sites pass the
              zero-based submission number); None uses — and advances — the
              per-process counter for the matching rule.

        Returns:
            The first matching rule whose budget and probability allow a
            fire, or None.  Fires are tallied in :attr:`fired`.

        Raises:
            ValueError: for a site name not in :data:`SITES`.  A typo'd
              consult site would otherwise just never fire — silently
              disarming whatever chaos coverage depended on it.
        """
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {', '.join(SITES)}"
            )
        for index, rule in enumerate(self.rules):
            if rule.site != site or not fnmatchcase(key, rule.match):
                continue
            if occurrence is None:
                slot = (index, key)
                occ = self._occurrences.get(slot, 0)
                self._occurrences[slot] = occ + 1
            else:
                occ = occurrence
            if occ < rule.min_occurrence:
                continue
            if occ >= rule.min_occurrence + rule.max_fires:
                continue
            if not self._decide(index, site, key, occ, rule.probability):
                continue
            self.fired[site] = self.fired.get(site, 0) + 1
            return rule
        return None

    def fired_snapshot(self) -> Dict[str, int]:
        """A copy of the per-site fire counts (for payload deltas)."""
        return dict(self.fired)

    # ------------------------------------------------------------------
    # Serialization.

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        rules: List[FaultRule] = []
        for index, raw in enumerate(payload.get("rules", [])):  # type: ignore[union-attr]
            try:
                rules.append(FaultRule.from_dict(raw))
            except (KeyError, TypeError, ValueError) as exc:
                # Fail fast at plan-load time, naming the offending rule —
                # a bad rule that slipped through would never fire and the
                # run would silently lose its intended fault coverage.
                raise ValueError(f"fault plan rule #{index}: {exc}") from exc
        return cls(
            rules=rules,
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def _shuffled(names: Sequence[str], seed: int) -> List[str]:
    """Names in a deterministic seed-dependent order (no live RNG)."""
    return sorted(
        names,
        key=lambda name: hashlib.sha256(f"{seed}:{name}".encode("utf-8")).hexdigest(),
    )


def default_chaos_plan(
    seed: int, names: Sequence[str], hang_seconds: float = 3600.0
) -> FaultPlan:
    """The built-in ``repro chaos`` plan: one of everything on the
    runner path (the serving-path sites belong to
    :func:`default_serve_plan`).

    Injects exactly one corruption, one ENOSPC, one partial write, one
    worker crash, one worker hang, and one flaky first attempt, with the
    crash/hang/flaky victims drawn deterministically (by seed) from
    ``names`` so repeated soaks with different seeds rotate coverage.

    Args:
        seed: plan seed; also picks the victim experiments.
        names: the experiment ids the chaos run will execute.
        hang_seconds: sleep injected by the hang rule — set it comfortably
          above the runner deadline so the timeout path actually trips.
    """
    victims = _shuffled(names, seed) or ["*"]
    pick = lambda i: victims[i % len(victims)]  # noqa: E731
    return FaultPlan(
        rules=[
            # Supervised workers hydrate the world from the store, so a
            # corrupt world read drives the quarantine-and-rebuild path.
            FaultRule("store.read.corrupt", match="world/*"),
            FaultRule("store.write.enospc", match="metrics/*"),
            FaultRule("store.write.partial", match="providers/*"),
            FaultRule("worker.crash", match=pick(0)),
            FaultRule("worker.hang", match=pick(1), delay_seconds=hang_seconds),
            FaultRule("experiment.flaky_first_attempt", match=pick(2)),
        ],
        seed=seed,
    )


def default_serve_plan(
    seed: int,
    slow_seconds: float = 0.15,
    warmup_reads: int = 0,
    error_probability: float = 1.0,
) -> FaultPlan:
    """The built-in serving-path fault plan (``--selftest`` and loadgen).

    Per results key, the first eligible live read is injected slow *and*
    corrupt (``max_fires`` budgets are per ``(rule, key)``), so under
    traffic the service must quarantine the blob, trip its circuit breaker
    on the consecutive failures, answer from last-known-good while open,
    repair the store copy, and re-close the breaker once every key's fault
    budget is spent.  Requests on the lists surface may also take an
    injected internal error, exercising the 5xx accounting path.

    Args:
        seed: plan seed (decides only probabilistic rules — the store
          rules are deterministic with probability 1 — and keeps replay
          commands self-describing).
        slow_seconds: injected read latency; keep it above the breaker's
          slow-read threshold and well below the request deadline.
        warmup_reads: reads per results key to let pass clean before the
          store rules arm (``min_occurrence``).  The selftest activates
          the plan *after* warmup and keeps the default 0; ``repro
          loadgen --spawn`` arms the plan at child boot and passes 1 so
          warmup's single read per key succeeds and the faults land under
          live traffic instead.
        error_probability: chance each lists path takes one injected
          internal error on its first eligible request.  The selftest
          sweeps two lists paths and keeps 1.0; a load generator sweeping
          dozens of distinct paths lowers this so injected 5xx volume
          stays inside its availability budget.
    """
    return FaultPlan(
        rules=[
            FaultRule("store.read.slow", match="results/*",
                      delay_seconds=slow_seconds, min_occurrence=warmup_reads),
            FaultRule("store.read.corrupt", match="results/*",
                      min_occurrence=warmup_reads),
            FaultRule("serve.request.error", match="/v1/lists/*",
                      probability=error_probability),
        ],
        seed=seed,
    )


def connection_key(serial: int) -> str:
    """The key a ``net.*`` site consults for connection ``serial``.

    Connection serials are assigned by the proxy's single accept loop in
    accept order, so under a sequential driver the whole key sequence —
    and with it every fault decision — is a pure function of the seed.
    """
    return f"conn-{serial:06d}"


#: ``(site, pinned serial, background probability)`` for the default net
#: plan.  Each site gets one probability-1.0 rule pinned to a distinct
#: early connection serial (guaranteed coverage even in a ``--quick``
#: run) plus a low-probability wildcard rule that keeps faults landing
#: throughout the run.  Background probabilities are budgeted so that a
#: four-attempt client retry loop almost never exhausts on transport
#: faults alone — the chaos-net gate's >= 99% availability floor.
_NET_PLAN_SHAPE: Tuple[Tuple[str, int, float], ...] = (
    ("net.accept.reset", 5, 0.03),
    ("net.read.stall", 11, 0.02),
    ("net.write.garble", 17, 0.03),
    ("net.write.truncate", 23, 0.03),
    ("net.close.mid_response", 29, 0.03),
    ("net.write.split", 35, 0.10),
)


def default_net_plan(seed: int, stall_seconds: float = 2.5) -> FaultPlan:
    """The built-in transport chaos plan (``repro chaos-net``).

    Covers every ``net.*`` site with a pinned guaranteed fire on an
    early connection plus seeded low-probability background fires.
    Because the proxy presents each connection serial exactly once, the
    per-``(rule, key)`` ``max_fires`` budget never limits wildcard rules
    here — probability alone sets the background fault rate.

    Args:
        seed: plan seed; decides the background fires.
        stall_seconds: sleep injected by ``net.read.stall`` — keep it
          above the driving client's timeout so a stall is *observed* as
          a stall (a client timeout plus retry), not absorbed as jitter.
    """
    rules: List[FaultRule] = []
    for site, serial, probability in _NET_PLAN_SHAPE:
        delay = stall_seconds if site == "net.read.stall" else None
        rules.append(
            FaultRule(site, match=connection_key(serial), delay_seconds=delay)
        )
        rules.append(
            FaultRule(site, probability=probability, max_fires=1,
                      delay_seconds=delay)
        )
    return FaultPlan(rules=rules, seed=seed)


def day_key(provider: str, day: int) -> str:
    """The key a ``data.*`` site consults for one published provider day.

    The ingestion layer resolves each provider's days strictly in order
    and consults each key exactly once, so every data-fault decision is a
    pure function of ``(seed, provider, day)`` — independent of request
    interleaving on the serving side.
    """
    return f"{provider}/day-{day:03d}"


#: ``(site, provider slot, day position)`` for the pinned rules of the
#: default data plan.  Positions are fractions of the stream length,
#: mapped to concrete days at plan-build time so every site is guaranteed
#: to fire once whatever ``n_days`` is.  Day 0 is never faulted — the
#: ingestion layer treats it as the bootstrap day (see
#: :mod:`repro.ranking.ingest`) so carry-forward always has a source.
_DATA_PLAN_SHAPE: Tuple[Tuple[str, int, float], ...] = (
    ("data.day.stale_repeat", 0, 0.25),
    ("data.day.missing", 1, 0.35),
    ("data.day.duplicate_ranks", 2, 0.50),
    ("data.day.truncated", 1, 0.65),
    ("data.day.schema_drift", 2, 0.80),
    ("data.provider.retired", 0, 0.90),
)

#: Background probabilities per recoverable ``data.*`` site.  Budgeted so
#: a provider essentially never loses more consecutive days than the
#: default carry-forward bound; ``data.provider.retired`` gets no
#: background rule — retirement is a scripted, one-way event (the Alexa
#: shutdown), not recurring noise.
_DATA_BACKGROUND: Tuple[Tuple[str, float], ...] = (
    ("data.day.missing", 0.03),
    ("data.day.stale_repeat", 0.03),
    ("data.day.truncated", 0.03),
    ("data.day.duplicate_ranks", 0.03),
    ("data.day.schema_drift", 0.03),
)


def default_data_plan(
    seed: int,
    n_days: int,
    providers: Sequence[str] = ("alexa", "umbrella", "majestic"),
    truncate_fraction: float = 0.4,
) -> FaultPlan:
    """The built-in data-plane chaos plan (``repro chaos-data``).

    Covers every ``data.*`` site with one pinned probability-1.0 fire on
    a distinct (provider, day) key, plus seeded low-probability
    background fires per provider for the recoverable sites.  Provider
    retirement is pinned late in the stream (the Alexa shutdown pattern:
    the provider publishes normally, then disappears for good) and never
    appears as a background rule.

    Args:
        seed: plan seed; decides only the background fires.
        n_days: length of the provider streams the plan will run over —
          pins land inside ``[1, n_days - 1]``.
        providers: provider names to degrade, in pin-slot order.
        truncate_fraction: fraction of the list kept by a truncation.
    """
    if n_days < 6:
        raise ValueError(f"default data plan needs n_days >= 6, got {n_days}")
    if not providers:
        raise ValueError("default data plan needs at least one provider")
    last = n_days - 1
    rules: List[FaultRule] = []
    pinned_keys = set()
    for site, slot, position in _DATA_PLAN_SHAPE:
        provider = providers[slot % len(providers)]
        day = max(1, min(last, round(position * last)))
        key = day_key(provider, day)
        while key in pinned_keys:  # one fault per (provider, day)
            day = day + 1 if day < last else 1
            key = day_key(provider, day)
        pinned_keys.add(key)
        fraction = truncate_fraction if site == "data.day.truncated" else None
        rules.append(FaultRule(site, match=key, fraction=fraction))
    for provider in providers:
        for site, probability in _DATA_BACKGROUND:
            fraction = truncate_fraction if site == "data.day.truncated" else None
            rules.append(
                FaultRule(site, match=f"{provider}/*",
                          probability=probability, max_fires=1,
                          fraction=fraction)
            )
    return FaultPlan(rules=rules, seed=seed)
