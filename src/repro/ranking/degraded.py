"""Tranco's windows over a degraded provider feed.

Component days arrive through a :class:`~repro.ranking.ingest.DegradedFeed`
(so they can be missing, repeated, truncated, duplicated, drifted, or
retired) and resolve through one :class:`~repro.ranking.ingest.ProviderStream`
per component — the ingest unit ``repro serve`` uses — so the pipeline
and the service classify days through one code path.  Each emitted
window scores the ledger's resolved rows with
:func:`~repro.providers.tranco.gap_dowdall_scores` and carries a
``data_health`` block computed from the same ledger: a degraded day can
never share bytes (or an ETag) with a clean one.

:func:`proof_of_degraded_equivalence` is the acceptance check: every
emission must equal the independent oracle (:mod:`repro.qa.dowdall`)
over the *same degraded input*, every day whose window holds a non-clean
cell must be explicitly marked, days whose window is entirely clean must
match the undegraded ``daily_list``, and the fault-sequence digest must
equal its in-run replay.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import DATA_SITES, FaultPlan
from repro.providers.base import RankedList
from repro.providers.tranco import TrancoProvider, gap_dowdall_scores, site_rank_vector
from repro.ranking.ingest import DegradedFeed, ProviderStream
from repro.ranking.snapshots import canonical_bytes, snapshot_doc

__all__ = ["DegradedTranco", "proof_of_degraded_equivalence"]


class DegradedTranco:
    """Iterates Tranco's windows over fault-degraded component streams."""

    def __init__(self, tranco: TrancoProvider, plan: Optional[FaultPlan]) -> None:
        self._tranco = tranco
        self.feed = DegradedFeed({c.name: c for c in tranco.components}, plan)
        self.streams: Dict[str, ProviderStream] = {
            c.name: ProviderStream(c, tranco.world, self.feed)
            for c in tranco.components
        }
        self._next_day = 0

    @property
    def next_day(self) -> int:
        return self._next_day

    def ledger_rows(self) -> List[List[Optional[Tuple[int, ...]]]]:
        """Per component, the rows each resolved day feeds the window,
        day-ascending from day 0 (None = unrecoverable hole or retired)."""
        return [
            [record.rows for record in stream.gate.records]
            for stream in self.streams.values()
        ]

    def advance(self) -> Tuple[RankedList, np.ndarray, Dict]:
        """Resolve the next day on every stream and emit its window: the
        ranked list, its per-site Dowdall scores, and ``data_health``."""
        day = self._next_day
        for stream in self.streams.values():
            stream.resolve(day)
        self._next_day = day + 1
        world = self._tranco.world
        window = self._tranco.window_days(day)
        cells = [
            [None if days[d] is None else site_rank_vector(world, days[d])
             for d in window]
            for days in self.ledger_rows()
        ]
        scores = gap_dowdall_scores(cells, world.n_sites)
        ranked = self._tranco.assemble_scores(scores, day)
        return ranked, scores, self.window_health(day)

    def window_health(self, day: int) -> Dict:
        """The ``data_health`` block for the emission of ``day``: a pure
        function of the ingest ledger over the aggregation window."""
        window = list(self._tranco.window_days(day))
        components: Dict[str, Dict] = {}
        counts = {"clean": 0, "repaired": 0, "carried_forward": 0,
                  "unrecoverable": 0, "retired": 0}
        for name, stream in self.streams.items():
            gate = stream.gate
            in_window = [gate.records[d] for d in window]
            today = in_window[-1]
            window_counts: Dict[str, int] = {}
            for record in in_window:
                window_counts[record.resolution] = (
                    window_counts.get(record.resolution, 0) + 1
                )
                counts[record.resolution] += 1
            components[name] = {
                "status": today.resolution,
                "staleness": today.staleness,
                "retired": gate.retired_at is not None,
                "window": window_counts,
            }
        degraded = (counts["repaired"] + counts["carried_forward"]
                    + counts["unrecoverable"] + counts["retired"]) > 0
        quarantined_total = sum(
            1 for stream in self.streams.values()
            for record in stream.gate.records if record.status == "quarantined"
        )
        return {
            "degraded": degraded,
            "window_days": [window[0], window[-1]],
            "cells": counts,
            "quarantined_total": quarantined_total,
            "components": components,
        }


def proof_of_degraded_equivalence(
    tranco: TrancoProvider,
    plan: FaultPlan,
    *,
    k: Optional[int] = None,
) -> Dict:
    """Prove (or refute) the degraded-pipeline invariants.

    Runs :class:`DegradedTranco` over every world day and checks, per day:

    * **equivalence** — score bits and ranked rows equal the oracle
      (:func:`repro.qa.dowdall.dowdall_oracle`) over the ledger's rows;
    * **marking** — ``data_health.degraded`` is True exactly when the
      window holds a non-clean cell (zero silent corruption);
    * **clean-path identity** — days whose window is entirely clean rank
      exactly like the undegraded ``daily_list``.

    Plus, per run: every armed ``data.*`` site fired, and the feed's
    fault-sequence digest equals its in-run replay.
    """
    # Imported here so loading the serve path never loads repro.qa.
    from repro.qa.dowdall import dowdall_oracle, matches

    world = tranco.world
    pipeline = DegradedTranco(tranco, plan)
    emitted = [pipeline.advance() for _ in range(world.config.n_days)]
    oracle = dowdall_oracle(
        pipeline.ledger_rows(), world.names.site.tolist(),
        world.config.tranco_window, world.config.list_length,
    )
    checked: List[Dict] = []
    mismatches: List[int] = []
    marking_errors: List[int] = []
    clean_mismatches: List[int] = []
    degraded_days: List[int] = []
    clean_days: List[int] = []
    for day, ((ranked, scores, health), expected) in enumerate(
        zip(emitted, oracle)
    ):
        snapshot = canonical_bytes(
            snapshot_doc(ranked, world, k=k, data_health=health)
        )
        window_clean = all(
            stream.gate.records[d].resolution == "clean"
            for stream in pipeline.streams.values()
            for d in tranco.window_days(day)
        )
        entry = {
            "day": day,
            **matches(expected, ranked.name_rows.tolist(), scores.tolist()),
            "sha256": hashlib.sha256(snapshot).hexdigest(),
            "degraded": health["degraded"],
            "window_clean": window_clean,
        }
        if not (entry["scores_identical"] and entry["ranks_identical"]):
            mismatches.append(day)
        # Zero silent corruption: marked if and only if the window holds
        # a non-clean cell, checked from the ledger, not from the block.
        if health["degraded"] == window_clean:
            marking_errors.append(day)
        if window_clean:
            clean_days.append(day)
            entry["clean_identical"] = np.array_equal(
                ranked.name_rows, tranco.daily_list(day).name_rows
            )
            if not entry["clean_identical"]:
                clean_mismatches.append(day)
        else:
            degraded_days.append(day)
        checked.append(entry)
    armed = sorted(
        {rule.site for rule in plan.rules if rule.site in DATA_SITES}
    )
    fired = pipeline.feed.fired_sites()
    digest = pipeline.feed.fault_digest()
    replay = pipeline.feed.replay_digest()
    return {
        "provider": tranco.name,
        "window": world.config.tranco_window,
        "days_checked": len(checked),
        "identical": not mismatches,
        "mismatched_days": mismatches,
        "marking_consistent": not marking_errors,
        "marking_error_days": marking_errors,
        "clean_days": clean_days,
        "clean_days_identical": not clean_mismatches,
        "clean_mismatched_days": clean_mismatches,
        "degraded_days": degraded_days,
        "armed_sites": armed,
        "sites_fired": fired,
        "all_armed_sites_fired": all(site in fired for site in armed),
        "fault_digest": digest,
        "replay_digest": replay,
        "digest_match": digest == replay,
        "ok": (not mismatches and not marking_errors
               and not clean_mismatches and digest == replay
               and all(site in fired for site in armed)),
        "days": checked,
    }
