"""Continuous ranking: daily list snapshots with stability analytics.

Tranco's daily list (``TrancoProvider.daily_list``) is the Dowdall sum
of its components' lists over a trailing 30-day window, computed by
:func:`~repro.providers.tranco.gap_dowdall_scores` — the one Dowdall in
the code base.  ``repro ranking`` builds each day's list once and checks
its rows and score bits against :mod:`repro.qa.dowdall`, an independent
reference that shares no code with this package or ``providers/``.

On top of the daily lists sit the Scheitle-style stability metrics ("A
Long Way to the Top" / "Structure and Stability of Internet Top Lists"):
daily rank churn, top-k intersection decay, and weekday periodicity,
computed incrementally as each day lands (:class:`StabilityTracker`).

``repro.serve`` exposes the results as versioned, cache-validatable list
snapshots (strong ETags + ``If-None-Match``), rank diffs
(``/v1/lists/<provider>/diff``) and churn surfaces
(``/v1/lists/<provider>/stability``).

Because real providers are messy (the paper's core premise — and Alexa
retired mid-study), days can also arrive through a fault-armed
:class:`DegradedFeed`: each provider's :class:`ProviderStream` runs an
:class:`IngestGate` that classifies days clean / repaired / quarantined
against its :class:`ProviderContract`, gaps resolve by bounded
carry-forward or window-shrink re-normalization, and every emission
carries a ``data_health`` block.  :class:`DegradedTranco` iterates
Tranco's windows over those streams, and
:func:`proof_of_degraded_equivalence` holds every degraded window to the
same oracle as the clean lists.
"""

from repro.ranking.degraded import DegradedTranco, proof_of_degraded_equivalence
from repro.ranking.ingest import (
    DegradedFeed,
    GapPolicy,
    IngestGate,
    ProviderContract,
    ProviderStream,
    contract_for,
)
from repro.ranking.snapshots import diff_ranked, snapshot_doc, snapshot_etag
from repro.ranking.stability import StabilityTracker

__all__ = [
    "DegradedFeed",
    "DegradedTranco",
    "GapPolicy",
    "IngestGate",
    "ProviderContract",
    "ProviderStream",
    "StabilityTracker",
    "contract_for",
    "diff_ranked",
    "proof_of_degraded_equivalence",
    "snapshot_doc",
    "snapshot_etag",
]
