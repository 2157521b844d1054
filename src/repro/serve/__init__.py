"""The resilient metrics service (``repro serve``).

Layers, one module per concern:

* :mod:`repro.serve.server` — the HTTP service itself: the ``ROUTES``
  table declaring each endpoint once (admitted or health bypass),
  deadlines, warmup, golden verification, the response cache, and
  ``/metricz`` from the tracer's root counters.
* :mod:`repro.serve.shed` — bounded admission (load shedding).
* :mod:`repro.serve.breaker` — circuit breaking around store reads, plus
  the last-known-good response cache.
* :mod:`repro.serve.drain` — SIGTERM/SIGINT graceful-drain lifecycle.
* :mod:`repro.serve.logfmt` — structured (logfmt) access logging.
* :mod:`repro.serve.selftest` — ``repro serve --selftest``: the service
  proving its own resilience under a deterministic fault plan.
"""

from repro.serve.breaker import BreakerState, CircuitBreaker, LastKnownGood
from repro.serve.drain import DrainController
from repro.serve.logfmt import AccessLog, logfmt, parse_logfmt
from repro.serve.selftest import SelftestReport, run_selftest
from repro.serve.server import (
    DEFAULT_PORT,
    RETRY_AFTER_CAP,
    MetricsService,
    ServeSettings,
    dynamic_retry_after,
)
from repro.serve.shed import AdmissionGate, ShedDecision

__all__ = [
    "AccessLog",
    "AdmissionGate",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "DrainController",
    "LastKnownGood",
    "MetricsService",
    "RETRY_AFTER_CAP",
    "SelftestReport",
    "ServeSettings",
    "ShedDecision",
    "dynamic_retry_after",
    "logfmt",
    "parse_logfmt",
    "run_selftest",
]
