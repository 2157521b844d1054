"""The resilient metrics service: ``repro serve``.

A stdlib-only (``ThreadingHTTPServer``) HTTP front end over the artifact
store, exposing the precomputed reproduction results the ROADMAP's
serving workload demands:

* ``GET /v1/experiments`` — the registry, with per-experiment availability.
* ``GET /v1/experiments/<name>`` — one experiment's stored result
  (title, text, structured data), golden-verified before it is ever
  served.
* ``GET /v1/lists`` — the lists index: available providers, the
  simulated day window, and the ``k`` bounds, so clients (the loadgen
  personas foremost) discover valid targets instead of hardcoding them.
* ``GET /v1/lists/<provider>/<day>?k=N`` — the top-``k`` slice of a
  provider's simulated ranked list for a day, as a *versioned snapshot*:
  the body carries the snapshot version (the store checksum of the full
  persisted snapshot) and the response a strong ``ETag``.
* ``GET /v1/lists/<provider>/diff?from=&to=&k=`` — rank deltas between
  two days' top-``k``: entrants, dropouts, moved, unchanged.
* ``GET /v1/lists/<provider>/stability?k=`` — the Scheitle-style
  stability surfaces for a provider (daily churn, top-k intersection
  decay, weekday periodicity), computed by :mod:`repro.ranking`.
* ``GET /healthz`` — liveness (200 while the process runs).
* ``GET /readyz`` — readiness (503 before warmup and while draining, so
  load balancers stop routing before the listener goes away).
* ``GET /metricz`` — counters: requests, sheds, deadlines, breaker
  state, last-known-good cache, store stats.

Hardening, in one place per concern:

* **deadlines** — every ``/v1`` request gets ``deadline_ms``; budget
  spent queueing is budget unavailable for work, and a request that
  would *start* expensive work past its deadline answers 504 instead.
* **load shedding** — admission through a bounded
  :class:`~repro.serve.shed.AdmissionGate`; beyond ``capacity`` +
  ``queue_depth`` the server answers 503 with ``Retry-After`` instead
  of queueing without bound.  ``Retry-After`` is *derived*, not fixed:
  :func:`dynamic_retry_after` folds the current queue backlog and any
  open-breaker cooldown into an integer-seconds estimate of when a
  retry will actually find capacity.
* **circuit breaking** — store reads run behind a
  :class:`~repro.serve.breaker.CircuitBreaker` (corrupt, vanished,
  slow, or golden-drifted reads count as dependency failures); while
  open, responses come from the bounded
  :class:`~repro.serve.breaker.LastKnownGood` cache, and a failed read
  with a last-known-good copy triggers a store *repair* write so the
  dependency heals instead of staying quarantined.
* **graceful drain** — SIGTERM/SIGINT stops accepting, sheds the queue,
  finishes in-flight requests up to ``drain_seconds``, writes a
  complete structured log, and exits 0.
* **conditional GET** — every 200 from the ``/v1`` read surfaces
  carries a strong ``ETag`` (sha256 of the canonical body; for stored
  experiment results this equals the artifact store's recorded
  checksum), and ``If-None-Match`` answers 304 with an empty body
  *without touching the store or recomputing the list* — the ETag cache
  is consulted before any expensive work.
* **canonical errors** — every 4xx/5xx body is the one envelope
  ``{"error": <token>, "detail": <human text>, "retry_after": <s>?}``
  (the DESIGN.md API rule); ``retry_after`` appears exactly when the
  response carries a ``Retry-After`` header, and both come from the
  same :func:`dynamic_retry_after` estimate.
* **persistent connections** — HTTP/1.1 with ``Content-Length`` framing
  on every response, so keep-alive clients (the loadgen connection
  pool) reuse sockets across requests; idle connections are reaped
  after a handler timeout, and responses sent while draining carry
  ``Connection: close`` so clients retire them promptly.

Observability: every request and lifecycle transition is one logfmt
record in the :class:`~repro.serve.logfmt.AccessLog`, and service
counters thread through the existing :class:`repro.obs.Tracer` via its
thread-safe root-span counters (``/metricz`` exposes them).
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.core.experiments import SPECS
from repro.core.pipeline import ExperimentContext, experiment_context
from repro.faults import inject as faults
from repro.faults.plan import DATA_SITES
from repro.ranking.ingest import DegradedFeed, ProviderStream
from repro.ranking.snapshots import (
    canonical_bytes,
    diff_ranked,
    snapshot_doc,
    snapshot_etag,
)
from repro.ranking.stability import StabilityTracker
from repro.serve.breaker import BreakerState, CircuitBreaker, LastKnownGood
from repro.serve.drain import DrainController
from repro.serve.logfmt import AccessLog
from repro.serve.shed import AdmissionGate
from repro.store.artifacts import SCHEMA_VERSION, ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

__all__ = [
    "ServeSettings",
    "MetricsService",
    "DEFAULT_PORT",
    "RETRY_AFTER_CAP",
    "dynamic_retry_after",
]

#: Default TCP port for ``repro serve``.
DEFAULT_PORT = 8321

#: Upper clamp for derived ``Retry-After`` values, in seconds.  Past this
#: the estimate is guesswork and a client should just poll.
RETRY_AFTER_CAP = 30


def dynamic_retry_after(
    base_seconds: int,
    waiting: int,
    capacity: int,
    deadline_ms: float,
    breaker_remaining: float = 0.0,
    cap_seconds: int = RETRY_AFTER_CAP,
) -> int:
    """Integer-seconds ``Retry-After`` derived from current load.

    The estimate is the worst of three clocks: the configured floor, the
    time for the queue backlog ahead of a new arrival to drain (``waiting``
    requests served ``capacity`` at a time, each worth up to one request
    deadline), and the open circuit breaker's remaining cooldown (while
    the breaker is open a retry cannot reach the store anyway).  Always
    >= 1 (RFC 9110 wants a non-negative integer; 0 invites a busy loop)
    and clamped to ``cap_seconds``.
    """
    queue_eta = (max(0, waiting) / max(1, capacity)) * (deadline_ms / 1000.0)
    eta = max(float(base_seconds), queue_eta, breaker_remaining)
    return max(1, min(int(cap_seconds), math.ceil(eta)))


@dataclass(frozen=True)
class ServeSettings:
    """Tunable service behavior — every knob the CLI exposes.

    Attributes:
        host: bind address.
        port: bind port (0 picks an ephemeral port; tests use this).
        max_inflight: concurrent ``/v1`` requests (CLI ``--jobs``).
        queue_depth: requests allowed to wait for a slot before shedding.
        deadline_ms: per-request budget for ``/v1`` endpoints.
        drain_seconds: budget for finishing in-flight requests on drain.
        retry_after_seconds: *floor* for ``Retry-After`` on 503/504
          responses; the served value grows with queue backlog and open
          breaker cooldown (:func:`dynamic_retry_after`).
        breaker_threshold: consecutive store-read failures that open the
          circuit.
        breaker_cooldown_seconds: open time before a half-open probe.
        slow_read_seconds: store reads slower than this count as breaker
          failures (the read still serves if its payload is valid).
        lkg_capacity: bounded last-known-good cache entries.
        list_cache_capacity: bounded (provider, day) ranked-list cache.
        default_k: ``/v1/lists`` slice size when ``?k=`` is absent.
        max_k: upper clamp for ``?k=`` (bounds response size).
        idle_timeout_seconds: per-recv read deadline on every connection
          socket; a keep-alive connection idle past this is reaped.
        connection_lifetime_seconds: hard cap on a connection's *total*
          age, enforced by a background reaper.  The idle timeout alone
          cannot defeat a slowloris that trickles a byte per timeout
          window — the lifetime bound can.
        max_header_count: request header lines accepted before the
          service answers 431 in the canonical error envelope.
        max_header_bytes: total request header bytes accepted before a
          431 (the per-line cap is the stdlib's 64 KiB).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    max_inflight: int = 8
    queue_depth: int = 16
    deadline_ms: float = 1000.0
    drain_seconds: float = 5.0
    retry_after_seconds: int = 1
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 0.5
    slow_read_seconds: float = 0.1
    lkg_capacity: int = 64
    list_cache_capacity: int = 64
    default_k: int = 100
    max_k: int = 1000
    idle_timeout_seconds: float = 30.0
    connection_lifetime_seconds: float = 120.0
    max_header_count: int = 64
    max_header_bytes: int = 16384


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin shim: all request logic lives on the service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Keep-alive hygiene for pooled loadgen clients: reap connections
    # idle past this (each parked socket pins a ThreadingHTTPServer
    # thread), and disable Nagle so small content-length-framed replies
    # aren't held hostage to delayed ACKs.  ``timeout`` is a default;
    # ``setup`` overrides it from the live settings.
    timeout = 30.0
    disable_nagle_algorithm = True

    def setup(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        self.timeout = service.settings.idle_timeout_seconds
        super().setup()
        service.register_connection(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            service = self.server.service  # type: ignore[attr-defined]
            service.unregister_connection(self.connection)

    def handle(self) -> None:
        try:
            super().handle()
        except (ConnectionResetError, BrokenPipeError):
            self.close_connection = True
        except (OSError, ValueError):
            # The lifetime reaper closed this socket under us (or the
            # peer reset mid-parse); not a server error worth a
            # traceback from handle_error.
            self.close_connection = True

    def send_error(self, code, message=None, explain=None):  # noqa: ANN001
        """Protocol-level failures answer in the canonical envelope.

        The stdlib parser calls this *before* ``do_GET`` for oversized
        request lines (414), header floods past its own limits (431),
        bad syntax (400), and unsupported methods (501) — by default
        with an HTML error page, which would be the one non-envelope
        error shape in the service.
        """
        status = int(code)
        token = "bad_request" if status < 500 else "internal"
        if status == 431:
            token = "headers_too_large"
        body = _error_body(token, str(message or explain or code))
        service = getattr(self.server, "service", None)
        if service is not None:
            service.count_protocol_error(getattr(self, "path", "?"), status)
        self.close_connection = True
        if self.request_version == "HTTP/0.9":
            # The request line never parsed, so the stdlib still holds
            # its 0.9 default — under which send_response_only and
            # send_header write *nothing* and the peer would get a bare
            # body with no framing.  Answer as framed HTTP/1.1 instead.
            self.request_version = "HTTP/1.1"
        try:
            self.send_response_only(status)
            self.send_header("Server", self.version_string())
            self.send_header("Date", self.date_time_string())
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            if getattr(self, "command", "GET") != "HEAD":
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # The structured access log replaces the default stderr lines.
        pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.server.service.handle(self)  # type: ignore[attr-defined]

    def do_HEAD(self) -> None:  # noqa: N802
        self.server.service.handle(self, head_only=True)  # type: ignore[attr-defined]


class MetricsService:
    """The metrics service: construct, :meth:`warm`, :meth:`start`.

    Args:
        config: the world configuration whose cached results are served.
        store: the artifact store to read from (the service installs its
          ``read_observer`` — share the instance with nothing else that
          needs the hook).
        settings: behavior knobs (:class:`ServeSettings`).
        names: experiment ids to expose (default: the whole registry).
        golden_dir: when given and the goldens match ``config``, warmup
          verifies every stored result against its golden snapshot and
          refuses to serve drifted bodies.
        access_log: structured log sink (default: in-memory only).
        tracer: the :class:`repro.obs.Tracer` carrying service counters.
    """

    def __init__(
        self,
        config: WorldConfig,
        store: ArtifactStore,
        settings: ServeSettings = ServeSettings(),
        names: Optional[Sequence[str]] = None,
        golden_dir: Optional[Path] = None,
        access_log: Optional[AccessLog] = None,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.settings = settings
        self.names: List[str] = list(names if names is not None else SPECS)
        self.golden_dir = golden_dir
        self.log = access_log if access_log is not None else AccessLog()
        self.tracer = tracer if tracer is not None else obs.Tracer("serve")
        self.gate = AdmissionGate(settings.max_inflight, settings.queue_depth)
        self.breaker = CircuitBreaker(
            failure_threshold=settings.breaker_threshold,
            cooldown_seconds=settings.breaker_cooldown_seconds,
            on_transition=self._on_breaker_transition,
        )
        self.lkg = LastKnownGood(settings.lkg_capacity)
        self.drain_ctl = DrainController()
        self._cfg_key = config_key(config)
        # name -> strong ETag (quoted sha256) of the golden body
        self._reference: Dict[str, str] = {}
        self._not_golden: Dict[str, str] = {}  # name -> why warmup refused it
        self._read_status = threading.local()
        self._counters_lock = threading.Lock()
        self._by_status: Dict[int, int] = {}
        self._by_route: Dict[str, int] = {}
        self.requests_total = 0
        self.deadline_timeouts = 0
        self.repairs = 0
        self.non_golden_blocked = 0
        self.not_modified = 0
        self.client_gone = 0
        self.protocol_errors = 0
        self.connections_reaped = 0
        # Live connection registry for the lifetime reaper: socket id ->
        # (socket, hard deadline).  Guarded by its own lock — reaping
        # must never contend with the request-path counters.
        self._conn_lock = threading.Lock()
        self._connections: Dict[int, Tuple[object, float]] = {}
        self._reaper_stop = threading.Event()
        self._reaper_thread: Optional[threading.Thread] = None
        self._ctx: Optional[ExperimentContext] = None
        self._ctx_lock = threading.Lock()
        self._lists_lock = threading.Lock()
        self._lists: "OrderedDict[Tuple[str, int], object]" = OrderedDict()
        # Degraded-ingestion state (active only when the armed fault plan
        # contains data.* rules): one shared feed so the fault log and
        # its digest span providers, one sequential stream per provider.
        # All resolution happens under one lock — the streams resolve
        # days strictly in order, which is what keeps every data.* fault
        # decision independent of request interleaving.
        self._data_lock = threading.Lock()
        self._data_feed: Optional[DegradedFeed] = None
        self._data_streams: Dict[str, ProviderStream] = {}
        # Conditional-GET state: response ETags by cache key (checked
        # before any store read or list computation — the 304 fast path),
        # snapshot versions by (provider, day), and finished stability
        # bodies.  All guarded by one lock; all bounded.
        self._etag_lock = threading.Lock()
        self._response_etags: "OrderedDict[str, str]" = OrderedDict()
        self._list_versions: Dict[Tuple[str, int], str] = {}
        self._stability_cache: "OrderedDict[str, Tuple[bytes, str]]" = OrderedDict()
        self._ready = False
        self._draining = False
        self._started_at = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        store.read_observer = self._observe_read

    # ------------------------------------------------------------------
    # Store read path (observer + classification).

    def _observe_read(self, name: str, status: str, seconds: float) -> None:
        self._read_status.last = (status, seconds)

    def _read_fresh(self, name: str) -> Tuple[Optional[bytes], Optional[str]]:
        """One breaker-protected read attempt for ``results/<name>``.

        Returns ``(body, failure)``: a canonical JSON body (or None) and
        the failure classification (None when the read is healthy —
        which includes a clean miss for a result that never existed).
        """
        self._read_status.last = ("miss", 0.0)
        blob = self.store.get_json(self._cfg_key, f"results/{name}")
        status, seconds = self._read_status.last
        if status == "corrupt":
            return None, "corrupt"
        if blob is None:
            # A result we once verified has vanished (quarantined by a
            # corrupt read, or evicted): that is a dependency failure.  A
            # result that never existed is an honest 404.
            return None, ("lost" if name in self._reference else None)
        if not isinstance(blob, dict) or blob.get("schema_version") != SCHEMA_VERSION:
            return None, "invalid"
        body = canonical_bytes(blob)
        reference = self._reference.get(name)
        if reference is not None and snapshot_etag(body) != reference:
            # Never serve a body that drifted from the golden-verified
            # reference — answer from last-known-good instead.
            with self._counters_lock:
                self.non_golden_blocked += 1
            return None, "drift"
        if seconds > self.settings.slow_read_seconds:
            return body, "slow"
        return body, None

    def _repair(self, name: str, body: bytes) -> None:
        """Write a last-known-good body back to the store (self-healing:
        a quarantined or lost blob becomes a hit again)."""
        self.store.put_json(self._cfg_key, f"results/{name}", json.loads(body))
        with self._counters_lock:
            self.repairs += 1
        self.tracer.count_root("serve.repairs")
        self.log.write("store.repair", name=name, bytes=len(body))

    def _on_breaker_transition(self, old: str, new: str, reason: str) -> None:
        self.log.write("breaker." + ("open" if new == BreakerState.OPEN else
                                     "close" if new == BreakerState.CLOSED else
                                     "half_open"),
                       from_state=old, to_state=new, reason=reason)
        self.tracer.count_root(f"serve.breaker.{new}")

    # ------------------------------------------------------------------
    # Warmup.

    def warm(self, build_lists: bool = True) -> Dict[str, str]:
        """Prime references and the LKG cache; optionally build the world.

        Reads every exposed experiment's stored result, golden-verifies
        it where goldens for this configuration exist, and records its
        canonical digest as the *reference* every later live read must
        match.  Returns ``{name: status}`` with status ``ok`` /
        ``missing`` / ``not-golden``.
        """
        statuses: Dict[str, str] = {}
        for name in self.names:
            body, failure = self._read_fresh(name)
            if body is None or failure not in (None, "slow"):
                statuses[name] = "missing"
                continue
            drift = self._golden_drift(name, json.loads(body))
            if drift is not None:
                self._not_golden[name] = drift
                statuses[name] = "not-golden"
                continue
            self._reference[name] = snapshot_etag(body)
            self.lkg.put(name, body)
            statuses[name] = "ok"
        if build_lists:
            self._context()
        self._ready = True
        available = sum(1 for status in statuses.values() if status == "ok")
        self.log.write(
            "serve.ready",
            available=available,
            exposed=len(self.names),
            lists=build_lists,
            config_key=self._cfg_key,
        )
        return statuses

    def _golden_drift(self, name: str, blob: Dict[str, object]) -> Optional[str]:
        """Why ``blob`` fails golden verification, or None when it passes
        (or no matching golden exists for this configuration)."""
        if self.golden_dir is None:
            return None
        golden_file = Path(self.golden_dir) / f"{name}.json"
        if not golden_file.exists():
            return None
        from repro.qa.goldens import TOLERANCES, Tolerance, diff_payloads, golden_payload

        try:
            golden = json.loads(golden_file.read_text())
        except (OSError, json.JSONDecodeError) as error:
            return f"unreadable golden: {error}"
        document = golden_payload(
            name,
            str(blob.get("title", "")),
            self.config,
            blob.get("data"),
            str(blob.get("text", "")),
        )
        if golden.get("config") != document.get("config"):
            # Goldens are pinned to one configuration; a service at any
            # other scale serves reference-digest-verified bodies instead.
            return None
        cells = diff_payloads(golden, document, TOLERANCES.get(name, Tolerance()))
        if cells:
            return f"{len(cells)} drifted cell(s), first: {cells[0].render()}"
        return None

    # ------------------------------------------------------------------
    # The lists surface.

    def _context(self) -> ExperimentContext:
        with self._ctx_lock:
            if self._ctx is None:
                with obs.span("serve/context"):
                    self._ctx = experiment_context(config=self.config, store=self.store)
                    # Materialize world + providers up front: requests
                    # must never pay (or race) world construction.
                    self._ctx.artifact("world")
                    self._ctx.artifact("providers")
            return self._ctx

    def _data_chaos_armed(self) -> bool:
        """True when the active fault plan carries ``data.*`` rules (or a
        degraded feed has already been built for this service)."""
        if self._data_feed is not None:
            return True
        plan = faults.active_plan()
        return plan is not None and any(
            rule.site in DATA_SITES for rule in plan.rules
        )

    def _data_resolve(self, provider: str, day: int):
        """``(ranked, data_health)`` through the degraded-ingestion
        layer, or None when no data chaos is armed.

        Streams resolve days sequentially with memoization, so request
        order never changes which ``data.*`` keys are consulted — only
        when.  The degraded path replaces the ranked LRU entirely: its
        memoization is per-stream and already bounded by ``n_days``.
        """
        if not self._data_chaos_armed():
            return None
        ctx = self._context()
        with self._data_lock:
            if self._data_feed is None:
                self._data_feed = DegradedFeed(
                    dict(ctx.providers), faults.active_plan()
                )
            stream = self._data_streams.get(provider)
            if stream is None:
                stream = ProviderStream(
                    ctx.providers[provider], ctx.world, self._data_feed
                )
                self._data_streams[provider] = stream
            return stream.resolve(day)

    def _data_health(self, provider: str, day: int) -> Optional[Dict]:
        resolved = self._data_resolve(provider, day)
        return None if resolved is None else resolved[1]

    def _ranked(self, provider: str, day: int):
        resolved = self._data_resolve(provider, day)
        if resolved is not None:
            return resolved[0]
        key = (provider, day)
        with self._lists_lock:
            cached = self._lists.get(key)
            if cached is not None:
                self._lists.move_to_end(key)
                return cached
        ctx = self._context()
        with self._lists_lock:
            cached = self._lists.get(key)
            if cached is None:
                # Compute under the lock: providers share one traffic
                # model, which is not guaranteed re-entrant.
                cached = ctx.providers[provider].daily_list(day)
                self._lists[key] = cached
                while len(self._lists) > self.settings.list_cache_capacity:
                    self._lists.popitem(last=False)
            else:
                self._lists.move_to_end(key)
            return cached

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> None:
        """Bind and serve on a background thread (returns immediately)."""
        httpd = ThreadingHTTPServer(
            (self.settings.host, self.settings.port), _RequestHandler
        )
        httpd.daemon_threads = True
        httpd.service = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._serve_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        self._serve_thread.start()
        self._reaper_stop.clear()
        self._reaper_thread = threading.Thread(
            target=self._reap_loop, name="repro-serve-reaper", daemon=True
        )
        self._reaper_thread.start()
        self.log.write(
            "serve.start",
            host=self.host,
            port=self.port,
            max_inflight=self.settings.max_inflight,
            queue_depth=self.settings.queue_depth,
            deadline_ms=self.settings.deadline_ms,
            fault_plan=faults.active_plan() is not None,
        )

    @property
    def host(self) -> str:
        return self.settings.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after :meth:`start`)."""
        if self._httpd is not None:
            return int(self._httpd.server_address[1])
        return self.settings.port

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, budget: Optional[float] = None, reason: str = "stop") -> bool:
        """Graceful shutdown: stop accepting, shed the queue, finish
        in-flight work up to ``budget`` seconds, close, log.

        Returns True when every in-flight request finished inside the
        budget (the process should exit 0 either way — a drain that runs
        out of budget is logged, not escalated).
        """
        if self._draining:
            return True
        self._draining = True
        self._reaper_stop.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=2.0)
        budget = self.settings.drain_seconds if budget is None else budget
        started = time.perf_counter()
        self.log.write(
            "drain.start",
            reason=reason,
            inflight=self.gate.inflight,
            waiting=self.gate.waiting,
            budget_seconds=budget,
        )
        self.gate.drain()
        if self._httpd is not None:
            self._httpd.shutdown()
        drained = self.gate.wait_idle(budget)
        if self._httpd is not None:
            self._httpd.server_close()
        self.log.write(
            "drain.complete",
            drained=drained,
            inflight=self.gate.inflight,
            seconds=time.perf_counter() - started,
        )
        self.log.write(
            "serve.exit",
            code=0,
            requests=self.requests_total,
            shed=self.gate.shed_total,
            repairs=self.repairs,
            breaker_opens=self.breaker.opens,
        )
        self.tracer.finish()
        self.log.close()
        return drained

    def run_forever(self) -> int:
        """CLI loop: serve until SIGTERM/SIGINT, drain, return exit 0."""
        self.drain_ctl.install()
        try:
            self.start()
            self.drain_ctl.wait()
        finally:
            self.drain(reason=self.drain_ctl.reason or "stop")
            self.drain_ctl.restore()
        return 0

    # ------------------------------------------------------------------
    # Connection lifetime (the slowloris bound).

    def register_connection(self, sock: object) -> None:
        """Track a connection socket with a hard lifetime deadline.

        Called from the handler's ``setup``.  The per-recv idle timeout
        reaps *silent* connections; a slowloris that trickles one byte
        per window resets that clock forever — the total-lifetime
        deadline enforced by :meth:`_reap_loop` is what ends it.
        """
        deadline = (
            time.monotonic() + self.settings.connection_lifetime_seconds
        )
        with self._conn_lock:
            self._connections[id(sock)] = (sock, deadline)

    def unregister_connection(self, sock: object) -> None:
        with self._conn_lock:
            self._connections.pop(id(sock), None)

    @property
    def active_connections(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    def _reap_loop(self) -> None:
        interval = max(
            0.05, min(1.0, self.settings.connection_lifetime_seconds / 4.0)
        )
        while not self._reaper_stop.wait(interval):
            now = time.monotonic()
            with self._conn_lock:
                overdue = [
                    (conn_id, sock)
                    for conn_id, (sock, deadline) in self._connections.items()
                    if now >= deadline
                ]
                for conn_id, _sock in overdue:
                    self._connections.pop(conn_id, None)
            for _conn_id, sock in overdue:
                with self._counters_lock:
                    self.connections_reaped += 1
                self.tracer.count_root("serve.connections_reaped")
                self.log.write(
                    "connection.reaped",
                    lifetime_seconds=self.settings.connection_lifetime_seconds,
                )
                # Closing under the handler thread makes its blocked
                # recv/send raise; the handler unregisters in finish().
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # type: ignore[attr-defined]
                except OSError:
                    pass
                try:
                    sock.close()  # type: ignore[attr-defined]
                except OSError:
                    pass

    def count_protocol_error(self, path: str, status: int) -> None:
        """Accounting for parse-level rejects answered by ``send_error``."""
        with self._counters_lock:
            self.protocol_errors += 1
            self._by_status[status] = self._by_status.get(status, 0) + 1
        self.tracer.count_root("serve.protocol_errors")
        self.log.write("request.protocol_error", path=path, status=status)

    def _header_limit_violation(
        self, handler: _RequestHandler
    ) -> Optional[Tuple[int, str, str]]:
        """Service-level header limits (stricter than the stdlib's).

        Returns ``(status, error token, detail)`` or None.  The stdlib
        parser enforces its own looser caps (100 lines, 64 KiB each)
        and answers through ``send_error``; these bounds are the ones
        operators tune.
        """
        headers = handler.headers
        count = len(headers.keys())
        if count > self.settings.max_header_count:
            return (
                431, "headers_too_large",
                f"{count} header lines exceed the limit of "
                f"{self.settings.max_header_count}",
            )
        total = sum(len(k) + len(v) + 4 for k, v in headers.items())
        if total > self.settings.max_header_bytes:
            return (
                431, "headers_too_large",
                f"{total} header bytes exceed the limit of "
                f"{self.settings.max_header_bytes}",
            )
        return None

    # ------------------------------------------------------------------
    # Request handling.

    def handle(self, handler: _RequestHandler, head_only: bool = False) -> None:
        """Entry point for every HTTP request (called on its thread)."""
        started = time.perf_counter()
        path = urlsplit(handler.path).path
        route = self._route_of(path)
        inm = handler.headers.get("If-None-Match")
        try:
            violation = self._header_limit_violation(handler)
            if violation is not None:
                status, token, detail = violation
                handler.close_connection = True
                self.tracer.count_root("serve.header_limited")
                self._respond(
                    handler, status, _error_body(token, detail),
                    {"Connection": "close"}, head_only,
                )
                self._account(handler, path, route, status, started, "limit")
                return
            if route in ("healthz", "readyz", "metricz"):
                # Health surfaces bypass admission: they must answer
                # cheaply even (especially) when the service is saturated.
                status, body, headers = self._handle_control(route)
                self._respond(handler, status, body, headers, head_only)
                self._account(handler, path, route, status, started, "control")
                return
            self._handle_v1(handler, path, route, started, head_only, inm)
        except (KeyboardInterrupt, SystemExit):
            raise
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response: a client_gone outcome,
            # never a server failure — the circuit breaker only ever
            # sees store reads, and a flood of disappearing clients must
            # not masquerade as service errors.
            with self._counters_lock:
                self.client_gone += 1
            self.tracer.count_root("serve.client_gone")
            self.log.write("request.client_gone", path=path)
        except Exception as error:  # one request never kills the server
            self.tracer.count_root("serve.handler_errors")
            self.log.write(
                "request.error", path=path, error=f"{type(error).__name__}: {error}"
            )
            try:
                self._respond(
                    handler, 500, _error_body("internal", "internal error"),
                    {}, head_only,
                )
                self._account(handler, path, route, 500, started, "error")
            except OSError:
                pass

    def _route_of(self, path: str) -> str:
        if path in ("/healthz", "/readyz", "/metricz"):
            return path.strip("/")
        if path == "/v1/experiments":
            return "experiments"
        if path.startswith("/v1/experiments/"):
            return "experiment"
        if path in ("/v1/lists", "/v1/lists/"):
            return "lists-index"
        if path.startswith("/v1/lists/"):
            parts = path[len("/v1/lists/"):].split("/")
            if len(parts) == 2 and parts[1] == "diff":
                return "lists-diff"
            if len(parts) == 2 and parts[1] == "stability":
                return "lists-stability"
            return "lists"
        return "unknown"

    def _handle_control(self, route: str) -> Tuple[int, bytes, Dict[str, str]]:
        if route == "healthz":
            return 200, canonical_bytes({"status": "alive"}), {}
        if route == "readyz":
            # Not-ready is an error the canonical envelope covers like any
            # other 5xx; the "error" token tells load balancers why.
            if self._draining:
                body, headers = self._retry_error("not_ready", "draining")
                return 503, body, headers
            if not self._ready:
                body, headers = self._retry_error("not_ready", "warming")
                return 503, body, headers
            return 200, canonical_bytes({"status": "ready"}), {}
        return 200, canonical_bytes(self.metrics()), {}

    def _handle_v1(
        self,
        handler: _RequestHandler,
        path: str,
        route: str,
        started: float,
        head_only: bool,
        inm: Optional[str] = None,
    ) -> None:
        budget = self.settings.deadline_ms / 1000.0
        deadline = started + budget
        # A request may spend at most half its budget queueing; the rest
        # is reserved for doing the work.
        shed = self.gate.try_acquire(timeout=budget / 2.0)
        if shed is not None:
            self.tracer.count_root("serve.shed")
            body, headers = self._retry_error("shed", "admission rejected: " + shed)
            self._respond(handler, 503, body, headers, head_only)
            self._account(handler, path, route, 503, started, "shed", shed=shed)
            return
        try:
            rule = faults.fire("serve.request.error", path)
            if rule is not None:
                self.tracer.count_root("serve.injected_errors")
                self._respond(
                    handler, 500,
                    _error_body("injected", "injected serve.request.error"),
                    {}, head_only,
                )
                self._account(handler, path, route, 500, started, "injected")
                return
            if time.perf_counter() >= deadline:
                self._deadline_response(handler, path, route, started, head_only)
                return
            if route == "experiments":
                status, body, headers, source = self._get_index(inm)
            elif route == "experiment":
                name = path[len("/v1/experiments/"):]
                status, body, headers, source = self._get_experiment(
                    name, deadline, inm
                )
            elif route == "lists-index":
                status, body, headers, source = self._get_lists_index(deadline)
            elif route == "lists":
                status, body, headers, source = self._get_list(
                    handler.path, path, deadline, inm
                )
            elif route == "lists-diff":
                status, body, headers, source = self._get_diff(
                    handler.path, path, deadline, inm
                )
            elif route == "lists-stability":
                status, body, headers, source = self._get_stability(
                    handler.path, path, deadline, inm
                )
            else:
                status, body, headers, source = (
                    404, _error_body("not_found", "no such route"), {}, "router"
                )
            self._respond(handler, status, body, headers, head_only)
            self._account(handler, path, route, status, started, source)
        finally:
            self.gate.release()

    def _deadline_response(
        self, handler: _RequestHandler, path: str, route: str,
        started: float, head_only: bool,
    ) -> None:
        with self._counters_lock:
            self.deadline_timeouts += 1
        self.tracer.count_root("serve.deadline_timeouts")
        body, headers = self._retry_error("deadline", "deadline exceeded")
        self._respond(handler, 504, body, headers, head_only)
        self._account(handler, path, route, 504, started, "deadline")

    # ------------------------------------------------------------------
    # Endpoint bodies.

    def _get_index(
        self, inm: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        rows = []
        for name in self.names:
            spec = SPECS.get(name)
            status = (
                "available" if name in self._reference
                else "not-golden" if name in self._not_golden
                else "missing"
            )
            rows.append({
                "id": name,
                "title": spec.title if spec is not None else "",
                "status": status,
                "path": f"/v1/experiments/{name}",
            })
        body = canonical_bytes({"experiments": rows, "config_key": self._cfg_key})
        etag = snapshot_etag(body)
        if _etag_matches(inm, etag):
            return self._not_modified(etag, "index")
        return 200, body, {"ETag": etag}, "index"

    def _get_experiment(
        self, name: str, deadline: float, inm: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        if name not in self.names or name not in SPECS:
            return 404, _error_body(
                "not_found", f"unknown experiment {name!r}"
            ), {}, "router"
        if name in self._not_golden:
            body, headers = self._retry_error(
                "not_golden",
                f"result for {name!r} failed golden verification: "
                + self._not_golden[name],
            )
            return 503, body, headers, "not-golden"
        reference = self._reference.get(name)
        if reference is not None:
            # The warmup-pinned reference is the body's strong ETag (the
            # quoted artifact-store checksum for results/<name> —
            # canonical payloads hash identically), so a conditional hit
            # answers before the breaker, the store, or any read budget
            # is touched: zero store reads.
            if _etag_matches(inm, reference):
                return self._not_modified(reference, "experiment")
        if not self.breaker.allow():
            body = self.lkg.get(name)
            if body is not None:
                return 200, body, self._body_headers(
                    body, {"X-Repro-Source": "last-known-good"}
                ), "lkg-open"
            body, headers = self._retry_error("unavailable", "store circuit open")
            return 503, body, headers, "breaker-open"
        if time.perf_counter() >= deadline:
            # Don't start a store read we have no budget left to use; the
            # breaker probe slot (if any) is returned via record_success.
            self.breaker.record_success()
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"
        body, failure = self._read_fresh(name)
        if failure is None:
            if body is None:
                self.breaker.record_success()
                return 404, _error_body(
                    "not_found",
                    f"no cached result for {name!r}; run `repro all` first",
                ), {}, "miss"
            self.breaker.record_success()
            self.lkg.put(name, body)
            return 200, body, self._body_headers(
                body, {"X-Repro-Source": "store"}
            ), "store"
        self.breaker.record_failure(failure)
        self.tracer.count_root(f"serve.read_failures.{failure}")
        if failure == "slow" and body is not None:
            # Slow but valid: serve it (it passed the digest check) while
            # the breaker accounts for the latency.
            self.lkg.put(name, body)
            return 200, body, self._body_headers(
                body, {"X-Repro-Source": "store-slow"}
            ), "store-slow"
        fallback = self.lkg.get(name)
        if fallback is not None:
            if failure in ("corrupt", "lost", "invalid"):
                self._repair(name, fallback)
            return 200, fallback, self._body_headers(
                fallback, {"X-Repro-Source": "last-known-good"}
            ), "lkg"
        body, headers = self._retry_error(
            "unavailable",
            f"store read failed ({failure}) and no last-known-good copy",
        )
        return 503, body, headers, "unavailable"

    def _get_lists_index(
        self, deadline: float
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        """``GET /v1/lists`` — discoverable targets for list clients.

        Serving behavior (per the DESIGN.md serving rule): deadline-
        budgeted and admission-gated like every ``/v1`` endpoint; the
        body is computed from the warm context, so after warmup it is a
        cheap, constant-shape read.
        """
        ctx = self._context()
        if time.perf_counter() >= deadline:
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"
        providers = [
            {
                "id": name,
                "days": int(self.config.n_days),
                "path": f"/v1/lists/{name}/<day>?k=<k>",
            }
            for name in sorted(ctx.providers)
        ]
        body = canonical_bytes({
            "providers": providers,
            "days": int(self.config.n_days),
            "default_k": self.settings.default_k,
            "max_k": self.settings.max_k,
            "config_key": self._cfg_key,
            "data_chaos": self._data_chaos_armed(),
        })
        return 200, body, self._body_headers(body, {}), "lists-index"

    def _parse_k(self, raw_path: str) -> Tuple[Optional[int], Optional[bytes]]:
        """The validated, clamped ``?k=`` value, or an error body."""
        query = parse_qs(urlsplit(raw_path).query)
        try:
            k = int(query.get("k", [self.settings.default_k])[0])
        except ValueError:
            return None, _error_body("bad_request", "k must be an integer")
        if k < 1:
            return None, _error_body("bad_request", "k must be >= 1")
        return min(k, self.settings.max_k), None

    def _valid_day(self, day_text: str) -> Tuple[Optional[int], Optional[bytes]]:
        """A day index inside the simulated window, or an error body."""
        try:
            day = int(day_text)
        except ValueError:
            return None, _error_body(
                "not_found", f"day must be an integer, got {day_text!r}"
            )
        if not 0 <= day < self.config.n_days:
            return None, _error_body(
                "not_found",
                f"day {day} outside simulated window [0, {self.config.n_days})",
            )
        return day, None

    def _get_list(
        self, raw_path: str, path: str, deadline: float, inm: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        parts = path[len("/v1/lists/"):].split("/")
        if len(parts) != 2 or not parts[0]:
            return 404, _error_body(
                "not_found", "use /v1/lists/<provider>/<day>"
            ), {}, "router"
        provider, day_text = parts
        day, error = self._valid_day(day_text)
        if error is not None:
            return 404, error, {}, "router"
        k, error = self._parse_k(raw_path)
        if error is not None:
            return 400, error, {}, "router"
        # Conditional fast path: a cached ETag means this exact
        # representation was served before, and list bodies are pure
        # functions of the config — a match answers without touching the
        # list cache, the providers, or the store.
        cache_key = f"lists:{provider}:{day}:{k}"
        etag = self._cached_etag(cache_key)
        if etag is not None and _etag_matches(inm, etag):
            return self._not_modified(etag, "lists")
        ctx = self._context()
        if provider not in ctx.providers:
            return 404, _error_body(
                "not_found",
                f"unknown provider {provider!r}; choose from "
                + ", ".join(ctx.providers),
            ), {}, "router"
        if time.perf_counter() >= deadline:
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"
        resolved = self._data_resolve(provider, day)
        if resolved is not None:
            ranked, data_health = resolved
        else:
            ranked, data_health = self._ranked(provider, day), None
        version = self._list_version(provider, day, ranked,
                                     data_health=data_health)
        head = ranked.head(k)
        doc = {
            "provider": provider,
            "day": day,
            "k": k,
            "version": version,
            "granularity": head.granularity,
            "bucketed": head.is_bucketed,
            "bucket_bounds": (
                None if head.bucket_bounds is None
                else [int(bound) for bound in head.bucket_bounds]
            ),
            "count": len(head),
            "names": head.strings(ctx.world),
        }
        if data_health is not None:
            # A degraded day must never share bytes (or an ETag) with a
            # clean serving of the same list: the marking is part of the
            # representation, not response decoration.
            doc["data_health"] = data_health
        body = canonical_bytes(doc)
        etag = snapshot_etag(body)
        self._remember_etag(cache_key, etag)
        return 200, body, {"ETag": etag}, "lists"

    def _get_diff(
        self, raw_path: str, path: str, deadline: float, inm: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        """``GET /v1/lists/<provider>/diff?from=&to=&k=`` — rank deltas
        between two days' top-``k`` prefixes: entrants, dropouts, moved
        (with signed delta), unchanged count.

        Serving behavior (DESIGN.md serving rule): admission-gated and
        deadline-budgeted; both days' lists come from the bounded ranked
        cache, and repeat requests answer 304 from the ETag cache alone.
        """
        provider = path[len("/v1/lists/"):].split("/")[0]
        query = parse_qs(urlsplit(raw_path).query)
        try:
            from_day_text = query["from"][0]
            to_day_text = query["to"][0]
        except (KeyError, IndexError):
            return 400, _error_body(
                "bad_request", "diff needs from=<day> and to=<day> query parameters"
            ), {}, "router"
        from_day, error = self._valid_day(from_day_text)
        if error is not None:
            return 404, error, {}, "router"
        to_day, error = self._valid_day(to_day_text)
        if error is not None:
            return 404, error, {}, "router"
        k, error = self._parse_k(raw_path)
        if error is not None:
            return 400, error, {}, "router"
        cache_key = f"diff:{provider}:{from_day}:{to_day}:{k}"
        etag = self._cached_etag(cache_key)
        if etag is not None and _etag_matches(inm, etag):
            return self._not_modified(etag, "lists-diff")
        ctx = self._context()
        if provider not in ctx.providers:
            return 404, _error_body(
                "not_found",
                f"unknown provider {provider!r}; choose from "
                + ", ".join(ctx.providers),
            ), {}, "router"
        if time.perf_counter() >= deadline:
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"
        from_names = self._ranked(provider, from_day).head(k).strings(ctx.world)
        if time.perf_counter() >= deadline:
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"
        to_names = self._ranked(provider, to_day).head(k).strings(ctx.world)
        doc = {"provider": provider, "from": from_day, "to": to_day, "k": k}
        doc.update(diff_ranked(from_names, to_names))
        body = canonical_bytes(doc)
        etag = snapshot_etag(body)
        self._remember_etag(cache_key, etag)
        return 200, body, {"ETag": etag}, "lists-diff"

    def _get_stability(
        self, raw_path: str, path: str, deadline: float, inm: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        """``GET /v1/lists/<provider>/stability?k=`` — the incremental
        stability surfaces (daily churn, intersection decay, weekday
        periodicity) over the provider's full simulated day range.

        Serving behavior (DESIGN.md serving rule): the first request per
        (provider, k) walks every day's list with the deadline re-checked
        between days (504 rather than a blown budget); the finished body
        is cached, so later requests — and 304s — are O(1).
        """
        provider = path[len("/v1/lists/"):].split("/")[0]
        k, error = self._parse_k(raw_path)
        if error is not None:
            return 400, error, {}, "router"
        cache_key = f"stability:{provider}:{k}"
        etag = self._cached_etag(cache_key)
        if etag is not None and _etag_matches(inm, etag):
            return self._not_modified(etag, "lists-stability")
        ctx = self._context()
        if provider not in ctx.providers:
            return 404, _error_body(
                "not_found",
                f"unknown provider {provider!r}; choose from "
                + ", ".join(ctx.providers),
            ), {}, "router"
        with self._etag_lock:
            cached = self._stability_cache.get(cache_key)
        if cached is not None:
            body, etag = cached
            return 200, body, {"ETag": etag}, "lists-stability"
        tracker = StabilityTracker(k)
        degraded_statuses: Dict[str, int] = {}
        for day in range(self.config.n_days):
            if time.perf_counter() >= deadline:
                body, headers = self._retry_error("deadline", "deadline exceeded")
                return 504, body, headers, "deadline"
            resolved = self._data_resolve(provider, day)
            if resolved is not None:
                ranked, health = resolved
                degraded = bool(health.get("degraded"))
                if degraded:
                    status = str(health.get("status"))
                    degraded_statuses[status] = (
                        degraded_statuses.get(status, 0) + 1
                    )
            else:
                ranked, degraded = self._ranked(provider, day), False
            # Degraded days (carried-forward repeats especially) would
            # read as zero churn; the tracker records them flagged and
            # keeps them out of the churn aggregates.
            tracker.observe(ranked.head(k).strings(ctx.world),
                            degraded=degraded)
        doc = {"provider": provider, "start_weekday": self.config.start_weekday}
        doc.update(tracker.summary(self.config.start_weekday))
        if self._data_chaos_armed():
            doc["data_health"] = {
                "degraded_days": len(doc.get("degraded_days", [])),
                "by_status": dict(sorted(degraded_statuses.items())),
            }
        body = canonical_bytes(doc)
        etag = snapshot_etag(body)
        with self._etag_lock:
            self._stability_cache[cache_key] = (body, etag)
            while len(self._stability_cache) > 16:
                self._stability_cache.popitem(last=False)
        self._remember_etag(cache_key, etag)
        return 200, body, {"ETag": etag}, "lists-stability"

    # ------------------------------------------------------------------
    # Conditional-GET plumbing.

    def _list_version(self, provider: str, day: int, ranked: object,
                      data_health: Optional[Dict] = None) -> str:
        """The snapshot version for (provider, day): the store checksum
        of the full persisted snapshot document.

        The first request for a (provider, day) persists the full list
        snapshot as a store artifact (``lists/<provider>/day-<d>``); the
        checksum the store records for it — identical to the sha256 of
        the canonical payload — becomes the version every ``?k=`` slice
        of that snapshot reports.  Under data chaos the ``data_health``
        block is part of the persisted snapshot, so a degraded day's
        version can never collide with its clean twin.
        """
        key = (provider, day)
        with self._etag_lock:
            version = self._list_versions.get(key)
        if version is not None:
            return version
        doc = snapshot_doc(ranked, self._context().world,  # type: ignore[arg-type]
                           data_health=data_health)
        artifact = f"lists/{provider}/day-{day}"
        self.store.put_json(self._cfg_key, artifact, doc)
        version = self.store.checksum(self._cfg_key, artifact) or (
            hashlib.sha256(canonical_bytes(doc)).hexdigest()
        )
        with self._etag_lock:
            self._list_versions[key] = version
        return version

    def _cached_etag(self, cache_key: str) -> Optional[str]:
        with self._etag_lock:
            return self._response_etags.get(cache_key)

    def _remember_etag(self, cache_key: str, etag: str) -> None:
        with self._etag_lock:
            self._response_etags[cache_key] = etag
            self._response_etags.move_to_end(cache_key)
            capacity = max(16, self.settings.list_cache_capacity * 4)
            while len(self._response_etags) > capacity:
                self._response_etags.popitem(last=False)

    def _not_modified(
        self, etag: str, source: str
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        """A 304: empty body, the current ETag restated, one counter."""
        with self._counters_lock:
            self.not_modified += 1
        self.tracer.count_root("serve.not_modified")
        return 304, b"", {"ETag": etag}, f"{source}-304"

    def _body_headers(
        self, body: bytes, headers: Dict[str, str]
    ) -> Dict[str, str]:
        """Headers for a 200 with a content-addressed body: strong ETag."""
        merged = dict(headers)
        merged["ETag"] = snapshot_etag(body)
        return merged

    # ------------------------------------------------------------------
    # Metrics.

    def metrics(self) -> Dict[str, object]:
        """The ``/metricz`` document."""
        with self._counters_lock:
            by_status = {str(code): count for code, count in sorted(self._by_status.items())}
            by_route = dict(sorted(self._by_route.items()))
            requests_total = self.requests_total
            deadline_timeouts = self.deadline_timeouts
            repairs = self.repairs
            non_golden_blocked = self.non_golden_blocked
            not_modified = self.not_modified
            client_gone = self.client_gone
            protocol_errors = self.protocol_errors
            connections_reaped = self.connections_reaped
        stats = self.store.stats
        with self.tracer._root_lock:
            counters = dict(self.tracer.root.counters)
        return {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "ready": self._ready,
            "draining": self._draining,
            "config_key": self._cfg_key,
            "requests": {
                "total": requests_total,
                "by_status": by_status,
                "by_route": by_route,
                "client_gone": client_gone,
                "protocol_errors": protocol_errors,
            },
            "connections": {
                "active": self.active_connections,
                "reaped": connections_reaped,
                "idle_timeout_seconds": self.settings.idle_timeout_seconds,
                "lifetime_seconds": self.settings.connection_lifetime_seconds,
                "max_header_count": self.settings.max_header_count,
                "max_header_bytes": self.settings.max_header_bytes,
            },
            "shed": {
                "shed_total": self.gate.shed_total,
                "admitted_total": self.gate.admitted_total,
                "inflight": self.gate.inflight,
                "waiting": self.gate.waiting,
                "max_inflight": self.gate.capacity,
                "queue_depth": self.gate.queue_depth,
            },
            "deadline": {
                "deadline_ms": self.settings.deadline_ms,
                "timeouts": deadline_timeouts,
            },
            "retry_after": {
                "floor_seconds": self.settings.retry_after_seconds,
                "current_seconds": self._retry_after_seconds(),
                "cap_seconds": RETRY_AFTER_CAP,
            },
            "conditional": {
                "not_modified_total": not_modified,
                "etags_cached": len(self._response_etags),
                "snapshot_versions": len(self._list_versions),
            },
            "breaker": self.breaker.snapshot(),
            "last_known_good": {
                "size": len(self.lkg),
                "capacity": self.lkg.capacity,
                "serves": self.lkg.serves,
                "repairs": repairs,
                "non_golden_blocked": non_golden_blocked,
            },
            "store": {
                "snapshot": stats.snapshot(),
                "corrupt": stats.corrupt,
                "quarantined": stats.quarantined,
                "read_only": self.store.read_only,
            },
            "data": self._data_metrics(),
            "counters": counters,
        }

    def _data_metrics(self) -> Dict[str, object]:
        """The ``/metricz`` data-plane block: armed state, per-provider
        ingest ledger counts, fired sites, and the fault-sequence digest
        with its in-run replay (equality is the purity proof)."""
        armed = self._data_chaos_armed()
        if not armed or self._data_feed is None:
            return {"armed": armed, "providers": {}, "fired": {},
                    "digest": None, "replay_digest": None}
        with self._data_lock:
            providers = {
                name: stream.counts()
                for name, stream in sorted(self._data_streams.items())
            }
            fired = self._data_feed.fired_sites()
            digest = self._data_feed.fault_digest()
            replay = self._data_feed.replay_digest()
        return {
            "armed": True,
            "providers": providers,
            "fired": dict(sorted(fired.items())),
            "digest": digest,
            "replay_digest": replay,
        }

    # ------------------------------------------------------------------
    # Response plumbing.

    def _retry_after_seconds(self) -> int:
        """The derived ``Retry-After`` value for this instant's load."""
        return dynamic_retry_after(
            self.settings.retry_after_seconds,
            self.gate.waiting,
            self.gate.capacity,
            self.settings.deadline_ms,
            self.breaker.cooldown_remaining(),
        )

    def _retry_headers(self) -> Dict[str, str]:
        return {"Retry-After": str(self._retry_after_seconds())}

    def _retry_error(self, error: str, detail: str) -> Tuple[bytes, Dict[str, str]]:
        """An envelope body + headers pair for retryable errors: the
        ``Retry-After`` header and the body's ``retry_after`` key carry
        the same derived estimate."""
        seconds = self._retry_after_seconds()
        body = _error_body(error, detail, retry_after=seconds)
        return body, {"Retry-After": str(seconds)}

    def _respond(
        self,
        handler: _RequestHandler,
        status: int,
        body: bytes,
        headers: Dict[str, str],
        head_only: bool,
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            handler.send_header(key, value)
        if self._draining and "Connection" not in headers:
            handler.send_header("Connection", "close")
            handler.close_connection = True
        handler.end_headers()
        if not head_only:
            handler.wfile.write(body)

    def _account(
        self,
        handler: _RequestHandler,
        path: str,
        route: str,
        status: int,
        started: float,
        source: str,
        shed: Optional[str] = None,
    ) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._counters_lock:
            self.requests_total += 1
            self._by_status[status] = self._by_status.get(status, 0) + 1
            self._by_route[route] = self._by_route.get(route, 0) + 1
        self.tracer.count_root("serve.requests")
        self.tracer.count_root(f"serve.status.{status // 100}xx")
        self.log.write(
            "request",
            method=handler.command,
            path=path,
            status=status,
            ms=elapsed_ms,
            source=source,
            breaker=self.breaker.state,
            inflight=self.gate.inflight,
            shed=shed if shed is not None else False,
        )


def _error_body(
    error: str, detail: str = "", retry_after: Optional[int] = None
) -> bytes:
    """The canonical error envelope (the DESIGN.md API rule).

    Every 4xx/5xx body is ``{"error": <machine-readable token>,
    "detail": <human text>, "retry_after": <seconds>?}`` — the last key
    present exactly when the response carries a ``Retry-After`` header,
    with the same value.
    """
    doc: Dict[str, object] = {"error": error, "detail": detail}
    if retry_after is not None:
        doc["retry_after"] = retry_after
    return canonical_bytes(doc)


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation against one entity tag.

    The header is a comma-separated list of entity tags or ``*``; a
    ``W/`` prefix is ignored for comparison (If-None-Match is defined to
    use weak comparison).
    """
    if not header:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False
