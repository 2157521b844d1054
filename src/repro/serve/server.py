"""The resilient metrics service: ``repro serve``.

A stdlib-only (``ThreadingHTTPServer``) HTTP front end over the artifact
store, exposing the precomputed reproduction results the ROADMAP's
serving workload demands:

* ``GET /v1/experiments`` — the registry, with per-experiment availability.
* ``GET /v1/experiments/<name>`` — one experiment's stored result
  (title, text, structured data), golden-verified before it is ever
  served, then replayed as the stored bytes whenever their checksum
  equals the verified reference.
* ``GET /v1/lists`` — the lists index: available providers, the
  simulated day window, and the ``k`` bounds, so clients (the loadgen
  personas foremost) discover valid targets instead of hardcoding them.
* ``GET /v1/lists/<provider>/<day>?k=N`` — the top-``k`` slice of a
  provider's simulated ranked list for a day, as a *versioned snapshot*:
  the body carries the snapshot version (the sha256 of the canonical full
  snapshot, which is computed, never stored) and the response a strong
  ``ETag``.
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

Every endpoint is one entry of :data:`ROUTES`: its ``by_route`` label,
the path pattern it answers, its handler, and whether it is *admitted*.
Beside the table sit one parameter parser, one deadline check, one
response-cache path and one conditional-GET helper.

Hardening, in one place per concern:

* **deadlines** — every admitted route runs under ``deadline_ms``;
  budget spent queueing is budget unavailable for work, and a request
  that would *start* expensive work past its deadline answers 504
  instead (built and counted in one place).
* **load shedding** — admitted routes pass a bounded
  :class:`~repro.serve.shed.AdmissionGate`; beyond ``capacity`` +
  ``queue_depth`` the server answers 503 with ``Retry-After`` instead
  of queueing without bound.  Only the health routes bypass the gate.
  ``Retry-After`` is *derived*, not fixed:
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
  experiment results this is the artifact store's recorded checksum,
  served without hashing again), and every such 200 passes the one
  ``If-None-Match`` check: a match answers 304 with an empty body.  A
  stored experiment or a cached list-shaped body revalidates *without
  touching the store or recomputing the list* — the reference and the
  response cache are consulted before any expensive work.
* **one response cache** — each list-shaped body (slice, diff,
  stability) is rendered once per key and kept with its ETag in one
  bounded LRU (:data:`ETAG_CACHE_CAPACITY` entries), keyed by whether
  data chaos is armed; a repeat answers from it, a 304 from its ETag.
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
record in the :class:`~repro.serve.logfmt.AccessLog`, and every service
event is counted once, in the :class:`repro.obs.Tracer`'s thread-safe
root-span counters; ``/metricz`` is built from one snapshot of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.core.experiments import SPECS
from repro.core.pipeline import ExperimentContext, experiment_context
from repro.faults import inject as faults
from repro.faults.plan import DATA_SITES
from repro.ranking.ingest import DegradedFeed, ProviderStream
from repro.ranking.snapshots import diff_ranked, snapshot_doc
from repro.ranking.stability import StabilityTracker
from repro.serve.breaker import BreakerState, CircuitBreaker, LastKnownGood
from repro.serve.drain import DrainController
from repro.serve.logfmt import AccessLog
from repro.serve.shed import AdmissionGate
from repro.store.artifacts import (
    SCHEMA_VERSION,
    ArtifactStore,
    canonical_bytes,
    config_key,
    snapshot_etag,
)
from repro.worldgen.config import WorldConfig

__all__ = [
    "ServeSettings",
    "MetricsService",
    "DEFAULT_PORT",
    "RETRY_AFTER_CAP",
    "ROUTES",
    "Route",
    "dynamic_retry_after",
]

#: Default TCP port for ``repro serve``.
DEFAULT_PORT = 8321

#: Upper clamp for derived ``Retry-After`` values, in seconds.  Past this
#: the estimate is guesswork and a client should just poll.
RETRY_AFTER_CAP = 30

#: List-shaped responses (slice, diff, stability) kept as ``(ETag, body)``
#: for the 304 fast path and for replaying a repeat 200; least recently
#: used dropped first.  The largest body at ``max_k`` = 1000 is a diff of
#: about 84 KB, so the cache holds at most about 21 MiB.
ETAG_CACHE_CAPACITY = 256

#: Cache key of a list-shaped response: the route's name and parameters,
#: then whether data chaos was armed.
_ResponseKey = Tuple[object, ...]

#: A handler's answer: status, body, extra headers, and the access-log
#: ``source`` naming which path produced it.
_Answer = Tuple[int, bytes, Dict[str, str], str]


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
    default_k: int = 100
    max_k: int = 1000
    idle_timeout_seconds: float = 30.0
    connection_lifetime_seconds: float = 120.0
    max_header_count: int = 64
    max_header_bytes: int = 16384


@dataclass(frozen=True)
class Route:
    """One endpoint, declared once (the DESIGN.md serving rule).

    Attributes:
        name: the route's label in ``/metricz`` ``requests.by_route``.
        pattern: the URL path it answers, matched whole; named groups
          are the handler's path parameters.
        handler: the :class:`MetricsService` method answering it.
        admitted: True when a request passes the admission gate (503 +
          ``Retry-After`` past ``max_inflight`` + ``queue_depth``) and
          runs under ``deadline_ms`` (504 + ``Retry-After`` once it is
          spent); False for the health routes, which bypass both so
          probes stay honest while the gate is saturated.
    """

    name: str
    pattern: re.Pattern[str]
    handler: str
    admitted: bool = True


#: Every endpoint.  First match wins: the list routes lead because they
#: carry most requests, ``lists-diff`` and ``lists-stability`` precede
#: ``lists``, and ``unknown`` matches any path.
ROUTES: Tuple[Route, ...] = (
    Route("lists-diff", re.compile(r"/v1/lists/(?P<provider>[^/]*)/diff"),
          "_get_diff"),
    Route("lists-stability",
          re.compile(r"/v1/lists/(?P<provider>[^/]*)/stability"),
          "_get_stability"),
    Route("lists", re.compile(r"/v1/lists/(?P<provider>[^/]+)/(?P<day>[^/]+)"),
          "_get_list"),
    Route("lists-index", re.compile(r"/v1/lists/?"), "_get_lists_index"),
    Route("experiment", re.compile(r"/v1/experiments/(?P<name>.*)", re.S),
          "_get_experiment"),
    Route("experiments", re.compile(r"/v1/experiments"), "_get_index"),
    Route("healthz", re.compile(r"/healthz"), "_get_healthz", admitted=False),
    Route("readyz", re.compile(r"/readyz"), "_get_readyz", admitted=False),
    Route("metricz", re.compile(r"/metricz"), "_get_metricz", admitted=False),
    Route("unknown", re.compile(r".*", re.S), "_get_unknown"),
)


def _match(path: str) -> Tuple[Route, Dict[str, str]]:
    """The route answering ``path`` and its path parameters."""
    for route in ROUTES:
        found = route.pattern.fullmatch(path)
        if found is not None:
            return route, found.groupdict()
    raise AssertionError("the unknown route matches every path")


def _canonical_int(text: str) -> Optional[int]:
    """``text`` as an integer when it is that integer's own spelling
    (``str(int(text)) == text``), else None: ``05``, ``1_0``, ``+5`` and
    non-ASCII digits name no day and no ``k``, so one representation
    answers under one URL."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


class _Reject(Exception):
    """``(status, error token, detail)``: ends a request with an error
    envelope before any work, for a bad parameter or an unknown name
    (access-log source ``router``)."""


class _DeadlineExceeded(Exception):
    """The request's budget is spent; it answers 504."""


class _Request(NamedTuple):
    """What a handler reads of one request: the route's path parameters,
    the query string, ``If-None-Match`` and the absolute deadline."""

    params: Dict[str, str]
    query: str
    inm: Optional[str]
    deadline: float

    def check_deadline(self) -> None:
        """The one deadline check: never start work once the budget is
        spent."""
        if time.perf_counter() >= self.deadline:
            raise _DeadlineExceeded()


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
        access_log: structured log sink (default: in-memory only, the
          newest :data:`~repro.serve.logfmt.MEMORY_LINES` records).
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
        self._ready = False
        # Live connection registry for the lifetime reaper: socket id ->
        # (socket, hard deadline).  Guarded by its own lock — reaping
        # must never contend with the request-path counters.
        self._conn_lock = threading.Lock()
        self._connections: Dict[int, Tuple[object, float]] = {}
        self._reaper_stop = threading.Event()
        self._reaper_thread: Optional[threading.Thread] = None
        self._ctx: Optional[ExperimentContext] = None
        self._ctx_lock = threading.Lock()
        self._build_lock = threading.Lock()
        # Degraded-ingestion state (active only when the armed fault plan
        # contains data.* rules): one shared feed so the fault log and
        # its digest span providers, one sequential stream per provider.
        # All resolution happens under one lock — the streams resolve
        # days strictly in order, which is what keeps every data.* fault
        # decision independent of request interleaving.
        self._data_lock = threading.Lock()
        self._data_feed: Optional[DegradedFeed] = None
        self._data_streams: Dict[str, ProviderStream] = {}
        # Conditional-GET state: finished list-shaped responses as (ETag,
        # body) by cache key (checked before any store read or list
        # computation — the 304 fast path and the replay of a repeat),
        # and snapshot versions by (provider, day, data chaos armed).
        # Both guarded by one lock; the responses bounded, the versions
        # at most two per (provider, day).
        self._etag_lock = threading.Lock()
        self._responses: "OrderedDict[_ResponseKey, Tuple[str, bytes]]" = OrderedDict()
        self._list_versions: Dict[Tuple[str, int, bool], str] = {}
        # The experiments index: fixed once warmup ends, and re-rendered
        # there (until then every experiment reads "missing").
        self._index = self._render_index()
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

        A payload whose checksum equals the warmup-pinned reference is
        byte-equal to the golden-verified body, so it is the body as it
        is: no decode, no schema check, no second hash.  Only a payload
        whose digest differs (and every read during warmup) is decoded,
        to tell ``invalid`` from ``drift``.
        """
        self._read_status.last = ("miss", 0.0)
        read = self.store.get_json_bytes(self._cfg_key, f"results/{name}")
        status, seconds = self._read_status.last
        if status == "corrupt":
            return None, "corrupt"
        if read is None:
            # A result we once verified has vanished (quarantined by a
            # corrupt read, or evicted): that is a dependency failure.  A
            # result that never existed is an honest 404.
            return None, ("lost" if name in self._reference else None)
        body, digest = read
        reference = self._reference.get(name)
        if reference != f'"{digest}"':
            body, failure = self._decode_result(body, reference)
            if failure is not None:
                return None, failure
        if seconds > self.settings.slow_read_seconds:
            return body, "slow"
        return body, None

    def _decode_result(
        self, payload: bytes, reference: Optional[str]
    ) -> Tuple[Optional[bytes], Optional[str]]:
        """``(canonical body, None)`` for a stored result whose digest
        missed the reference, or ``(None, "invalid" | "drift")``.

        A checksum-valid payload that is not canonical JSON but decodes
        to the reference is served as its canonical bytes.
        """
        if self._ready:
            self.tracer.count_root("serve.results_decoded")
        try:
            blob = json.loads(payload.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            return None, "invalid"
        if not isinstance(blob, dict) or blob.get("schema_version") != SCHEMA_VERSION:
            return None, "invalid"
        body = canonical_bytes(blob)
        if reference is not None and snapshot_etag(body) != reference:
            # Never serve a body that drifted from the golden-verified
            # reference — answer from last-known-good instead.
            self.tracer.count_root("serve.non_golden_blocked")
            return None, "drift"
        return body, None

    def _repair(self, name: str, body: bytes) -> None:
        """Write a last-known-good body back to the store, verbatim
        (self-healing: a quarantined, lost or invalid blob becomes a hit
        again, and its header checksum is the reference)."""
        self.store.put_json_bytes(self._cfg_key, f"results/{name}", body)
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
        self._index = self._render_index()
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

    def _ranked(self, provider: str, day: int):
        resolved = self._data_resolve(provider, day)
        if resolved is not None:
            return resolved[0]
        ctx = self._context()
        # Providers memoize each (provider, day) list; build under the lock
        # because they share one traffic model, which is not re-entrant.
        with self._build_lock:
            return ctx.providers[provider].daily_list(day)

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
        """Accounting for parse-level rejects answered by ``send_error``:
        counted in ``serve.protocol_errors`` only, so the request counts
        (``total``, ``by_status``, ``by_route``) all cover the same
        answered requests."""
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
        target = urlsplit(handler.path)
        path = target.path
        route, params = _match(path)
        budget = self.settings.deadline_ms / 1000.0
        request = _Request(params, target.query,
                           handler.headers.get("If-None-Match"), started + budget)
        shed: Optional[str] = None
        admitted = False
        try:
            violation = self._header_limit_violation(handler)
            if violation is not None:
                status, token, detail = violation
                handler.close_connection = True
                self.tracer.count_root("serve.header_limited")
                answer = (status, _error_body(token, detail),
                          {"Connection": "close"}, "limit")
            elif not route.admitted:
                answer = getattr(self, route.handler)(request)
            else:
                # A request may spend at most half its budget queueing;
                # the rest is reserved for doing the work.
                shed = self.gate.try_acquire(timeout=budget / 2.0)
                admitted = shed is None
                if admitted:
                    answer = self._dispatch(route, request, path)
                else:
                    self.tracer.count_root("serve.shed")
                    body, headers = self._retry_error(
                        "shed", "admission rejected: " + shed)
                    answer = (503, body, headers, "shed")
            status, body, headers, source = answer
            self._respond(handler, status, body, headers, head_only)
            self._account(handler, path, route.name, status, started, source, shed)
        except (KeyboardInterrupt, SystemExit):
            raise
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response: a client_gone outcome,
            # never a server failure — the circuit breaker only ever
            # sees store reads, and a flood of disappearing clients must
            # not masquerade as service errors.
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
                self._account(handler, path, route.name, 500, started, "error")
            except OSError:
                pass
        finally:
            if admitted:
                self.gate.release()

    def _dispatch(self, route: Route, request: _Request, path: str) -> _Answer:
        """An admitted request: the injected-error site, the deadline,
        then the route's handler.  A rejected parameter answers its
        envelope; a spent budget answers the one deadline 504, counted
        here and nowhere else."""
        if faults.fire("serve.request.error", path) is not None:
            self.tracer.count_root("serve.injected_errors")
            return 500, _error_body(
                "injected", "injected serve.request.error"), {}, "injected"
        try:
            request.check_deadline()
            return getattr(self, route.handler)(request)
        except _Reject as reject:
            status, token, detail = reject.args
            return status, _error_body(token, detail), {}, "router"
        except _DeadlineExceeded:
            self.tracer.count_root("serve.deadline_timeouts")
            body, headers = self._retry_error("deadline", "deadline exceeded")
            return 504, body, headers, "deadline"

    def _parse(self, request: _Request, *days: str) -> Tuple[List[int], int]:
        """The one parameter parser: the named days, then ``k``.

        Checked in the order every list-shaped route answers them: a day
        missing from the query string is 400, a day that is not an
        integer inside the simulated window is 404, then ``k`` (default
        ``default_k``) that is not an integer >= 1 is 400; ``k`` clamps
        to ``max_k``.  A day the route's path names comes from the path.
        A given day or ``k`` counts as an integer only in its canonical
        spelling (:func:`_canonical_int`).
        """
        query = parse_qs(request.query)
        texts = [request.params.get(name) or query.get(name, [None])[0]
                 for name in days]
        if None in texts:
            raise _Reject(400, "bad_request", "needs query parameters "
                          + " and ".join(f"{name}=<day>" for name in days))
        values = []
        for text in texts:
            day = _canonical_int(text)
            if day is None:
                raise _Reject(404, "not_found",
                              f"day must be an integer, got {text!r}")
            if not 0 <= day < self.config.n_days:
                raise _Reject(
                    404, "not_found",
                    f"day {day} outside simulated window [0, {self.config.n_days})",
                )
            values.append(day)
        k = self.settings.default_k
        if "k" in query:
            k = _canonical_int(query["k"][0])
            if k is None:
                raise _Reject(400, "bad_request", "k must be an integer")
        if k < 1:
            raise _Reject(400, "bad_request", "k must be >= 1")
        return values, min(k, self.settings.max_k)

    # ------------------------------------------------------------------
    # Endpoint bodies, one handler per route.

    def _get_healthz(self, request: _Request) -> _Answer:
        return 200, canonical_bytes({"status": "alive"}), {}, "control"

    def _get_readyz(self, request: _Request) -> _Answer:
        # Not-ready is an error the canonical envelope covers like any
        # other 5xx; the "error" token tells load balancers why.
        if self._draining or not self._ready:
            body, headers = self._retry_error(
                "not_ready", "draining" if self._draining else "warming")
            return 503, body, headers, "control"
        return 200, canonical_bytes({"status": "ready"}), {}, "control"

    def _get_metricz(self, request: _Request) -> _Answer:
        return 200, canonical_bytes(self.metrics()), {}, "control"

    def _get_unknown(self, request: _Request) -> _Answer:
        raise _Reject(404, "not_found", "no such route")

    def _get_index(self, request: _Request) -> _Answer:
        body, etag = self._index
        return self._ok(request, etag, body, "index")

    def _render_index(self) -> Tuple[bytes, str]:
        """The experiments index body and its ETag: a function of the
        registry and of the warmup verdicts only."""
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
        return body, snapshot_etag(body)

    def _get_experiment(self, request: _Request) -> _Answer:
        name = request.params["name"]
        if name not in self.names or name not in SPECS:
            raise _Reject(404, "not_found", f"unknown experiment {name!r}")
        if name in self._not_golden:
            body, headers = self._retry_error(
                "not_golden",
                f"result for {name!r} failed golden verification: "
                + self._not_golden[name],
            )
            return 503, body, headers, "not-golden"
        reference = self._reference.get(name)
        if reference is not None and _etag_matches(request.inm, reference):
            # The warmup-pinned reference is the body's strong ETag (the
            # quoted artifact-store checksum for results/<name> —
            # canonical payloads hash identically), so a conditional hit
            # answers before the breaker, the store, or any read budget
            # is touched: zero store reads.
            return self._not_modified(reference, "experiment")
        if not self.breaker.allow():
            body = self.lkg.get(name)
            if body is not None:
                return self._experiment_body(
                    request, name, body, "last-known-good", "lkg-open")
            body, headers = self._retry_error("unavailable", "store circuit open")
            return 503, body, headers, "breaker-open"
        try:
            request.check_deadline()
        except _DeadlineExceeded:
            # Don't start a store read we have no budget left to use;
            # return the breaker's probe slot (if any) first.
            self.breaker.record_success()
            raise
        body, failure = self._read_fresh(name)
        if failure is None:
            self.breaker.record_success()
            if body is None:
                return 404, _error_body(
                    "not_found",
                    f"no cached result for {name!r}; run `repro all` first",
                ), {}, "miss"
            self.lkg.put(name, body)
            return self._experiment_body(request, name, body, "store", "store")
        self.breaker.record_failure(failure)
        self.tracer.count_root(f"serve.read_failures.{failure}")
        if failure == "slow" and body is not None:
            # Slow but valid: serve it (it passed the digest check) while
            # the breaker accounts for the latency.
            self.lkg.put(name, body)
            return self._experiment_body(
                request, name, body, "store-slow", "store-slow")
        fallback = self.lkg.get(name)
        if fallback is not None:
            if failure in ("corrupt", "lost", "invalid"):
                self._repair(name, fallback)
            return self._experiment_body(
                request, name, fallback, "last-known-good", "lkg")
        body, headers = self._retry_error(
            "unavailable",
            f"store read failed ({failure}) and no last-known-good copy",
        )
        return 503, body, headers, "unavailable"

    def _experiment_body(
        self, request: _Request, name: str, body: bytes, served_from: str,
        source: str,
    ) -> _Answer:
        """A verified experiment body.  Its ETag is the warmup-pinned
        reference, which every body served under one equals byte for
        byte (a stored payload by its checksum, a decoded one by its
        hash, a last-known-good copy by construction); only a result
        that had no reference at warmup is hashed here."""
        etag = self._reference.get(name) or snapshot_etag(body)
        return self._ok(request, etag, body, source, {"X-Repro-Source": served_from})

    def _get_lists_index(self, request: _Request) -> _Answer:
        """``GET /v1/lists`` — discoverable targets for list clients.

        The body is computed from the warm context, so after warmup it
        is a cheap, constant-shape read.
        """
        ctx = self._context()
        request.check_deadline()
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
        return self._ok(request, snapshot_etag(body), body, "lists-index")

    def _get_list(self, request: _Request) -> _Answer:
        """``GET /v1/lists/<provider>/<day>?k=`` — a top-``k`` slice of
        one day's snapshot, reporting the snapshot's version."""
        (day,), k = self._parse(request, "day")
        return self._list_shaped(request, "lists", self._list_doc,
                                 request.params["provider"], day, k)

    def _list_doc(self, request: _Request, ctx: ExperimentContext,
                  provider: str, day: int, k: int) -> Dict:
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
        return doc

    def _get_diff(self, request: _Request) -> _Answer:
        """``GET /v1/lists/<provider>/diff?from=&to=&k=`` — rank deltas
        between two days' top-``k`` prefixes: entrants, dropouts, moved
        (with signed delta), unchanged count."""
        (from_day, to_day), k = self._parse(request, "from", "to")
        return self._list_shaped(request, "lists-diff", self._diff_doc,
                                 request.params["provider"], from_day, to_day, k)

    def _diff_doc(self, request: _Request, ctx: ExperimentContext,
                  provider: str, from_day: int, to_day: int, k: int) -> Dict:
        from_names = self._ranked(provider, from_day).head(k).strings(ctx.world)
        request.check_deadline()
        to_names = self._ranked(provider, to_day).head(k).strings(ctx.world)
        doc = {"provider": provider, "from": from_day, "to": to_day, "k": k}
        doc.update(diff_ranked(from_names, to_names))
        return doc

    def _get_stability(self, request: _Request) -> _Answer:
        """``GET /v1/lists/<provider>/stability?k=`` — the incremental
        stability surfaces (daily churn, intersection decay, weekday
        periodicity) over the provider's full simulated day range."""
        _, k = self._parse(request)
        return self._list_shaped(request, "lists-stability", self._stability_doc,
                                 request.params["provider"], k)

    def _stability_doc(self, request: _Request, ctx: ExperimentContext,
                       provider: str, k: int) -> Dict:
        # The first request per (provider, k) walks every day's list with
        # the deadline re-checked between days (504 rather than a blown
        # budget); later requests, and 304s, answer from the cache.
        tracker = StabilityTracker(k)
        degraded_statuses: Dict[str, int] = {}
        for day in range(self.config.n_days):
            request.check_deadline()
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
        return doc

    # ------------------------------------------------------------------
    # The response cache and conditional GET.

    def _list_shaped(
        self,
        request: _Request,
        source: str,
        build: Callable[..., Dict],
        provider: str,
        *params: int,
    ) -> _Answer:
        """The one response-cache path of the list-shaped routes.

        List bodies are pure functions of the config and of the memoized
        data-health resolution, so a repeat of (route, provider,
        parameters, data chaos armed) answers from the cache without
        touching the providers or the store.  A first touch checks the
        provider (404) and the deadline (504), then builds the document
        and serializes it once.
        """
        key = (source, provider, *params, self._data_chaos_armed())
        with self._etag_lock:
            cached = self._responses.get(key)
            if cached is not None:
                self._responses.move_to_end(key)
        if cached is not None:
            etag, body = cached
            answer = self._ok(request, etag, body, source)
            if answer[0] == 200:
                self.tracer.count_root("serve.bodies_replayed")
            return answer
        ctx = self._context()
        if provider not in ctx.providers:
            raise _Reject(
                404, "not_found",
                f"unknown provider {provider!r}; choose from "
                + ", ".join(ctx.providers),
            )
        request.check_deadline()
        body = canonical_bytes(build(request, ctx, provider, *params))
        etag = snapshot_etag(body)
        with self._etag_lock:
            self._responses[key] = (etag, body)
            self._responses.move_to_end(key)
            while len(self._responses) > ETAG_CACHE_CAPACITY:
                self._responses.popitem(last=False)
        return self._ok(request, etag, body, source)

    def _list_version(self, provider: str, day: int, ranked: object,
                      data_health: Optional[Dict] = None) -> str:
        """The snapshot version for (provider, day): the sha256 of the
        canonical bytes of the full snapshot document.

        Every ``?k=`` slice of that snapshot reports it.  It equals the
        checksum the artifact store would record for the document, but
        the snapshot is not stored: nothing reads it back, and the
        version must name the bytes this process serves, never an older
        file left on disk.  Under data chaos the ``data_health`` block is
        part of the snapshot, so a degraded day's version can never
        collide with its clean twin; versions are keyed by that armed
        state, so arming data chaos at runtime never reports the clean
        snapshot's version.
        """
        key = (provider, day, data_health is not None)
        with self._etag_lock:
            version = self._list_versions.get(key)
        if version is not None:
            return version
        doc = snapshot_doc(ranked, self._context().world,  # type: ignore[arg-type]
                           data_health=data_health)
        version = hashlib.sha256(canonical_bytes(doc)).hexdigest()
        with self._etag_lock:
            self._list_versions[key] = version
        return version

    def _ok(
        self,
        request: _Request,
        etag: str,
        body: bytes,
        source: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> _Answer:
        """The one conditional-GET helper every ETag-bearing 200 passes:
        an ``If-None-Match`` naming ``etag`` answers 304, anything else
        the 200 with its ETag."""
        if _etag_matches(request.inm, etag):
            return self._not_modified(etag, source)
        return 200, body, {**(headers or {}), "ETag": etag}, source

    def _not_modified(self, etag: str, source: str) -> _Answer:
        """A 304: empty body, the current ETag restated, one counter."""
        self.tracer.count_root("serve.not_modified")
        return 304, b"", {"ETag": etag}, f"{source}-304"

    # ------------------------------------------------------------------
    # Metrics.

    @property
    def requests_total(self) -> int:
        """Requests answered (protocol-level rejects not included)."""
        return int(self.tracer.root_counters().get("serve.requests", 0))

    @property
    def repairs(self) -> int:
        """Last-known-good bodies written back to the store."""
        return int(self.tracer.root_counters().get("serve.repairs", 0))

    @property
    def non_golden_blocked(self) -> int:
        """Stored bodies refused for drifting from their reference."""
        return int(self.tracer.root_counters().get("serve.non_golden_blocked", 0))

    def metrics(self) -> Dict[str, object]:
        """The ``/metricz`` document, every count from one snapshot of
        the tracer's root counters."""
        counters = self.tracer.root_counters()

        def count(name: str) -> int:
            return int(counters.get(name, 0))

        def breakdown(prefix: str) -> Dict[str, int]:
            return {
                name[len(prefix):]: int(value)
                for name, value in sorted(counters.items())
                if name.startswith(prefix)
            }

        stats = self.store.stats
        return {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "ready": self._ready,
            "draining": self._draining,
            "config_key": self._cfg_key,
            "requests": {
                "total": count("serve.requests"),
                "by_status": breakdown("serve.by_status."),
                "by_route": breakdown("serve.by_route."),
                "client_gone": count("serve.client_gone"),
                "protocol_errors": count("serve.protocol_errors"),
            },
            "connections": {
                "active": self.active_connections,
                "reaped": count("serve.connections_reaped"),
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
                "timeouts": count("serve.deadline_timeouts"),
            },
            "retry_after": {
                "floor_seconds": self.settings.retry_after_seconds,
                "current_seconds": self._retry_after_seconds(),
                "cap_seconds": RETRY_AFTER_CAP,
            },
            "conditional": {
                "not_modified_total": count("serve.not_modified"),
                "etags_cached": len(self._responses),
                "snapshot_versions": len(self._list_versions),
            },
            "breaker": self.breaker.snapshot(),
            "last_known_good": {
                "size": len(self.lkg),
                "capacity": self.lkg.capacity,
                "serves": self.lkg.serves,
                "repairs": count("serve.repairs"),
                "non_golden_blocked": count("serve.non_golden_blocked"),
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
        self.tracer.count_root(
            "serve.requests",
            f"serve.status.{status // 100}xx",
            f"serve.by_status.{status}",
            f"serve.by_route.{route}",
        )
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
