"""The asyncio load engine: open-loop pacing, closed-loop sessions.

Everything here is stdlib.  The HTTP client is a deliberately small
raw-socket HTTP/1.1 GET over :func:`asyncio.open_connection` — no
aiohttp in the image, and ``urllib`` would serialize on threads; a load
generator must not have its own concurrency ceiling below the service's.

Connections are **persistent** by default: each phase owns a
:class:`ConnectionPool` of keep-alive HTTP/1.1 sockets, so the cost of
a TCP handshake is paid per *session*, not per request — the difference
between a client that tops out at a few hundred requests/sec and one
that can actually saturate the serve layer.  The pool handles the two
ways a peer ends persistence: a ``Connection: close`` response header
retires the socket after the body, and a server-initiated close between
requests (EOF on a reused socket before any response byte) triggers a
transparent reconnect, never a failed sample.  ``keepalive=False``
falls back to the PR 6 one-socket-per-request client
(:func:`http_get`) for A/B measurements.

Two driving modes, because they answer different questions:

* **closed loop** — N worker sessions, each running one persona:
  request, validate, think, repeat.  Offered load adapts to service
  speed; this is how you find the saturation knee (enough workers with
  zero think time *will* trip the admission gate).
* **open loop** — a token bucket refilled at ``rate`` req/s hands
  tokens to a worker pool; offered load is constant regardless of how
  slow the service gets, which is the honest way to measure latency at
  a fixed arrival rate (no coordinated omission).

Retries reuse :class:`repro.runner.retry.RetryPolicy` — the same
deterministic hash-jittered backoff the experiment runner uses — and
honor ``Retry-After`` on 503/504: the sleep is
``max(policy_backoff, min(retry_after, cap))``, and the engine counts
every 503/504 that *failed* to carry a parseable Retry-After, which the
harness gates at zero (the serve-side satellite's contract).

The engine is also an honest *cache-validating* client: every 200
response's ``ETag`` is remembered per path (bounded), and a planned
request marked ``conditional`` resends it as ``If-None-Match``.  A 304
answer is the ``not_modified`` outcome — a success with an empty body,
exempt from golden pinning and semantic validation (there is no body to
check; the ETag match *is* the check).  Servers that never emit ETags
(the conformance stubs) see no ``If-None-Match`` and no behavior
change.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.gates import fetch_json
from repro.loadgen.metrics import Outcome, PhaseMetrics
from repro.loadgen.personas import (
    Catalog,
    Persona,
    PlannedRequest,
    make_persona,
    roster,
)
from repro.runner.retry import RetryPolicy

__all__ = [
    "ClientStats",
    "ConnectionPool",
    "GarbledResponse",
    "HttpResponse",
    "LoadEngine",
    "PhaseSpec",
    "StaleRetriesExhausted",
    "TokenBucket",
    "TransportError",
    "TruncatedBody",
    "discover_catalog",
    "http_get",
]

#: Never sleep longer than this on a single Retry-After, no matter what
#: the server claims — a load test has a schedule to keep.
RETRY_AFTER_SLEEP_CAP = 2.0

#: A phase may overrun its nominal duration by at most this factor
#: before the engine bails out (a wedged server must not hang CI).
_PHASE_OVERRUN_FACTOR = 5.0

#: Per-path ETags remembered for conditional GETs (LRU-bounded so a
#: long run over a huge URL space cannot grow the cache without limit).
_ETAG_CACHE_CAPACITY = 512


class TransportError(OSError):
    """Base for classified transport-layer failures.

    An :class:`OSError` subclass so callers that only know the PR 6
    contract ("connect/reset failures raise OSError") keep working; the
    engine's retry loop looks at the subclass to classify.
    """


class TruncatedBody(TransportError):
    """The peer closed before delivering its declared ``Content-Length``.

    The one failure that must never be returned as a short body: a
    truncated golden artifact that parses as JSON would otherwise slip
    through as body drift — or worse, as a success.
    """

    def __init__(self, expected: int, received: int) -> None:
        super().__init__(
            f"truncated body: got {received} of {expected} declared bytes"
        )
        self.expected = expected
        self.received = received


class GarbledResponse(TransportError):
    """The response's status line did not parse as HTTP."""


class StaleRetriesExhausted(TransportError):
    """The pool's transparent stale-reconnect budget ran out.

    Each stale retry is normally invisible (a keep-alive socket died
    between requests; reopen and go).  A server resetting every new
    socket would make that loop spin forever — the budget turns the
    storm into a classified failure instead.
    """


@dataclass(frozen=True)
class HttpResponse:
    """A fully-read HTTP response (or client-side failure surrogate)."""

    status: int
    headers: Mapping[str, str]
    body: bytes
    latency_seconds: float
    bytes_out: int


def _extra_header_lines(headers: Optional[Mapping[str, str]]) -> str:
    """Render caller-supplied request headers (e.g. ``If-None-Match``)."""
    if not headers:
        return ""
    return "".join(f"{name}: {value}\r\n" for name, value in headers.items())


async def http_get(
    host: str,
    port: int,
    path: str,
    timeout: float = 5.0,
    headers: Optional[Mapping[str, str]] = None,
) -> HttpResponse:
    """One HTTP/1.1 GET with ``Connection: close``; reads the full body.

    Raises:
        asyncio.TimeoutError: the whole exchange exceeded ``timeout``.
        GarbledResponse: the status line did not parse as HTTP.
        TruncatedBody: EOF before ``Content-Length`` bytes arrived.
        asyncio.IncompleteReadError: EOF in the middle of the headers.
        OSError: connect/reset failures.
    """
    extra_lines = _extra_header_lines(headers)

    async def _exchange() -> HttpResponse:
        started = time.perf_counter()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            request = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "User-Agent: repro-loadgen\r\n"
                "Accept: application/json\r\n"
                f"{extra_lines}"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(" ", 2)
            # The protocol token must be checked too: corruption that
            # clobbers "HTTP" can leave a digit second token behind.
            if (
                len(parts) < 2
                or not parts[0].startswith("HTTP/")
                or not parts[1].isdigit()
            ):
                raise GarbledResponse(
                    f"malformed status line {status_line!r}"
                )
            status = int(parts[1])
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line == b"":
                    # EOF where a header (or the blank line) belongs is
                    # a dropped connection, never the end of headers —
                    # treating it as such would hand back a body with no
                    # framing at all.
                    raise asyncio.IncompleteReadError(b"", None)
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length")
            if length is not None and length.isdigit():
                try:
                    body = await reader.readexactly(int(length))
                except asyncio.IncompleteReadError as exc:
                    raise TruncatedBody(int(length), len(exc.partial)) from exc
            else:
                body = await reader.read()
            return HttpResponse(
                status=status,
                headers=headers,
                body=body,
                latency_seconds=time.perf_counter() - started,
                bytes_out=len(request),
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    return await asyncio.wait_for(_exchange(), timeout=timeout)


@dataclass
class ClientStats:
    """Connection-level accounting for the keep-alive client.

    ``connections_opened`` vs ``requests`` is the keep-alive proof: with
    reuse working, sockets stay within a small multiple of the session
    count while requests run to the thousands.
    """

    requests: int = 0
    connections_opened: int = 0
    requests_on_reused: int = 0  # served on an already-open socket
    connections_retired: int = 0  # peer answered ``Connection: close``
    stale_retries: int = 0  # reused socket found dead; reopened quietly
    resets: int = 0  # connection reset / dropped mid-exchange
    stalled: int = 0  # exchange exceeded the client timeout
    garbled: int = 0  # unparseable status line
    truncated: int = 0  # body shorter than its Content-Length

    _FIELDS = (
        "requests", "connections_opened", "requests_on_reused",
        "connections_retired", "stale_retries", "resets", "stalled",
        "garbled", "truncated",
    )

    def merge(self, other: "ClientStats") -> "ClientStats":
        for key in self._FIELDS:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        return self

    def to_dict(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in self._FIELDS}

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "ClientStats":
        return cls(**{
            key: int(payload.get(key, 0)) for key in cls._FIELDS
        })


class _StaleConnection(Exception):
    """A reused socket died before yielding any response byte — the
    normal end of a keep-alive grace period, not a request failure."""


class _PooledConnection:
    __slots__ = ("reader", "writer", "requests_served")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.requests_served = 0


class ConnectionPool:
    """Keep-alive HTTP/1.1 GET client over a bounded idle-socket pool.

    One pool per (phase, event loop): sessions check a socket out per
    request, so concurrency is bounded by the session count and the pool
    only caps how many *idle* sockets are retained between requests.

    Persistence rules (the conformance tests pin each one):

    * a response with ``Connection: close``, an HTTP/1.0 status line, or
      no ``Content-Length`` (read-to-EOF framing) retires its socket;
    * EOF or a reset on a *reused* socket before the first response byte
      is a server-initiated close between requests — the pool discards
      the socket and retries on a fresh one, transparently;
    * the same failure on a *fresh* socket is a real connect error and
      propagates to the engine's retry policy;
    * at most ``max_stale_retries`` transparent reconnects per request —
      a server resetting every fresh socket raises
      :class:`StaleRetriesExhausted` instead of looping forever.
    """

    def __init__(
        self,
        host: str,
        port: int,
        stats: Optional[ClientStats] = None,
        max_idle: int = 32,
        max_stale_retries: int = 3,
    ) -> None:
        self.host = host
        self.port = port
        self.stats = stats if stats is not None else ClientStats()
        self.max_idle = max(1, int(max_idle))
        self.max_stale_retries = max(0, int(max_stale_retries))
        self._idle: List[_PooledConnection] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle.

    async def _open(self) -> _PooledConnection:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.stats.connections_opened += 1
        return _PooledConnection(reader, writer)

    @staticmethod
    def _discard(conn: _PooledConnection) -> None:
        try:
            conn.writer.close()
        except Exception:
            pass

    def close(self) -> None:
        """Close every idle socket; in-flight checkouts self-discard."""
        self._closed = True
        while self._idle:
            self._discard(self._idle.pop())

    # ------------------------------------------------------------------
    # The request path.

    async def request(
        self,
        path: str,
        timeout: float = 5.0,
        headers: Optional[Mapping[str, str]] = None,
    ) -> HttpResponse:
        """One GET over a pooled (or fresh) keep-alive connection.

        Raises:
            asyncio.TimeoutError: the exchange (including any transparent
              stale-socket retry) exceeded ``timeout``.
            OSError: connect/reset failures on a fresh socket.
        """
        return await asyncio.wait_for(
            self._request(path, headers), timeout=timeout
        )

    async def _request(
        self, path: str, extra: Optional[Mapping[str, str]] = None
    ) -> HttpResponse:
        stale_retries = 0
        while True:
            reused = bool(self._idle)
            conn = self._idle.pop() if reused else await self._open()
            settled = False
            try:
                response, reuse_ok = await self._exchange(
                    conn, path, reused, extra
                )
                settled = True
            except _StaleConnection:
                settled = True
                self._discard(conn)
                self.stats.stale_retries += 1
                stale_retries += 1
                if stale_retries > self.max_stale_retries:
                    raise StaleRetriesExhausted(
                        f"{stale_retries} stale-connection retries for "
                        f"{path} (budget {self.max_stale_retries})"
                    )
                continue
            finally:
                if not settled:  # timeout/cancel/error: socket state unknown
                    self._discard(conn)
            conn.requests_served += 1
            self.stats.requests += 1
            if reused:
                self.stats.requests_on_reused += 1
            if reuse_ok and not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(conn)
            else:
                if not reuse_ok:
                    self.stats.connections_retired += 1
                self._discard(conn)
            return response

    async def _exchange(
        self,
        conn: _PooledConnection,
        path: str,
        reused: bool,
        extra: Optional[Mapping[str, str]] = None,
    ) -> Tuple[HttpResponse, bool]:
        started = time.perf_counter()
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "User-Agent: repro-loadgen\r\n"
            "Accept: application/json\r\n"
            f"{_extra_header_lines(extra)}"
            "\r\n"
        ).encode("ascii")
        try:
            conn.writer.write(request)
            await conn.writer.drain()
            status_line = await conn.reader.readline()
        except (ConnectionError, OSError) as exc:
            if reused:
                raise _StaleConnection() from exc
            raise
        if not status_line:
            # EOF before any response byte: between-requests close.
            if reused:
                raise _StaleConnection()
            raise OSError("server closed connection before responding")
        parts = status_line.decode("latin-1").split(" ", 2)
        if (
            len(parts) < 2
            or not parts[0].startswith("HTTP/")
            or not parts[1].isdigit()
        ):
            raise GarbledResponse(f"malformed status line {status_line!r}")
        version = parts[0]
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await conn.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if line == b"":
                raise asyncio.IncompleteReadError(b"", None)
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None and length.isdigit():
            try:
                body = await conn.reader.readexactly(int(length))
            except asyncio.IncompleteReadError as exc:
                raise TruncatedBody(int(length), len(exc.partial)) from exc
            framed = True
        else:
            body = await conn.reader.read()
            framed = False
        reuse_ok = (
            framed
            and version != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        response = HttpResponse(
            status=status,
            headers=headers,
            body=body,
            latency_seconds=time.perf_counter() - started,
            bytes_out=len(request),
        )
        return response, reuse_ok


class TokenBucket:
    """Open-loop pacing: tokens accrue at ``rate`` per second.

    ``acquire`` waits until a whole token is available, so request
    *starts* follow the configured arrival rate even when the service
    slows down — the property that makes open-loop numbers honest.
    """

    def __init__(self, rate: float, burst: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self._tokens = self.burst
        self._last = time.perf_counter()
        self._lock = asyncio.Lock()

    async def acquire(self) -> None:
        async with self._lock:
            while True:
                now = time.perf_counter()
                self._tokens = min(
                    self.burst, self._tokens + (now - self._last) * self.rate
                )
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                await asyncio.sleep((1.0 - self._tokens) / self.rate)


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a load run.

    Attributes:
        name: report/phase label ("steady", "saturation", ...).
        mode: "closed" (worker sessions) or "open" (token-bucket rate).
        duration_seconds: nominal phase length.
        workers: concurrent sessions (closed) or pool size (open).
        rate: open-loop arrival rate in req/s (ignored when closed).
        mix: persona-kind weights (normalized; see personas.parse_mix).
        think_scale: multiplier on persona think times (0 disables
          thinking entirely — the saturation setting).
        min_requests: keep going past duration_seconds until at least
          this many requests completed (still subject to the overrun
          bail-out), so short CI phases have statistical weight.
        retry_sheds: whether a 503/504 is retried after its Retry-After.
          True models a polite client riding out overload (the chaos
          phase); False records the shed and moves straight on — the
          saturation setting, where the point is to *measure* refusals,
          not to wait them out.
        validate_bodies: whether 200 bodies are JSON-parsed and run
          through the persona validators.  Saturation disables it so the
          single-threaded client can offer more load than the gate can
          admit; golden-drift pinning stays on either way (a byte
          compare is cheap).
        shard_index/shard_count: which slice of the phase's canonical
          persona roster this engine runs.  The roster (and therefore
          every persona id and request schedule) is a pure function of
          ``(name, workers, mix)``; a shard keeps positions where
          ``position % shard_count == shard_index``, so the union over
          all shards is exactly the unsharded persona set — the
          multi-process pool's seed-partition contract.
    """

    name: str
    mode: str  # "closed" | "open"
    duration_seconds: float
    workers: int
    mix: Mapping[str, float]
    rate: float = 0.0
    think_scale: float = 1.0
    min_requests: int = 0
    retry_sheds: bool = True
    validate_bodies: bool = True
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be closed|open, got {self.mode!r}")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError("open-loop phase needs rate > 0")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be > 0")
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}"
            )


class LoadEngine:
    """Runs phases of persona traffic against one host:port target.

    Args:
        host/port: the target service.
        seed: master seed; persona ``i`` of a phase derives its stream
          from ``(seed, "{phase}:{kind}:{i}")`` so schedules are stable
          per phase regardless of interleaving.
        expectations: pinned golden bodies keyed by path (the spawn
          harness pins ``/v1/experiments/<name>`` bodies from the
          store); a 200 whose body mismatches its pin is body drift.
        tracer: observability sink (counts land under ``loadgen.*``).
        policy: retry backoff; Retry-After (capped) takes precedence
          when larger.
        timeout: per-request client timeout, seconds.
        keepalive: reuse HTTP/1.1 connections via a per-phase
          :class:`ConnectionPool` (default); False opens one socket per
          request, the PR 6 behavior, for A/B capacity comparisons.
    """

    #: Statuses that are retried (with backoff / Retry-After).
    RETRYABLE = (503, 504)

    def __init__(
        self,
        host: str,
        port: int,
        catalog: Catalog,
        seed: int,
        expectations: Optional[Mapping[str, bytes]] = None,
        tracer: Optional[obs.Tracer] = None,
        policy: Optional[RetryPolicy] = None,
        timeout: float = 5.0,
        keepalive: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.catalog = catalog
        self.seed = int(seed)
        self.expectations = dict(expectations or {})
        self.tracer = tracer if tracer is not None else obs.Tracer()
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=1.0
        )
        self.timeout = timeout
        self.keepalive = bool(keepalive)
        self.client_stats = ClientStats()
        self._pool: Optional[ConnectionPool] = None
        self._etags: "OrderedDict[str, str]" = OrderedDict()
        self.personas: List[Persona] = []

    # ------------------------------------------------------------------
    # Public API.

    def run_phase(self, spec: PhaseSpec) -> PhaseMetrics:
        """Run one phase to completion (blocking; owns its event loop)."""
        return asyncio.run(self._run_phase(spec))

    def run_script(
        self,
        name: str,
        persona: Persona,
        planned: Sequence[PlannedRequest],
        retry_sheds: bool = True,
        validate_bodies: bool = True,
    ) -> PhaseMetrics:
        """Issue a fixed request script sequentially, one in flight.

        The chaos-net gate drives this: with keep-alive off and exactly
        one request (plus its retries) in flight at a time, the target's
        connection-accept order is a pure function of the script — which
        is what makes the proxy's fault-sequence digest replayable.
        """
        return asyncio.run(
            self._run_script(name, persona, planned, retry_sheds,
                             validate_bodies)
        )

    async def _run_script(
        self,
        name: str,
        persona: Persona,
        planned: Sequence[PlannedRequest],
        retry_sheds: bool,
        validate_bodies: bool,
    ) -> PhaseMetrics:
        metrics = PhaseMetrics(name)
        started = time.perf_counter()
        pool = (
            ConnectionPool(self.host, self.port, stats=self.client_stats)
            if self.keepalive
            else None
        )
        self._pool = pool
        try:
            for request in planned:
                outcome = await self._issue(
                    persona,
                    request,
                    retry_sheds=retry_sheds,
                    validate_bodies=validate_bodies,
                )
                metrics.record(outcome)
                self.tracer.count_root(f"loadgen.outcome.{outcome.outcome}")
        finally:
            if pool is not None:
                pool.close()
            self._pool = None
        metrics.duration_seconds = time.perf_counter() - started
        self.tracer.count_root("loadgen.phases")
        return metrics

    def schedule_digests(self) -> List[Dict[str, object]]:
        """Determinism fingerprints for every persona that ran."""
        return [persona.schedule_digest() for persona in self.personas]

    # ------------------------------------------------------------------
    # Phase internals.

    def _build_personas(self, spec: PhaseSpec) -> List[Persona]:
        personas: List[Persona] = []
        for position, (kind, persona_id) in enumerate(
            roster(spec.name, spec.workers, spec.mix)
        ):
            if position % spec.shard_count != spec.shard_index:
                continue
            personas.append(
                make_persona(kind, persona_id, self.seed, self.catalog)
            )
        return personas

    async def _run_phase(self, spec: PhaseSpec) -> PhaseMetrics:
        metrics = PhaseMetrics(spec.name)
        personas = self._build_personas(spec)
        self.personas.extend(personas)
        started = time.perf_counter()
        soft_deadline = started + spec.duration_seconds
        hard_deadline = started + spec.duration_seconds * _PHASE_OVERRUN_FACTOR

        def keep_going() -> bool:
            now = time.perf_counter()
            if now >= hard_deadline:
                return False
            if now < soft_deadline:
                return True
            return metrics.requests < spec.min_requests

        bucket = (
            TokenBucket(spec.rate, burst=max(1.0, spec.rate / 10.0))
            if spec.mode == "open"
            else None
        )
        lock = asyncio.Lock()

        async def session(persona: Persona) -> None:
            while keep_going():
                if bucket is not None:
                    await bucket.acquire()
                    if not keep_going():
                        return
                request = persona.next_request()
                outcome = await self._issue(
                    persona,
                    request,
                    retry_sheds=spec.retry_sheds,
                    validate_bodies=spec.validate_bodies,
                )
                async with lock:
                    metrics.record(outcome)
                self.tracer.count_root(f"loadgen.outcome.{outcome.outcome}")
                think = request.think_seconds * spec.think_scale
                if think > 0:
                    await asyncio.sleep(think)

        pool = (
            ConnectionPool(
                self.host, self.port, stats=self.client_stats,
                max_idle=max(8, spec.workers),
            )
            if self.keepalive
            else None
        )
        self._pool = pool
        try:
            await asyncio.gather(*(session(p) for p in personas))
        finally:
            if pool is not None:
                pool.close()
            self._pool = None
        metrics.duration_seconds = time.perf_counter() - started
        self.tracer.count_root("loadgen.phases")
        return metrics

    # ------------------------------------------------------------------
    # One request, with retries.

    async def _fetch(
        self, path: str, headers: Optional[Mapping[str, str]] = None
    ) -> HttpResponse:
        """One GET via the phase's keep-alive pool (or one-shot when the
        pool is off or no phase is running)."""
        if self._pool is not None:
            return await self._pool.request(
                path, timeout=self.timeout, headers=headers
            )
        # One-shot: each attempt dials its own socket for its one request
        # (counted even when the peer resets it during the handshake).
        self.client_stats.connections_opened += 1
        self.client_stats.requests += 1
        return await http_get(
            self.host, self.port, path, timeout=self.timeout, headers=headers
        )

    # ------------------------------------------------------------------
    # Conditional-GET bookkeeping.

    def _cached_etag(self, path: str) -> Optional[str]:
        etag = self._etags.get(path)
        if etag is not None:
            self._etags.move_to_end(path)
        return etag

    def _remember_etag(self, path: str, etag: str) -> None:
        self._etags[path] = etag
        self._etags.move_to_end(path)
        while len(self._etags) > _ETAG_CACHE_CAPACITY:
            self._etags.popitem(last=False)

    async def _issue(
        self,
        persona: Persona,
        request: PlannedRequest,
        retry_sheds: bool = True,
        validate_bodies: bool = True,
    ) -> Outcome:
        started = time.perf_counter()
        attempts = 0
        bytes_in = 0
        bytes_out = 0
        retry_after_seen = 0
        retry_after_missing = 0
        honored = 0.0
        last_status: Optional[int] = None
        last_outcome = "connect_error"
        detail = ""
        conditional_etag = (
            self._cached_etag(request.path) if request.conditional else None
        )
        extra_headers = (
            {"If-None-Match": conditional_etag}
            if conditional_etag is not None
            else None
        )
        for attempt in self.policy.attempts():
            attempts = attempt
            try:
                response = await self._fetch(request.path, extra_headers)
            except asyncio.TimeoutError:
                self.client_stats.stalled += 1
                last_status, last_outcome, detail = None, "client_timeout", "timeout"
                self.tracer.count_root("loadgen.client_timeout")
                continue
            except StaleRetriesExhausted as exc:
                # The pool already burned its own reconnect budget on
                # this request; stacking the policy's attempts on top
                # would defeat the bound.
                last_status, last_outcome = None, "retries_exhausted"
                detail = str(exc)
                break
            except TruncatedBody as exc:
                self.client_stats.truncated += 1
                last_status, last_outcome = None, "truncated"
                detail = str(exc)
                self.tracer.count_root("loadgen.truncated")
                await asyncio.sleep(self.policy.delay(attempt, request.path))
                continue
            except (OSError, asyncio.IncompleteReadError) as exc:
                if isinstance(exc, GarbledResponse):
                    self.client_stats.garbled += 1
                else:
                    self.client_stats.resets += 1
                last_status, last_outcome = None, "connect_error"
                detail = type(exc).__name__
                self.tracer.count_root("loadgen.connect_error")
                await asyncio.sleep(self.policy.delay(attempt, request.path))
                continue
            bytes_in += len(response.body)
            bytes_out += response.bytes_out
            last_status = response.status
            if response.status in self.RETRYABLE:
                retry_after = _parse_retry_after(response.headers)
                if retry_after is None:
                    # A 503/504 without a usable Retry-After is a broken
                    # shed — count it as a server error, not a polite one.
                    retry_after_missing += 1
                    last_outcome = "http_5xx"
                    detail = f"status {response.status} without Retry-After"
                else:
                    retry_after_seen += 1
                    last_outcome = "shed"
                    detail = f"status {response.status} Retry-After={retry_after}"
                if not retry_sheds:
                    break
                if attempt < self.policy.max_attempts:
                    backoff = self.policy.delay(attempt, request.path)
                    if retry_after is not None:
                        backoff = max(
                            backoff, min(float(retry_after), RETRY_AFTER_SLEEP_CAP)
                        )
                        honored += backoff
                    await asyncio.sleep(backoff)
                continue
            if response.status >= 500 and attempt < self.policy.max_attempts:
                # Generic 5xx (e.g. an injected internal error): retry on
                # the policy's backoff alone — only 503/504 speak
                # Retry-After.  A 5xx that survives every attempt is
                # classified below on the final lap.
                last_outcome = "http_5xx"
                detail = f"status {response.status}"
                await asyncio.sleep(self.policy.delay(attempt, request.path))
                continue
            last_outcome, detail = self._classify(
                persona,
                request,
                response,
                validate_bodies,
                sent_conditional=conditional_etag is not None,
            )
            break
        if (
            last_status is None
            and attempts >= self.policy.max_attempts
            and last_outcome in ("connect_error", "client_timeout", "truncated")
        ):
            # Every attempt in the budget died at the transport layer:
            # report the exhausted budget itself, so a reset storm reads
            # as what it is instead of one more generic connect error.
            detail = (
                f"retry budget exhausted after {attempts} attempts; "
                f"last {last_outcome}" + (f" ({detail})" if detail else "")
            )
            last_outcome = "retries_exhausted"
        if last_outcome == "retries_exhausted":
            self.tracer.count_root("loadgen.retries_exhausted")
        return Outcome(
            path=request.path,
            kind=request.kind,
            persona_id=persona.persona_id,
            outcome=last_outcome,
            status=last_status,
            latency_seconds=time.perf_counter() - started,
            attempts=attempts,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            retry_after_seen=retry_after_seen,
            retry_after_missing=retry_after_missing,
            retry_after_honored_seconds=honored,
            detail=detail,
        )

    def _classify(
        self,
        persona: Persona,
        request: PlannedRequest,
        response: HttpResponse,
        validate_bodies: bool = True,
        sent_conditional: bool = False,
    ) -> Tuple[str, str]:
        """Map a non-retryable response to an outcome kind + detail."""
        if response.status == 304:
            if sent_conditional:
                # The cached body is still current — nothing to pin or
                # validate; the matching ETag is the correctness check.
                self.tracer.count_root("loadgen.not_modified")
                return "not_modified", ""
            return "validation", "304 without If-None-Match"
        if response.status != 200:
            if 400 <= response.status < 500:
                return "http_4xx", f"status {response.status}"
            return "http_5xx", f"status {response.status}"
        etag = response.headers.get("etag")
        if etag:
            self._remember_etag(request.path, etag)
        expected = self.expectations.get(request.path)
        if expected is not None and response.body != expected:
            self.tracer.count_root("loadgen.body_drift")
            return (
                "body_drift",
                f"body sha256 {_short_digest(response.body)} != "
                f"pinned {_short_digest(expected)}",
            )
        if not validate_bodies:
            return "ok", ""
        try:
            body = json.loads(response.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return "validation", f"unparseable body: {type(exc).__name__}"
        reason = persona.validate(request, body)
        if reason is not None:
            self.tracer.count_root("loadgen.validation")
            return "validation", reason
        return "ok", ""


def _parse_retry_after(headers: Mapping[str, str]) -> Optional[int]:
    """Integer seconds from a Retry-After header, else None.

    The serving contract is delta-seconds only (no HTTP dates); a
    missing, non-numeric, or non-positive value counts as missing,
    because a client can't act on it.
    """
    raw = headers.get("retry-after")
    if raw is None:
        return None
    try:
        value = int(raw.strip())
    except ValueError:
        return None
    return value if value >= 1 else None


def _short_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:12]


def discover_catalog(host: str, port: int, timeout: float = 5.0) -> Catalog:
    """Build a Catalog from the live service's index endpoints.

    Synchronous because discovery happens once, before the event loop
    exists.  Only experiments whose index status is ``available`` become
    researcher targets — paging a known-missing result would just
    measure 404s.
    """
    lists_index = fetch_json(host, port, "/v1/lists", timeout=timeout)
    experiments_index = fetch_json(host, port, "/v1/experiments", timeout=timeout)
    providers = tuple(
        str(row["id"]) for row in lists_index.get("providers", [])
    )
    experiments = tuple(
        str(row["id"])
        for row in experiments_index.get("experiments", [])
        if row.get("status") == "available"
    )
    return Catalog(
        providers=providers,
        days=int(lists_index.get("days", 0)),
        experiments=experiments,
        default_k=int(lists_index.get("default_k", 100)),
        max_k=int(lists_index.get("max_k", 1000)),
    )
