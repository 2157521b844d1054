"""Serve-side transport hardening: header limits, client_gone
accounting, and the connection-lifetime reaper.

Contracts:

* requests past the service's header count/size limits answer 431 in
  the canonical envelope (token ``headers_too_large``) and close;
* stdlib parse-level rejects (bad request line, oversized request
  line) also answer in the envelope — never the stdlib HTML page — and
  every stdlib path keeps its status line, field order and body;
* a malformed header line answers 400 and closes, counted once as a
  protocol error;
* a client vanishing mid-response is a ``client_gone`` outcome in
  ``/metricz``, not breaker food and not a handler error;
* a connection that outlives ``connection_lifetime_seconds`` is
  reaped even when it keeps trickling bytes (slowloris), and the reap
  is counted.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.gates import fetch
from repro.runner import run_experiments
from repro.serve.server import MetricsService, ServeSettings
from repro.store import ArtifactStore
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
_NAMES = ("hd1", "hd2")


def _make_fn(name):
    def fn(ctx) -> ExperimentResult:
        return ExperimentResult(
            name=name, title=name.title(),
            data={"which": name}, text=name,
        )

    return fn


@pytest.fixture(scope="module")
def tiny_registry():
    for name in _NAMES:
        SPECS[name] = ExperimentSpec(
            id=name, title=name.title(), fn=_make_fn(name),
            tags=("test",), required_artifacts=(),
        )
    yield list(_NAMES)
    for name in _NAMES:
        SPECS.pop(name, None)


@pytest.fixture(scope="module")
def served_cache(tiny_registry, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("hardening-cache"))
    _payloads, manifest, _path = run_experiments(
        list(tiny_registry), _CONFIG, cache_dir=cache
    )
    assert not manifest.failures
    return cache


def _settings(**overrides):
    base = dict(
        port=0, max_inflight=4, queue_depth=4, deadline_ms=2000.0,
        breaker_threshold=2, breaker_cooldown_seconds=0.2,
        drain_seconds=2.0,
    )
    base.update(overrides)
    return ServeSettings(**base)


def _start(served_cache, names, **overrides):
    svc = MetricsService(
        _CONFIG, ArtifactStore(served_cache),
        settings=_settings(**overrides), names=list(names),
    )
    svc.warm()
    svc.start()
    return svc


@pytest.fixture()
def service(served_cache, tiny_registry):
    svc = _start(served_cache, tiny_registry)
    yield svc
    if not svc.draining:
        svc.drain()


def _raw_exchange(svc, payload: bytes, timeout: float = 5.0) -> bytes:
    """Every byte the service sends for ``payload`` before it closes the
    connection; one it leaves open fails on the timeout.  A reset after
    the answer (the service closed with request bytes unread) is a close
    too."""
    with socket.create_connection((svc.host, svc.port), timeout=timeout) as conn:
        conn.sendall(payload)
        data = b""
        while True:
            try:
                chunk = conn.recv(65536)
            except ConnectionResetError:
                return data
            if not chunk:
                return data
            data += chunk


def _parse(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head, json.loads(body) if body else None


class TestHeaderLimits:
    def test_too_many_headers_answer_431_envelope(self, service):
        extras = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(70))
        raw = _raw_exchange(
            service,
            (
                "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                f"{extras}Connection: close\r\n\r\n"
            ).encode(),
        )
        status, head, body = _parse(raw)
        assert status == 431
        assert body["error"] == "headers_too_large"
        assert b"Connection: close" in head

    def test_oversized_header_bytes_answer_431_envelope(self, service):
        big = "x" * 20000  # under the stdlib 64 KiB line cap, over ours
        raw = _raw_exchange(
            service,
            (
                "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                f"X-Big: {big}\r\nConnection: close\r\n\r\n"
            ).encode(),
        )
        status, _head, body = _parse(raw)
        assert status == 431
        assert body["error"] == "headers_too_large"

    def test_within_limits_still_serves(self, service):
        extras = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(10))
        raw = _raw_exchange(
            service,
            (
                "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                f"{extras}Connection: close\r\n\r\n"
            ).encode(),
        )
        status, _head, body = _parse(raw)
        assert status == 200
        assert body["status"] == "alive"

    def test_limited_requests_are_counted(self, service):
        extras = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(70))
        _raw_exchange(
            service,
            (
                "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                f"{extras}Connection: close\r\n\r\n"
            ).encode(),
        )
        metrics = json.loads(
            fetch(service.host, service.port, "/metricz").body
        )
        assert metrics["connections"]["max_header_count"] == 64


class TestProtocolErrors:
    def test_bad_request_line_answers_in_envelope(self, service):
        raw = _raw_exchange(service, b"GARBAGE\r\n\r\n")
        status, head, body = _parse(raw)
        assert status == 400
        assert body["error"] == "bad_request"
        assert b"Content-Type: application/json" in head

    def test_protocol_errors_are_counted(self, service):
        _raw_exchange(service, b"GARBAGE\r\n\r\n")
        metrics = json.loads(
            fetch(service.host, service.port, "/metricz").body
        )
        assert metrics["requests"]["protocol_errors"] >= 1


def _responses(raw: bytes, head_only: bool = False):
    """``[(status line, field names)]`` of each response head in ``raw``
    (an interim 100 first), and every byte after the last head: the
    last body, which must frame by its ``Content-Length`` unless
    ``head_only``, or a bare HTTP/0.9 body."""
    heads, length = [], None
    while raw.startswith(b"HTTP/"):
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = [line.split(": ", 1) for line in lines]
        heads.append((status_line, [name for name, _value in fields]))
        length = dict(fields).get("Content-Length")
    if length is not None and not head_only:
        assert int(length) == len(raw), "the body does not frame"
    return heads, raw


#: Malformed head lines, each answered 400.  Each answered 200 while the
#: email parser read the head: it took a line it could not parse, and
#: every line after it, as a body, kept a NUL, and kept an obs-fold's
#: CRLF inside the value.
MALFORMED = [
    # One colon-less line hid 80 lines from the 64-line limit.
    ("colon-less line before 80 lines", "/healthz",
     "Bad Line\r\n" + "".join(f"X-Pad-{i}: {i}\r\n" for i in range(80))),
    # ... and an If-None-Match from the conditional-GET check.
    ("line with no colon", "/v1/lists/alexa/1?k=5",
     "Bad Line\r\nIf-None-Match: *\r\n"),
    ("space before the colon", "/v1/lists/alexa/1?k=5",
     "If-None-Match : *\r\n"),
    ("bare CR inside a value", "/v1/lists/alexa/1?k=5",
     "X-Note: a\rb\r\nIf-None-Match: *\r\n"),
    ("obs-fold continuation", "/healthz",
     "X-Note: a\r\n  b\r\n"),
    ("NUL inside a value", "/healthz",
     "X-Note: a\x00b\r\n"),
]


class TestMalformedHeaderLines:
    @pytest.mark.parametrize("case, path, lines", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_malformed_line_answers_400_and_closes(self, service, case,
                                                   path, lines):
        raw = _raw_exchange(
            service,
            f"GET {path} HTTP/1.1\r\nHost: t\r\n{lines}\r\n".encode("latin-1"),
        )
        heads, body = _responses(raw)
        assert [status for status, _names in heads] == ["HTTP/1.1 400 Bad Request"]
        assert heads[0][1][-1] == "Connection"
        assert json.loads(body)["error"] == "bad_request"
        requests = json.loads(
            fetch(service.host, service.port, "/metricz").body
        )["requests"]
        assert requests["protocol_errors"] == 1
        assert requests["total"] == 0


_ERROR_FIELDS = ["Server", "Date", "Content-Type", "Content-Length", "Connection"]
_OK_FIELDS = ["Server", "Date", "Content-Type", "Content-Length"]

#: The stdlib's answers, as the email-parser head answered them: the
#: request, each response's status line and field names, the last body.
STDLIB_PATHS = [
    ("414", b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
     [("HTTP/1.1 414 Request-URI Too Long", _ERROR_FIELDS)],
     b'{"detail": "414", "error": "bad_request"}'),
    ("431 line too long",
     b"GET /healthz HTTP/1.1\r\nX-Big: " + b"x" * 70000 + b"\r\n\r\n",
     [("HTTP/1.1 431 Request Header Fields Too Large", _ERROR_FIELDS)],
     b'{"detail": "Line too long", "error": "headers_too_large"}'),
    ("431 past 100 lines",
     b"GET /healthz HTTP/1.1\r\n"
     + b"".join(b"X-Pad-%d: %d\r\n" % (i, i) for i in range(100)) + b"\r\n",
     [("HTTP/1.1 431 Request Header Fields Too Large", _ERROR_FIELDS)],
     b'{"detail": "Too many headers", "error": "headers_too_large"}'),
    ("400 bad version", b"GET / HTTP/1.x\r\n\r\n",
     [("HTTP/1.1 400 Bad Request", _ERROR_FIELDS)],
     b'{"detail": "Bad request version (\'HTTP/1.x\')", "error": "bad_request"}'),
    ("505", b"GET / HTTP/2.0\r\n\r\n",
     [("HTTP/1.1 505 HTTP Version Not Supported", _ERROR_FIELDS)],
     b'{"detail": "Invalid HTTP version (2.0)", "error": "internal"}'),
    ("501", b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
     [("HTTP/1.1 501 Not Implemented", _ERROR_FIELDS)],
     b'{"detail": "Unsupported method (\'POST\')", "error": "internal"}'),
    ("HTTP/0.9", b"GET /healthz\r\n\r\n", [], b'{"status": "alive"}'),
    ("HTTP/1.0", b"GET /healthz HTTP/1.0\r\n\r\n",
     [("HTTP/1.1 200 OK", _OK_FIELDS)], b'{"status": "alive"}'),
    ("Expect: 100-continue",
     b"GET //healthz HTTP/1.1\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n",
     [("HTTP/1.1 100 Continue", []), ("HTTP/1.1 200 OK", _OK_FIELDS)],
     b'{"status": "alive"}'),
    ("HEAD", b"HEAD /v1/experiments/hd1 HTTP/1.1\r\nConnection: close\r\n\r\n",
     [("HTTP/1.1 200 OK", _OK_FIELDS + ["X-Repro-Source", "ETag"])], b""),
]


class TestStdlibPaths:
    @pytest.mark.parametrize("case, request_bytes, heads, body", STDLIB_PATHS,
                             ids=[row[0] for row in STDLIB_PATHS])
    def test_answer_bytes(self, service, case, request_bytes, heads, body):
        raw = _raw_exchange(service, request_bytes)
        assert _responses(raw, head_only=case == "HEAD") == (heads, body)


class TestClientGone:
    def test_broken_pipe_mid_response_counts_client_gone(self, service):
        class _GoneWriter:
            def write(self, data):
                raise BrokenPipeError("client went away")

        class _GoneHandler:
            path = "/v1/experiments/hd1"
            headers = {}
            command = "GET"
            close_connection = False
            request_version = "HTTP/1.1"
            # The response is one write; the client is gone by then.
            wfile = _GoneWriter()

        service.handle(_GoneHandler())  # must not raise
        metrics = json.loads(
            fetch(service.host, service.port, "/metricz").body
        )
        assert metrics["requests"]["client_gone"] == 1
        # The breaker never saw it: store state untouched.
        assert metrics["breaker"]["state"] == "closed"


class TestLifetimeReaper:
    def test_slowloris_connection_is_reaped(self, served_cache, tiny_registry):
        svc = _start(
            served_cache, tiny_registry,
            idle_timeout_seconds=30.0,
            connection_lifetime_seconds=0.4,
        )
        try:
            with socket.create_connection((svc.host, svc.port), timeout=5.0) as conn:
                conn.settimeout(5.0)
                # Trickle a never-finishing request: the idle timeout
                # alone would keep waiting, the lifetime bound must not.
                conn.sendall(b"GET /healthz HTTP/1.1\r\n")
                deadline = time.time() + 5.0
                reaped = False
                while time.time() < deadline:
                    try:
                        conn.sendall(b"X-Drip: 1\r\n")
                    except OSError:
                        reaped = True
                        break
                    try:
                        if conn.recv(4096) == b"":
                            reaped = True
                            break
                    except socket.timeout:
                        pass
                    except OSError:
                        reaped = True
                        break
                    time.sleep(0.1)
                assert reaped, "lifetime reaper never closed the connection"
            metrics = json.loads(fetch(svc.host, svc.port, "/metricz").body)
            assert metrics["connections"]["reaped"] >= 1
            assert metrics["connections"]["lifetime_seconds"] == 0.4
        finally:
            if not svc.draining:
                svc.drain()

    def test_active_connections_track_register_unregister(self, service):
        with socket.create_connection((service.host, service.port), timeout=3.0):
            time.sleep(0.2)
            assert service.active_connections >= 1
        time.sleep(0.3)
        metrics = json.loads(
            fetch(service.host, service.port, "/metricz").body
        )
        assert metrics["connections"]["idle_timeout_seconds"] == 30.0
