"""The request head and response bytes against the stdlib as reference.

* the head reader parses every well-formed header block as
  ``http.client.parse_headers`` does, and stops where it stops;
* the one response writer produces the bytes ``send_response``,
  ``send_header``, ``end_headers`` and a body write produced, for every
  status the stdlib names;
* the writer, its ``Date`` cache and keep-alive framing hold under
  concurrent clients.
"""

from __future__ import annotations

import io
import json
import socket
import sys
import threading
import time
from email.utils import formatdate
from http.client import parse_headers
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.experiments import SPECS, ExperimentResult, ExperimentSpec
from repro.gates import fetch
from repro.runner import run_experiments
from repro.serve.server import (
    MetricsService,
    ServeSettings,
    _BadHead,
    _read_head,
    _RequestHandler,
)
from repro.store import ArtifactStore
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
_NAMES = ("wire1", "wire2")

# ---------------------------------------------------------------------------
# The head reader against http.client.parse_headers.

_FIELD_NAMES = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                  exclude_characters=":"),
    min_size=1, max_size=12,
)
_FIELD_VALUES = st.text(
    st.characters(max_codepoint=0xFF, exclude_characters="\r\n\x00"),
    max_size=24,
)
_FIELD_LINES = st.lists(
    st.tuples(_FIELD_NAMES, st.sampled_from([":", ": ", ":\t", ": \t "]),
              _FIELD_VALUES, st.sampled_from(["\r\n", "\n"])),
    max_size=12,
)
_END = st.sampled_from(["\r\n", "\n"])


@given(lines=_FIELD_LINES, end=_END)
def test_head_parses_as_the_stdlib_parses(lines, end):
    head = "".join(name + colon + value + eol
                   for name, colon, value, eol in lines) + end
    raw = head.encode("latin-1") + b"GET /next HTTP/1.1\r\n"
    ours, reference = io.BytesIO(raw), io.BytesIO(raw)
    message = _read_head(ours)
    expected = parse_headers(reference)
    assert message.items() == expected.items()
    for name, _colon, _value, _eol in lines:
        assert message.get(name) == expected.get(name)
    # Both stop at the blank line: the next request is left unread.
    assert ours.tell() == reference.tell() == len(head.encode("latin-1"))


@pytest.mark.parametrize("head", [
    b"X-Note: a\r",  # a bare CR, then the peer's EOF
    b"X-Note: a\r\r\n\r\n",  # a CR left before the line ending
    b": no name\r\n\r\n",
    b"\tfolded first\r\n\r\n",
    b"X-Note\x80: a\r\n\r\n",
])
def test_malformed_head_lines_answer_400(head):
    with pytest.raises(_BadHead) as bad:
        _read_head(io.BytesIO(head))
    assert bad.value.args[0] == 400


# ---------------------------------------------------------------------------
# The response writer against the stdlib's send_* calls.


class _Reference(_RequestHandler):
    """The stdlib path the service wrote responses through: headers
    buffered by ``send_header``, the head flushed by ``end_headers``,
    the body written after it.  Built without a connection."""

    def __init__(self, request_version: str, date: str) -> None:
        self.request_version = request_version
        self.requestline = "GET / " + request_version
        self.close_connection = False
        self.wfile = io.BytesIO()
        self._date = date

    def date_time_string(self, timestamp=None):
        return self._date


def _reference_bytes(status, body, headers, draining, head_only,
                     request_version, date):
    handler = _Reference(request_version, date)
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    for key, value in headers.items():
        handler.send_header(key, value)
    if draining and "Connection" not in headers:
        handler.send_header("Connection", "close")
        handler.close_connection = True
    handler.end_headers()
    if not head_only:
        handler.wfile.write(body)
    return handler.wfile.getvalue(), handler.close_connection


class _Written:
    """What the service's writer sees of a handler."""

    def __init__(self, request_version: str) -> None:
        self.request_version = request_version
        self.close_connection = False
        self.wfile = io.BytesIO()


_HEADER_SETS = [
    {},
    {"ETag": '"e1"'},
    {"X-Repro-Source": "store", "ETag": '"e1"'},
    {"Retry-After": "3"},
    {"Connection": "close"},
    {"Connection": "keep-alive"},
]


@pytest.fixture()
def idle_service(tmp_path):
    return MetricsService(_CONFIG, ArtifactStore(tmp_path),
                          settings=ServeSettings(port=0), names=[])


@pytest.mark.parametrize("status", sorted(BaseHTTPRequestHandler.responses))
def test_response_bytes_match_the_stdlib(idle_service, status):
    body = b'{"status": "alive"}'
    for headers in _HEADER_SETS:
        for draining in (False, True):
            for head_only in (False, True):
                for version in ("HTTP/1.1", "HTTP/1.0", "HTTP/0.9"):
                    idle_service._draining = draining
                    written = _Written(version)
                    idle_service._respond(written, int(status), body,
                                          dict(headers), head_only)
                    # Pin the reference's Date to the second the writer
                    # formatted.
                    second, _line = idle_service._date
                    expected = _reference_bytes(
                        int(status), body, headers, draining, head_only,
                        version, formatdate(second, usegmt=True))
                    assert (written.wfile.getvalue(),
                            written.close_connection) == expected


def test_date_line_follows_the_clock(idle_service):
    idle_service._date = (1, b"Date: Thu, 01 Jan 1970 00:00:01 GMT\r\n")
    before = int(time.time())
    line = idle_service._date_line()
    after = int(time.time())
    assert line in {b"Date: %s\r\n" % formatdate(second, usegmt=True).encode()
                    for second in range(before, after + 1)}


# ---------------------------------------------------------------------------
# Concurrent keep-alive clients.


def _make_fn(name):
    def fn(ctx) -> ExperimentResult:
        return ExperimentResult(
            name=name, title=name.title(),
            data={"which": name, "n_sites": ctx.world.n_sites},
            text=f"{name} over {ctx.world.n_sites} sites",
        )

    return fn


@pytest.fixture(scope="module")
def served_cache(tmp_path_factory):
    for name in _NAMES:
        SPECS[name] = ExperimentSpec(
            id=name, title=name.title(), fn=_make_fn(name),
            tags=("test",), required_artifacts=(),
        )
    cache = str(tmp_path_factory.mktemp("wire-cache"))
    _payloads, manifest, _path = run_experiments(list(_NAMES), _CONFIG,
                                                 cache_dir=cache)
    assert not manifest.failures
    yield cache
    for name in _NAMES:
        SPECS.pop(name, None)


@pytest.fixture()
def live_service(served_cache):
    svc = MetricsService(
        _CONFIG, ArtifactStore(served_cache),
        settings=ServeSettings(port=0, deadline_ms=60000.0, drain_seconds=2.0),
        names=list(_NAMES),
    )
    svc.warm()
    svc.start()
    yield svc
    svc.drain(reason="test")


_PATHS = [
    "/v1/lists/alexa/0?k=5", "/v1/lists/tranco/1?k=20",
    "/v1/lists/umbrella/2?k=50", "/v1/lists/alexa/diff?from=0&to=1&k=10",
    "/v1/experiments/wire1", "/v1/experiments/wire2", "/v1/experiments",
    "/nope", "/v1/experiments/nope", "/v1/lists/nope/0",
]

_CLIENTS = 8
_REQUESTS_PER_CLIENT = 250


def _read_framed(reader):
    """``(status, body)`` of one response, the body exactly its
    ``Content-Length``: a wrong length leaves the next read off frame."""
    status = int(reader.readline().split(b" ", 2)[1])
    fields = {}
    while True:
        line = reader.readline()
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    return status, reader.read(int(fields["content-length"]))


def test_concurrent_keepalive_clients_frame_exactly(live_service):
    svc = live_service
    expected = {}
    for path in _PATHS:
        response = fetch(svc.host, svc.port, path)
        expected[path] = (response.status, response.body,
                          response.headers.get("etag"))
    recorded = len(_PATHS)
    failures = []

    def client(index):
        try:
            with socket.create_connection((svc.host, svc.port),
                                          timeout=30.0) as conn, \
                    conn.makefile("rb") as reader:
                for i in range(_REQUESTS_PER_CLIENT):
                    path = _PATHS[(index + i) % len(_PATHS)]
                    status, body, etag = expected[path]
                    revalidate = etag is not None and i % 3 == 0
                    last = i == _REQUESTS_PER_CLIENT - 1
                    conn.sendall(
                        f"GET {path} HTTP/1.1\r\nHost: t\r\n".encode()
                        + (f"If-None-Match: {etag}\r\n".encode()
                           if revalidate else b"")
                        + (b"Connection: close\r\n" if last else b"")
                        + b"\r\n"
                    )
                    got = _read_framed(reader)
                    want = (304, b"") if revalidate else (status, body)
                    if got != want:
                        failures.append((path, revalidate, got))
                # Nothing follows the last framed response.
                if reader.read() != b"":
                    failures.append(("trailing bytes", index))
        except Exception as error:  # reported by the failures assert
            failures.append(("client error", index, repr(error)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    deadline = time.monotonic() + 10.0
    while svc.active_connections:
        assert time.monotonic() < deadline, "client connections still open"
        time.sleep(0.002)
    metrics = json.loads(fetch(svc.host, svc.port, "/metricz").body)
    assert metrics["requests"]["total"] == (
        recorded + _CLIENTS * _REQUESTS_PER_CLIENT)
