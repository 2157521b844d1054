"""Keep-alive protocol conformance for the loadgen connection pool.

Three contracts, each against a scripted server the test controls:

* persistence — sequential requests ride one socket, so the socket
  count stays far below the request count;
* server-initiated close — EOF on a reused socket between requests is
  a transparent reconnect (a stale retry), never a failed sample;
* ``Connection: close`` — a response carrying the header retires its
  socket, and the next request opens a fresh one.

Plus the engine-level integration: a closed-loop phase with keep-alive
on reuses connections, and with keep-alive off it opens (and counts)
one socket per request.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.loadgen.engine import (
    ClientStats,
    ConnectionPool,
    LoadEngine,
    PhaseSpec,
)
from repro.loadgen.netchaos import ScriptPersona
from repro.loadgen.personas import Catalog, PlannedRequest

_CATALOG = Catalog(providers=("alexa",), days=4, experiments=("lg1",))

#: Per-path default bodies that satisfy the HealthProbe validators, so
#: engine-level phases run clean against the stub.
_BODIES = {
    "/healthz": {"status": "alive"},
    "/readyz": {"status": "ready"},
    "/metricz": {"requests": 1, "uptime_seconds": 1.0},
}


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 stub: scripted responses first, then per-path defaults.

    ``connection_count`` (on the per-test subclass) counts TCP
    connections, not requests — the keep-alive assertions compare it
    against how many requests rode those connections.
    """

    protocol_version = "HTTP/1.1"
    connection_count = 0
    script = {}  # path -> list of (status, headers, body) consumed in order

    def setup(self):
        super().setup()
        type(self).connection_count += 1

    def do_GET(self):
        path = self.path.split("?", 1)[0]
        queue = self.script.get(path)
        if queue:
            status, headers, body = queue.pop(0)
        else:
            payload = _BODIES.get(path, {"status": "alive"})
            status, headers, body = 200, {}, json.dumps(payload).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def ka_server():
    handler = type(
        "Handler", (_KeepAliveHandler,), {"script": {}, "connection_count": 0}
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, handler
    server.shutdown()
    server.server_close()


def _drive_pool(host, port, paths, **pool_kwargs):
    """Run one pool over ``paths`` sequentially inside a single loop."""
    stats = ClientStats()

    async def go():
        pool = ConnectionPool(host, port, stats=stats, **pool_kwargs)
        try:
            return [await pool.request(path) for path in paths]
        finally:
            pool.close()

    return asyncio.run(go()), stats


def _read_request(conn):
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            raise OSError("client went away mid-request")
        data += chunk
    return data


class _RudeServer(threading.Thread):
    """Answers each request with a keep-alive-looking HTTP/1.1 200 —
    Content-Length framing, no ``Connection`` header — then slams the
    socket shut.  Every pooled reuse attempt therefore hits EOF before
    the first response byte: the exact stale-socket case."""

    def __init__(self, respond_first=True):
        super().__init__(daemon=True)
        self.respond_first = respond_first
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            with conn:
                if not self.respond_first:
                    continue  # accept-then-close: fresh-socket EOF
                try:
                    _read_request(conn)
                    body = json.dumps({"status": "alive"}).encode()
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode() +
                        b"\r\n\r\n" + body
                    )
                except OSError:
                    pass

    def stop(self):
        self._halt.set()
        self.join(timeout=2.0)
        self.sock.close()


class _VersionedServer(threading.Thread):
    """Serves every request on a connection with the given HTTP version
    in the status line, and never closes first — so any retirement the
    client performs is the client's own protocol decision."""

    def __init__(self, version=b"HTTP/1.1"):
        super().__init__(daemon=True)
        self.version = version
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(1.0)
                try:
                    while not self._halt.is_set():
                        _read_request(conn)
                        body = json.dumps({"status": "alive"}).encode()
                        conn.sendall(
                            self.version + b" 200 OK\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: " + str(len(body)).encode() +
                            b"\r\n\r\n" + body
                        )
                except OSError:
                    pass

    def stop(self):
        self._halt.set()
        self.join(timeout=2.0)
        self.sock.close()


class TestConnectionPersistence:
    def test_socket_count_far_below_request_count(self, ka_server):
        server, handler = ka_server
        requests = 40
        responses, stats = _drive_pool(
            "127.0.0.1", server.server_address[1], ["/healthz"] * requests
        )
        assert all(r.status == 200 for r in responses)
        assert stats.requests == requests
        assert stats.connections_opened == 1
        assert stats.requests_on_reused == requests - 1
        assert handler.connection_count == 1

    def test_responses_still_parse_correctly_when_reused(self, ka_server):
        server, _ = ka_server
        responses, _ = _drive_pool(
            "127.0.0.1", server.server_address[1],
            ["/healthz", "/readyz", "/metricz"],
        )
        assert json.loads(responses[0].body) == {"status": "alive"}
        assert json.loads(responses[1].body) == {"status": "ready"}
        assert json.loads(responses[2].body)["requests"] == 1


class TestConnectionCloseHeader:
    def test_close_header_retires_the_socket(self, ka_server):
        server, handler = ka_server
        body = json.dumps({"status": "alive"}).encode()
        handler.script["/healthz"] = [
            (200, {"Connection": "close"}, body),
        ]
        responses, stats = _drive_pool(
            "127.0.0.1", server.server_address[1],
            ["/healthz", "/healthz", "/healthz"],
        )
        assert [r.status for r in responses] == [200, 200, 200]
        # Request 1 retired its socket; 2 opened fresh; 3 reused 2's.
        assert stats.connections_retired == 1
        assert stats.connections_opened == 2
        assert stats.requests_on_reused == 1
        assert stats.stale_retries == 0
        assert handler.connection_count == 2

    def test_http_10_response_is_never_reused(self):
        # An HTTP/1.0 status line means no implicit keep-alive, even
        # when the server leaves the socket open: the pool must retire
        # it and open a fresh connection for the next request.
        server = _VersionedServer(b"HTTP/1.0")
        server.start()
        try:
            responses, stats = _drive_pool(
                "127.0.0.1", server.port, ["/healthz", "/healthz"]
            )
            assert [r.status for r in responses] == [200, 200]
            assert stats.connections_opened == 2
            assert stats.connections_retired == 2
            assert stats.requests_on_reused == 0
        finally:
            server.stop()


class TestServerInitiatedClose:
    def test_stale_socket_reconnects_transparently(self):
        server = _RudeServer()
        server.start()
        try:
            responses, stats = _drive_pool(
                "127.0.0.1", server.port, ["/healthz"] * 3
            )
            # Every request succeeded even though the server closed the
            # socket after each response: stale reuse attempts became
            # fresh connections, not failed samples.
            assert [r.status for r in responses] == [200, 200, 200]
            assert stats.requests == 3
            assert stats.connections_opened == 3
            assert stats.stale_retries == 2
            assert stats.requests_on_reused == 0
        finally:
            server.stop()

    def test_eof_on_fresh_socket_is_a_real_error(self):
        server = _RudeServer(respond_first=False)
        server.start()
        try:
            with pytest.raises(OSError):
                _drive_pool("127.0.0.1", server.port, ["/healthz"])
        finally:
            server.stop()


class TestEngineKeepAlive:
    def _phase(self):
        return PhaseSpec(
            name="ka", mode="closed", duration_seconds=0.6, workers=4,
            mix={"probes": 1.0}, think_scale=0.0,
        )

    def test_phase_reuses_connections(self, ka_server):
        server, handler = ka_server
        engine = LoadEngine(
            "127.0.0.1", server.server_address[1], _CATALOG, seed=3
        )
        metrics = engine.run_phase(self._phase())
        assert metrics.requests > 20
        assert metrics.by_outcome["ok"] == metrics.requests
        stats = engine.client_stats
        assert stats.requests == metrics.attempts
        # The whole phase rode (about) one socket per session.
        assert stats.connections_opened <= 8
        assert stats.requests_on_reused >= metrics.requests - 8
        assert handler.connection_count == stats.connections_opened

    def test_no_keepalive_opens_a_socket_per_request(self, ka_server):
        server, handler = ka_server
        engine = LoadEngine(
            "127.0.0.1", server.server_address[1], _CATALOG, seed=3,
            keepalive=False,
        )
        metrics = engine.run_phase(self._phase())
        assert metrics.requests > 0
        # No pool: every attempt opened, and was counted on, its own
        # socket, and the server saw each of them.
        stats = engine.client_stats
        assert stats.requests == stats.connections_opened == metrics.attempts
        assert stats.requests_on_reused == 0
        assert handler.connection_count >= metrics.requests

    def test_no_keepalive_script_counts_requests_and_sockets(self, ka_server):
        server, handler = ka_server
        engine = LoadEngine(
            "127.0.0.1", server.server_address[1], _CATALOG, seed=3,
            keepalive=False,
        )
        script = [
            PlannedRequest(path="/healthz", kind="health", think_seconds=0.0,
                           persona_id="script", conditional=False)
            for _ in range(12)
        ]
        metrics = engine.run_script(
            "script", ScriptPersona("script", 3, _CATALOG), script
        )
        assert metrics.by_outcome["ok"] == 12
        stats = engine.client_stats
        assert stats.requests == stats.connections_opened == 12
        assert handler.connection_count == 12
