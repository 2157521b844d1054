"""The shared gate harness: gate records, rendering, manifest, fetch."""

from __future__ import annotations

import json
import socket
import threading

from repro.gates import GateRun, fetch, free_port, replay_gate


def test_gate_run_renders_every_gate_and_writes_sorted_manifest(tmp_path):
    run = GateRun("demo", lines=["fault digest: abc"])
    run.manifest = {"seed": 7, "alpha": {"z": 1, "a": 2}}
    assert run.check("availability", True, 0.995, 0.99, "120 requests")
    assert not run.check("drain", False, detail="child exited 1")
    run.checks.append(replay_gate("digest_replay", "abc", "abd"))
    path = tmp_path / "out" / "manifest.json"
    run.write_manifest(str(path))

    rendered = run.render()
    assert rendered.splitlines()[0] == "fault digest: abc"
    assert "  [PASS] availability: 0.995 (threshold 0.99) 120 requests" in rendered
    assert "  [FAIL] drain: 0 (threshold 1) child exited 1" in rendered
    assert "  [FAIL] digest_replay:" in rendered
    assert rendered.endswith("demo: 1/3 gates passed")
    assert not run.ok

    text = path.read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert manifest["ok"] is False
    assert [gate["name"] for gate in manifest["gates"]] == [
        "availability", "drain", "digest_replay",
    ]
    assert manifest["alpha"] == {"a": 2, "z": 1}
    assert f"manifest: {path}" in run.render()


def test_fetch_refused_is_none_and_short_body_is_flagged():
    assert fetch("127.0.0.1", free_port(), "/healthz", timeout=2.0) is None

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def short_response():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort")

    server = threading.Thread(target=short_response, daemon=True)
    server.start()
    try:
        response = fetch("127.0.0.1", listener.getsockname()[1], "/x", timeout=5.0)
    finally:
        server.join(timeout=5.0)
        listener.close()
    assert not server.is_alive()
    assert response is not None
    assert response.status == 200
    assert response.truncated
    assert response.body == b""
