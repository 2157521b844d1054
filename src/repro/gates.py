"""The harness every acceptance gate runs on.

The five gates — ``repro chaos``, ``repro serve --selftest``, ``repro
loadgen --spawn``, ``repro chaos-net`` and ``repro chaos-data`` — are
each one plain sequential function next to the code they exercise.
What they share lives here and nowhere else: the gate record and its
uniform ``[PASS]``/``[FAIL]`` rendering, the manifest writer, the one
synchronous HTTP GET, the served results and their pinned golden
bodies, and one ``repro serve`` child's lifecycle.  A new gate is a
function over this module; it adds no harness code of its own.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.faults.plan import default_serve_plan
from repro.ranking.snapshots import canonical_bytes
from repro.store.artifacts import ArtifactStore, config_key
from repro.worldgen.config import WorldConfig

__all__ = [
    "AVAILABILITY_FLOOR",
    "CHILD_JOBS",
    "CHILD_QUEUE_DEPTH",
    "QUICK_EXPERIMENTS",
    "GateResult",
    "GateRun",
    "Response",
    "ServeChild",
    "availability_gate",
    "ensure_results",
    "fetch",
    "fetch_json",
    "free_port",
    "pin_expectations",
    "replay_gate",
    "serve_command",
    "sites_fired_gate",
    "spawned_server",
    "write_fault_plan",
    "write_json",
]

#: Eventual-success availability every gate requires of its traffic.
AVAILABILITY_FLOOR = 0.99

#: The cheap experiment subset: fast to compute at golden scale, covers
#: both tables and figures.  ``repro chaos --quick`` runs it and the
#: selftest serves it.
QUICK_EXPERIMENTS: Tuple[str, ...] = ("fig1", "table1", "table2", "fig6", "survey")

#: The spawned child's admission gate: ``--jobs`` slots plus a
#: ``--queue-depth`` queue.  Small on purpose, so a CI-sized client
#: fleet can saturate it (a 2-slot/4-queue gate sheds at ~tens of
#: concurrent closed-loop sessions).
CHILD_JOBS = 2
CHILD_QUEUE_DEPTH = 4

#: The spawned child's serve chaos plan: one injected 5xx per lists path
#: with this probability (bounded by the personas' small watchlists), and
#: one clean warmup read per key before the store faults arm.
CHAOS_ERROR_PROBABILITY = 0.25
CHAOS_WARMUP_READS = 1


# ---------------------------------------------------------------------------
# Gate records.


@dataclass(frozen=True)
class GateResult:
    """One evaluated gate: what was required, what was measured."""

    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": round(self.measured, 6),
            "threshold": self.threshold,
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"  [{status}] {self.name}: {self.measured:g} "
            f"(threshold {self.threshold:g}) {self.detail}"
        ).rstrip()


def write_json(payload: Mapping[str, object], path: os.PathLike) -> Path:
    """Write a document as stable (sorted-key, indented) JSON."""
    target = Path(os.fspath(path))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(dict(payload), indent=2, sort_keys=True) + "\n")
    return target


@dataclass
class GateRun:
    """One gate invocation: report lines, gates, and manifest.

    ``lines`` are the gate's own evidence (fault fires, digests, ...),
    printed before the gates; ``manifest`` is the gate's fault
    accounting, to which :meth:`write_manifest` adds the gates and the
    verdict.
    """

    name: str
    checks: List[GateResult] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(
        self,
        name: str,
        passed: bool,
        measured: Optional[float] = None,
        threshold: float = 1.0,
        detail: str = "",
    ) -> bool:
        """Record one gate; a pass/fail check measures 1 or 0 against 1."""
        passed = bool(passed)
        self.checks.append(GateResult(
            name=name,
            passed=passed,
            measured=float(passed) if measured is None else float(measured),
            threshold=float(threshold),
            detail=detail,
        ))
        return passed

    def render(self) -> str:
        passed = sum(1 for check in self.checks if check.passed)
        return "\n".join([
            *self.lines,
            *(check.line() for check in self.checks),
            f"{self.name}: {passed}/{len(self.checks)} gates passed",
        ])

    def write_manifest(self, path: Optional[str]) -> None:
        """Write the manifest (plus gates and verdict) when a path is set."""
        if not path:
            return
        write_json(
            dict(self.manifest,
                 gates=[check.to_dict() for check in self.checks],
                 ok=self.ok),
            path,
        )
        self.lines.append(f"manifest: {path}")


def availability_gate(name: str, phase) -> GateResult:
    """Golden-correct successes over non-shed requests must clear the floor."""
    good = phase.by_outcome["ok"] + phase.by_outcome["not_modified"]
    return GateResult(
        name=name, passed=phase.availability >= AVAILABILITY_FLOOR,
        measured=phase.availability, threshold=AVAILABILITY_FLOOR,
        detail=f"{phase.requests} requests, {good} good",
    )


def sites_fired_gate(name: str, armed: Sequence[str], fired: Mapping[str, int]) -> GateResult:
    """Every armed fault site must have fired at least once."""
    missing = [site for site in armed if not fired.get(site)]
    return GateResult(
        name=name, passed=not missing,
        measured=float(len(armed) - len(missing)), threshold=float(len(armed)),
        detail=f"never fired: {', '.join(missing)}" if missing
        else "all armed sites fired",
    )


def replay_gate(name: str, observed: Optional[str], replayed: Optional[str]) -> GateResult:
    """A fault-sequence digest must exist and equal its in-run replay."""
    match = bool(observed) and observed == replayed
    return GateResult(
        name=name, passed=match, measured=float(match), threshold=1.0,
        detail=f"observed {str(observed)[:16]}.. vs replayed {str(replayed)[:16]}..",
    )


# ---------------------------------------------------------------------------
# HTTP.


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes
    truncated: bool = False


def fetch(
    host: str,
    port: int,
    path: str,
    timeout: float = 10.0,
    headers: Optional[Dict[str, str]] = None,
) -> Optional[Response]:
    """One GET over a fresh connection; None when no status line arrived
    (connection refused/reset before the response started — the one
    outcome the selftest's drain phase legitimately excludes).  A body
    cut short after the status line comes back empty with ``truncated``
    set."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        headers = {key.lower(): value for key, value in response.getheaders()}
        try:
            body = response.read()
        except (http.client.IncompleteRead, ConnectionError, OSError):
            return Response(response.status, headers, b"", truncated=True)
        return Response(response.status, headers, body)
    except (ConnectionError, OSError, http.client.HTTPException):
        return None
    finally:
        conn.close()


def fetch_json(host: str, port: int, path: str, timeout: float = 5.0) -> dict:
    """GET a JSON document that must answer 200 in full.

    Raises:
        RuntimeError: no response, a non-200 status, or a truncated body.
    """
    response = fetch(host, port, path, timeout=timeout)
    if response is None or response.status != 200 or response.truncated:
        status = "no response" if response is None else response.status
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(response.body.decode("utf-8"))


# ---------------------------------------------------------------------------
# The served results.


def ensure_results(
    names: Sequence[str],
    config: WorldConfig,
    cache_dir: str,
    jobs: int = 1,
) -> List[str]:
    """Compute any missing ``results/<name>`` blobs; returns failures."""
    probe = ArtifactStore(cache_dir)
    cfg_key = config_key(config)
    missing = [
        name for name in names
        if probe.get_json(cfg_key, f"results/{name}") is None
    ]
    if not missing:
        return []
    from repro.runner import run_experiments

    _payloads, manifest, _path = run_experiments(
        missing, config, jobs=max(1, jobs), cache_dir=cache_dir
    )
    return [outcome.name for outcome in manifest.failures]


def pin_expectations(
    names: Sequence[str],
    config: WorldConfig,
    cache_dir: str,
) -> Dict[str, bytes]:
    """Golden wire bodies per ``/v1/experiments/<name>`` path.

    The server puts a result blob on the wire as its canonical bytes;
    encoding the same blob here (from a fault-free read in *this*
    process, before any chaos plan runs) gives a client byte-exact drift
    detection on every experiment request.
    """
    store = ArtifactStore(cache_dir)
    cfg_key = config_key(config)
    expectations: Dict[str, bytes] = {}
    for name in names:
        blob = store.get_json(cfg_key, f"results/{name}")
        if blob is not None:
            expectations[f"/v1/experiments/{name}"] = canonical_bytes(blob)
    return expectations


# ---------------------------------------------------------------------------
# The spawned serve child.


def free_port(host: str = "127.0.0.1") -> int:
    """A currently-free TCP port, picked by the kernel.

    The ``repro serve`` banner prints ``(ephemeral)`` for ``--port 0``,
    so a parent cannot discover a child's self-picked port; instead the
    parent picks one here and passes it explicitly.  The tiny window
    between close and the child's bind is acceptable for a test harness.
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def write_fault_plan(
    seed: int,
    out_dir: os.PathLike,
    error_probability: float = CHAOS_ERROR_PROBABILITY,
) -> Path:
    """Write the serve chaos plan to a JSON file the child can load.

    ``warmup_reads=1`` lets the child's warmup read each results key
    once, clean — the store faults then land on the first *live* read
    per key, which is the scenario worth testing.
    """
    plan = default_serve_plan(
        seed,
        warmup_reads=CHAOS_WARMUP_READS,
        error_probability=error_probability,
    )
    directory = Path(os.fspath(out_dir))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fault_plan_{seed}.json"
    path.write_text(plan.to_json() + "\n")
    return path


def serve_command(
    *,
    port: int,
    cache_dir: str,
    quick: bool = True,
    deadline_ms: float = 1000.0,
    fault_plan: Optional[os.PathLike] = None,
    access_log: Optional[os.PathLike] = None,
) -> List[str]:
    """The argv for the ``repro serve`` child (pure; easy to test)."""
    command = [
        sys.executable,
        "-m", "repro.cli", "serve",
        "--port", str(port),
        "--cache-dir", str(cache_dir),
        "--jobs", str(CHILD_JOBS),
        "--queue-depth", str(CHILD_QUEUE_DEPTH),
        "--deadline-ms", str(deadline_ms),
        "--breaker-cooldown", "0.4",
    ]
    if quick:
        command.append("--quick")
    if fault_plan is not None:
        command.extend(["--fault-plan", os.fspath(fault_plan)])
    if access_log is not None:
        command.extend(["--access-log", os.fspath(access_log)])
    return command


@dataclass
class ServeChild:
    """A ready ``repro serve`` child, as :func:`spawned_server` yields it."""

    port: int
    command: List[str]
    fault_plan: Optional[str]
    access_log: str
    expectations: Dict[str, bytes]
    host: str = "127.0.0.1"
    drain_code: Optional[int] = None  # set once the child has exited

    def drain_gate(self, name: str) -> GateResult:
        """The child must exit 0 on SIGTERM (a clean drain)."""
        return GateResult(
            name=name, passed=self.drain_code == 0,
            measured=float(self.drain_code or 0), threshold=0.0,
            detail="child exited clean on SIGTERM",
        )


def _wait_ready(process: subprocess.Popen, port: int, timeout: float = 90.0) -> None:
    """Poll ``/readyz`` until 200 (warmup can take tens of seconds).

    Raises:
        RuntimeError: the child exited, or readiness timed out.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code = process.poll()
        if code is not None:
            output = process.stdout.read() if process.stdout is not None else b""
            raise RuntimeError(
                f"serve child exited {code} before ready:\n"
                + (output or b"").decode("utf-8", "replace")[-2000:]
            )
        response = fetch("127.0.0.1", port, "/readyz", timeout=2.0)
        if response is not None and response.status == 200:
            return
        time.sleep(0.1)
    raise RuntimeError(f"serve child not ready within {timeout}s")


def _stop(process: subprocess.Popen, drain_timeout: float = 15.0) -> int:
    """SIGTERM the child and wait for its exit code; a child that does
    not drain in time is killed (and reports the kill code)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=drain_timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.read()
        process.stdout.close()
    return int(process.returncode or 0)


@contextmanager
def spawned_server(
    label: str,
    cache_dir: str,
    *,
    jobs: int = 2,
    plan: Optional[Callable[[Path], os.PathLike]] = None,
    deadline_ms: float = 1000.0,
) -> Iterator[ServeChild]:
    """Run a ``repro serve --quick`` child for the body of a ``with``.

    In order: compute any missing results at golden scale (``jobs``
    workers) and pin their wire bodies; call ``plan`` with a fresh
    scratch directory to write the child's fault-plan file (no plan: a
    fault-free child); fork the child on a free port with its access log
    in the scratch directory; wait for ``/readyz``; yield.  On exit the
    child is SIGTERMed and its exit code lands in ``drain_code``.

    The child is a real subprocess on a real socket — not an in-process
    service — because the gates measure the serving stack end to end:
    kernel accept queue, thread dispatch, admission gate, the lot.

    Raises:
        RuntimeError: results could not be computed, or the child exited
          or never became ready.
    """
    from repro.core.experiments import SPECS
    from repro.qa.goldens import GOLDEN_CONFIG

    names = sorted(SPECS)
    print(f"[{label}: ensuring {len(names)} result(s) in {cache_dir}]")
    failures = ensure_results(names, GOLDEN_CONFIG, cache_dir, jobs=jobs)
    if failures:
        raise RuntimeError(f"could not populate results: {', '.join(failures)}")
    scratch = Path(tempfile.mkdtemp(prefix="repro-gate-"))
    fault_plan = None if plan is None else os.fspath(plan(scratch))
    port = free_port()
    access_log = str(scratch / "serve_access.log")
    child = ServeChild(
        port=port,
        command=serve_command(
            port=port, cache_dir=cache_dir, deadline_ms=deadline_ms,
            fault_plan=fault_plan, access_log=access_log,
        ),
        fault_plan=fault_plan,
        access_log=access_log,
        expectations=pin_expectations(names, GOLDEN_CONFIG, cache_dir),
    )
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_root, env.get("PYTHONPATH")) if part
    )
    plan_note = "no faults" if fault_plan is None else f"fault plan {fault_plan}"
    print(f"[{label}: serve child on port {port} ({plan_note}); warming...]")
    process = subprocess.Popen(
        child.command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
    )
    try:
        _wait_ready(process, port)
        yield child
    finally:
        child.drain_code = _stop(process)
