"""Child processes under test: the ``repro`` CLI and ``repro serve``.

Every child runs from the checkout root with ``src`` on its path, its
artifact store and temp files inside the benchmark's work directory, and
its output in a log file.  Wall time is taken around spawn and reap, CPU
time and peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

#: The checkout this package lives in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

READY_POLL_SECONDS = 0.02
READY_TIMEOUT_SECONDS = 120.0
STOP_TIMEOUT_SECONDS = 15.0


class ChildFailed(RuntimeError):
    """A child process exited badly or never became ready."""


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    env["TMPDIR"] = str(workdir)
    env.pop("REPRO_CACHE_MAX_BYTES", None)
    return env


@dataclass
class Exit:
    """How a child ended: exit code, wall seconds, CPU seconds, peak RSS."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _reap(proc: subprocess.Popen, started: float) -> Exit:
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def run(argv: Sequence[str], workdir: Path, log: Path, timeout: float) -> Exit:
    """Run ``python <argv>`` to completion; kill it past ``timeout``."""
    with open(log, "ab") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(workdir),
            stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        return _reap(proc, started)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def get(port: int, path: str, timeout: float = 5.0) -> tuple:
    """One GET on a fresh connection: ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A spawned server child on a free port.

    :meth:`wait_ready` returns the time from spawn to the first
    ``/readyz`` 200, polled every 20 ms.  :meth:`stop` sends SIGTERM (the
    server drains and exits 0) and returns the child's :class:`Exit`.
    """

    def __init__(self, argv: Sequence[str], workdir: Path, log: Path) -> None:
        self.port = free_port()
        self._log = open(log, "ab")
        self._started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "--port", str(self.port)],
            cwd=ROOT, env=child_env(workdir),
            stdout=self._log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )

    def wait_ready(self) -> float:
        deadline = self._started + READY_TIMEOUT_SECONDS
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ChildFailed(f"server exited with {self.proc.returncode} before ready")
            try:
                status, _ = get(self.port, "/readyz", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self._started
            time.sleep(READY_POLL_SECONDS)
        raise ChildFailed("server not ready in time")

    def stop(self) -> Exit:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(STOP_TIMEOUT_SECONDS, self.proc.kill)
        watchdog.start()
        try:
            if self.proc.returncode is not None:
                return Exit(self.proc.returncode, 0.0, 0.0, 0.0)
            return _reap(self.proc, self._started)
        finally:
            watchdog.cancel()
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.proc.returncode is None:
            self.stop()
        else:
            self._log.close()
