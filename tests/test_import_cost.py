"""What ``import repro.cli`` pulls in: every CLI start and every spawned
``repro serve`` child pays for it."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def _loaded_after(module: str, probe_module: str) -> bool:
    """Whether ``import <module>`` in a fresh interpreter loads
    ``probe_module``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    probe = f"import sys, {module}; print({probe_module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout.strip() == "True"


def test_cli_import_skips_scipy_stats():
    """The two p-values need ``scipy.special`` only; ``scipy.stats`` costs
    about a second of import time."""
    assert not _loaded_after("repro.cli", "scipy.stats")


def test_cli_import_skips_scipy():
    """No scipy at all: ``scipy.special`` loads inside the two p-value
    functions, which ``repro serve`` never calls, and costs about 0.3 s."""
    assert not _loaded_after("repro.cli", "scipy")


def test_serve_import_skips_qa():
    """The Dowdall oracle and the goldens load only where a check runs,
    never in a ``repro serve`` child."""
    assert not _loaded_after("repro.serve.server", "repro.qa")


def test_cli_import_skips_serve_and_ranking():
    """``repro list`` and every other CLI start import the commands lazily:
    the service and the ranking layer load only where a command runs."""
    assert not _loaded_after("repro.cli", "repro.serve")
    assert not _loaded_after("repro.cli", "repro.ranking")
