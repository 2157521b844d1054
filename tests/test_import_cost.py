"""What ``import repro.cli`` pulls in: every CLI start and every spawned
``repro serve`` child pays for it."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_cli_import_skips_scipy_stats():
    """The two p-values need ``scipy.special`` only; ``scipy.stats`` costs
    about a second of import time."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    probe = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert result.stdout.strip() == "False"
