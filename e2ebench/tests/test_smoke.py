"""A ``--quick --trace`` run end to end, checked against the declarations.

Run with ``PYTHONPATH=src python -m pytest e2ebench/tests`` from the
checkout root.  The quick run takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench.spec import (END_TO_END, EXPERIMENTS, PER_LAYER, PROVIDERS,
                           WORKLOAD_NAMES, WORKLOADS)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "-m", "e2ebench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    proc = _bench(["--quick", "--trace", "--out", str(out)])
    results = list(out.glob("e2ebench-*.json"))
    return proc, json.loads(results[0].read_text()) if results else None, out


def test_quick_run_is_correct(quick):
    proc, result, out = quick
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert list(result["workloads"]) == list(WORKLOAD_NAMES)
    for name, doc in result["workloads"].items():
        assert doc["failed_frac"] == 0.0, doc["errors"]
        assert (out / f"trace-{name}.json").exists()
        for row in doc["end_to_end"].values():
            assert row["median"] > 0
    for name in ("pipeline_cold", "pipeline_warm"):
        layer = result["workloads"][name]["per_layer"]
        assert layer["trace.coverage_frac"]["value"] >= 0.9


def test_every_declared_metric_and_nothing_else_is_produced(quick):
    _, result, _ = quick
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert declared["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    e2e = [m.name for m in END_TO_END]
    layer = [m.name for m in PER_LAYER]
    for name in e2e + layer + list(WORKLOAD_NAMES):
        assert NAME.fullmatch(name) and len(name) <= 64
    for doc in result["workloads"].values():
        assert list(doc["end_to_end"]) == e2e
        assert list(doc["per_layer"]) == layer


def test_declared_names_match_the_registries():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.experiments import SPECS
    from repro.providers.registry import PROVIDER_ORDER

    assert EXPERIMENTS == tuple(SPECS)
    assert PROVIDERS == PROVIDER_ORDER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench(["--workload", "pipeline_cold", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode not in (0, None)
    assert not proc.stdout.strip()
