"""The multi-process client pool: scaling offered load past one core.

One asyncio process tops out at a few hundred requests/sec against a
local service — enough to exercise the admission gate, not enough to
*saturate* it with headroom.  ``repro loadgen --workers N`` forks N
client processes; each runs the unchanged :class:`LoadEngine` over a
deterministic **shard** of every phase's persona roster
(``position % worker_count == worker_index``), so the union of what the
workers request is exactly what a single process would have requested —
sharding changes who sends, never what is sent (the seed-partition
equivalence test pins this).

Each worker writes its results to a **spill file**: exact counters plus
full log-bucketed histograms (:meth:`PhaseMetrics.to_spill`), which were
built to merge.  The parent folds the spills into one set of phase
metrics — bucket addition is associative and commutative, so the merged
quantiles are identical to having recorded every outcome in one process
— and reports them through the same LOADGEN document and gates as a
single-process run.

Workers are started with the ``spawn`` context: the parent may hold
live threads (the tracer, a spawned serve child's pipe) and forking a
threaded process is how deadlocks are born.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.loadgen.engine import ClientStats, LoadEngine, PhaseSpec
from repro.loadgen.engine import _PHASE_OVERRUN_FACTOR
from repro.loadgen.metrics import PhaseMetrics
from repro.loadgen.personas import Catalog

__all__ = ["PoolResult", "WorkerSpec", "run_pool", "shard_phase", "worker_main"]

#: Extra wall-clock slack (seconds) on top of the phases' own hard
#: deadlines before the parent declares a worker wedged.  Spawn-context
#: interpreter startup and module import land in here.
_JOIN_SLACK_SECONDS = 60.0

#: Layout version of the per-worker spill document.
WORKER_SPILL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs (picklable for ``spawn``)."""

    worker_index: int
    worker_count: int
    host: str
    port: int
    seed: int
    catalog: Catalog
    phases: Tuple[PhaseSpec, ...]
    spill_path: str
    expectations: Optional[Mapping[str, bytes]] = None
    timeout: float = 5.0
    keepalive: bool = True


@dataclass
class PoolResult:
    """Merged output of a pooled run — shaped like one engine's output."""

    phases: List[PhaseMetrics]
    schedule_digests: List[Dict[str, object]]
    counters: Dict[str, float]
    client: ClientStats
    workers: int
    spill_dir: str


def shard_phase(spec: PhaseSpec, worker_index: int, worker_count: int) -> PhaseSpec:
    """The phase as worker ``worker_index`` of ``worker_count`` runs it.

    Persona count and ids are untouched — the shard fields make the
    engine keep only its slice of the canonical roster.  ``min_requests``
    is divided (ceiling) so the *fleet* still guarantees the original
    volume without each worker waiting for all of it.
    """
    return replace(
        spec,
        shard_index=worker_index,
        shard_count=worker_count,
        min_requests=math.ceil(spec.min_requests / worker_count),
    )


def worker_main(spec: WorkerSpec) -> None:
    """One worker process: run every phase over this shard, spill, exit.

    Never raises: failures are written into the spill file (an ``error``
    payload) and reflected in the exit code, so the parent can report
    what actually went wrong instead of a bare nonzero exit.
    """
    try:
        tracer = obs.Tracer()
        engine = LoadEngine(
            spec.host,
            spec.port,
            spec.catalog,
            spec.seed,
            expectations=spec.expectations,
            tracer=tracer,
            timeout=spec.timeout,
            keepalive=spec.keepalive,
        )
        spills: List[Dict[str, object]] = []
        for phase in spec.phases:
            metrics = engine.run_phase(
                shard_phase(phase, spec.worker_index, spec.worker_count)
            )
            spills.append(metrics.to_spill())
        counters = tracer.root_counters()
        payload: Dict[str, object] = {
            "worker_spill_schema_version": WORKER_SPILL_SCHEMA_VERSION,
            "worker": spec.worker_index,
            "workers": spec.worker_count,
            "phases": spills,
            "digests": engine.schedule_digests(),
            "counters": counters,
            "client": engine.client_stats.to_dict(),
        }
        _write_spill(spec.spill_path, payload)
    except BaseException:
        _write_spill(spec.spill_path, {
            "worker_spill_schema_version": WORKER_SPILL_SCHEMA_VERSION,
            "worker": spec.worker_index,
            "workers": spec.worker_count,
            "error": traceback.format_exc(),
        })
        sys.exit(1)


def _write_spill(path: str, payload: Dict[str, object]) -> None:
    """Write-then-rename so the parent never reads a torn spill."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_suffix(".tmp")
    scratch.write_text(json.dumps(payload, sort_keys=True))
    os.replace(scratch, target)


def run_pool(
    host: str,
    port: int,
    catalog: Catalog,
    seed: int,
    phases: Sequence[PhaseSpec],
    *,
    workers: int,
    expectations: Optional[Mapping[str, bytes]] = None,
    timeout: float = 5.0,
    keepalive: bool = True,
    spill_dir: Optional[str] = None,
    mp_context: str = "spawn",
) -> PoolResult:
    """Run ``phases`` across ``workers`` processes and merge the spills.

    Raises:
        ValueError: ``workers < 1`` or no phases.
        RuntimeError: a worker died, wedged past its phase deadlines, or
          spilled an error payload.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not phases:
        raise ValueError("run_pool needs at least one phase")
    directory = spill_dir or tempfile.mkdtemp(prefix="repro-loadgen-pool-")
    Path(directory).mkdir(parents=True, exist_ok=True)
    context = multiprocessing.get_context(mp_context)
    specs = [
        WorkerSpec(
            worker_index=index,
            worker_count=workers,
            host=host,
            port=port,
            seed=seed,
            catalog=catalog,
            phases=tuple(phases),
            spill_path=str(Path(directory) / f"worker_{index}.json"),
            expectations=dict(expectations or {}),
            timeout=timeout,
            keepalive=keepalive,
        )
        for index in range(workers)
    ]
    processes = [
        context.Process(target=worker_main, args=(spec,), name=f"loadgen-w{spec.worker_index}")
        for spec in specs
    ]
    for process in processes:
        process.start()
    budget = sum(
        spec.duration_seconds * _PHASE_OVERRUN_FACTOR for spec in phases
    ) + _JOIN_SLACK_SECONDS
    deadline = time.monotonic() + budget
    wedged: List[int] = []
    for index, process in enumerate(processes):
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            wedged.append(index)
    if wedged:
        raise RuntimeError(
            f"loadgen worker(s) {wedged} still running after {budget:.0f}s; "
            "terminated"
        )
    spills = [_read_spill(spec) for spec in specs]
    return _merge_spills(spills, workers=workers, spill_dir=directory)


def _read_spill(spec: WorkerSpec) -> Dict[str, object]:
    path = Path(spec.spill_path)
    if not path.exists():
        raise RuntimeError(
            f"worker {spec.worker_index} exited without writing its spill "
            f"({path})"
        )
    payload = json.loads(path.read_text())
    if payload.get("worker_spill_schema_version") != WORKER_SPILL_SCHEMA_VERSION:
        raise RuntimeError(
            f"worker {spec.worker_index} spilled schema "
            f"{payload.get('worker_spill_schema_version')!r}; expected "
            f"{WORKER_SPILL_SCHEMA_VERSION}"
        )
    if "error" in payload:
        raise RuntimeError(
            f"worker {spec.worker_index} failed:\n{payload['error']}"
        )
    return payload


def _merge_spills(
    spills: Sequence[Dict[str, object]], *, workers: int, spill_dir: str
) -> PoolResult:
    """Fold per-worker spills into one engine's worth of results.

    Histograms and counters add; phase ``duration_seconds`` is the
    *maximum* across workers, not the sum — the workers ran concurrently,
    and throughput must be requests over wall time, not over CPU time.
    """
    phase_count = len(spills[0]["phases"])  # type: ignore[arg-type]
    merged_phases: List[PhaseMetrics] = []
    for position in range(phase_count):
        shards = [
            PhaseMetrics.from_spill(spill["phases"][position])  # type: ignore[index]
            for spill in spills
        ]
        wall = max(shard.duration_seconds for shard in shards)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        merged.duration_seconds = wall
        merged_phases.append(merged)
    digests: List[Dict[str, object]] = []
    for spill in spills:
        digests.extend(dict(d) for d in spill.get("digests", []))
    digests.sort(key=lambda digest: str(digest.get("persona", "")))
    counters: Dict[str, float] = {}
    for spill in spills:
        for name, value in dict(spill.get("counters", {})).items():
            counters[name] = counters.get(name, 0.0) + float(value)
    client = ClientStats()
    for spill in spills:
        client.merge(ClientStats.from_dict(dict(spill.get("client", {}))))
    return PoolResult(
        phases=merged_phases,
        schedule_digests=digests,
        counters=counters,
        client=client,
        workers=workers,
        spill_dir=spill_dir,
    )
