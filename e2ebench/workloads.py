"""The four workloads: set-up, measured repeats, correctness, traced run.

Every repeat starts from a fresh copy of a store built during set-up, so
no repeat sees another's writes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from e2ebench import client, layers, procs, stats
from e2ebench.spec import EXPERIMENTS, Scale, Workload
from e2ebench.trace import Span, chrome_events, coverage, load_spans

PIPELINE_TIMEOUT_S = 170.0
#: Set-up samples per run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Set-up stores kept between runs (a full store is ~300 MB at full scale).
CACHED_STORES = 10
DIGESTS = Path(__file__).with_name("digests.json")
INF = float("inf")


@dataclass
class Repeat:
    """One measured repeat: end-to-end values and what went wrong."""

    values: Dict[str, float]
    attempted: int
    errors: List[str]
    setup_s: Optional[float] = None
    digests: Dict[str, str] = field(default_factory=dict)
    tail: Dict[str, float] = field(default_factory=dict)  # latency tail and sample count

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.errors))


@dataclass
class Traced:
    """What a traced run adds to its repeat: spans, coverage of the
    measured region, client latencies per route, ``/metricz`` deltas."""

    spans: List[Span]
    coverage: float
    requests: Sequence[Tuple[str, float]] = ()
    metricz: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one workload produced in one invocation."""

    repeats: List[Repeat] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    traced: Optional[Repeat] = None
    per_layer: Optional[Dict[str, float]] = None
    per_layer_detail: Dict[str, object] = field(default_factory=dict)

    @property
    def runs(self) -> List[Repeat]:
        return self.repeats + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    @property
    def errors(self) -> List[str]:
        return [error for r in self.runs for error in r.errors]


def pinned(scale: Scale, seed: int) -> Dict[str, object]:
    """The digests pinned for this scale and seed (none for other seeds)."""
    entry = json.loads(DIGESTS.read_text()).get(f"{scale.sites}x{scale.days}", {})
    return entry if entry.get("seed") == seed else {}


def _values(wall: float, done: procs.Exit, operations: int,
            ms: Sequence[float]) -> Dict[str, float]:
    return {
        "wall_s": wall,
        "cpu_s": done.cpu_s,
        "peak_rss_mb": done.peak_rss_mb,
        "ops_per_s": operations / wall,
        "latency_p50_ms": stats.percentile(ms, 50),
        "latency_p90_ms": stats.percentile(ms, 90),
        "latency_p99_ms": stats.percentile(ms, 99),
    }


def _metricz_counts(port: int) -> Dict[str, float]:
    doc = json.loads(procs.get(port, "/metricz")[1])
    return {
        "shed": doc["shed"]["shed_total"],
        "deadline_timeouts": doc["deadline"]["timeouts"],
        "not_modified": doc["conditional"]["not_modified_total"],
        "read_failures": sum(value for key, value in doc["counters"].items()
                             if key.startswith("serve.read_failures.")),
    }


def write_trace(path: Path, events: List[Dict[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def source_digest() -> str:
    """Digest of every file under ``src``: the program a cached store
    was built by."""
    digest = hashlib.sha256()
    for path in sorted(procs.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(procs.SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Bench:
    """Runs workloads at one scale and seed inside a work directory.

    Set-up stores are cached in ``cache`` by program digest, scale, seed
    and kind, so runs that share a seed build each one once; repeats
    only ever touch copies.
    """

    def __init__(self, scale: Scale, seed: int, workdir: Path, cache: Path,
                 say: Callable[[str], None]) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.cache = cache
        self.say = say
        self.log = workdir / "children.log"
        self.world = (*scale.world_args, "--seed", str(seed))
        self._pristine: Dict[str, Path] = {}
        self._bodies: Dict[str, bytes] = {}
        self._serial = 0

    def _fresh(self, label: str) -> Path:
        self._serial += 1
        return self.workdir / f"{label}-{self._serial}"

    # ------------------------------------------------------------------
    # Stores.

    def pristine(self, kind: str) -> Path:
        """The set-up store of ``kind`` with its run manifest: ``full``
        (``repro all``) or ``fig1`` (world, seven days of traffic and CDN
        metrics)."""
        if kind not in self._pristine:
            root = self.cache / (f"{source_digest()}-{self.scale.sites}x"
                                 f"{self.scale.days}-{self.seed}-{kind}")
            if root.exists():
                os.utime(root)
            else:
                self._build(kind, root)
            self._pristine[kind] = root
        return self._pristine[kind]

    def _build(self, kind: str, root: Path) -> None:
        self.say(f"[set-up: building the {kind} store]")
        build = self._fresh(f"pristine-{kind}")
        command = ("all", "--jobs", "2") if kind == "full" else ("fig1",)
        done = procs.run(
            ["-m", "repro.cli", *command, *self.world, "--cache-dir",
             str(build / "store"), "--manifest", str(build / "manifest.json")],
            self.workdir, self.log, PIPELINE_TIMEOUT_S)
        if done.code != 0:
            raise procs.ChildFailed(f"set-up `repro {command[0]}` exited {done.code}")
        self.cache.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(build, root)  # published whole, or not at all
        except OSError:
            if not root.exists():
                raise
        cached = sorted(self.cache.iterdir(), key=lambda path: path.stat().st_mtime)
        for old in cached[:-CACHED_STORES]:
            shutil.rmtree(old, ignore_errors=True)

    def copy_of(self, kind: str) -> Path:
        """A fresh copy of a set-up store, flushed to disk so that its
        write-back does not run during the measurement."""
        target = self._fresh(f"store-{kind}")
        shutil.copytree(self.pristine(kind) / "store", target)
        os.sync()
        return target

    def expected_body(self, experiment: str) -> bytes:
        """``json.dumps(store blob, sort_keys=True)`` for a stored result."""
        if experiment not in self._bodies:
            from repro.store import ArtifactStore, config_key
            from repro.worldgen.config import WorldConfig

            config = WorldConfig(n_sites=self.scale.sites, n_days=self.scale.days,
                                 seed=self.seed)
            store = ArtifactStore(self.pristine("full") / "store", max_bytes=None)
            blob = store.get_json(config_key(config), f"results/{experiment}")
            self._bodies[experiment] = json.dumps(blob, sort_keys=True).encode()
        return self._bodies[experiment]

    # ------------------------------------------------------------------
    # Set-up time.

    def setup_pipeline(self) -> List[float]:
        """Fresh ``repro list`` runs: interpreter, imports and argparse,
        which every CLI run pays."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            done = procs.run(["-m", "repro.cli", "list"], self.workdir, self.log, 60.0)
            if done.code != 0:
                raise procs.ChildFailed(f"`repro list` exited {done.code}")
            samples.append(done.wall_s)
        return samples

    def serve_argv(self, store: Path) -> List[str]:
        return ["-m", "repro.cli", "serve", *self.world, "--cache-dir", str(store)]

    def setup_serve(self, kind: str, count: int) -> List[float]:
        """Spawn-to-ready of ``count`` servers that stop unused."""
        samples = []
        for _ in range(count):
            store = self.copy_of(kind)
            with procs.Server(self.serve_argv(store), self.workdir, self.log) as server:
                samples.append(server.wait_ready())
            shutil.rmtree(store, ignore_errors=True)
        return samples

    # ------------------------------------------------------------------
    # Pipelines.

    def reference(self, workload: Workload) -> Dict[str, str]:
        """Digests a pipeline run must match: the pinned ones, and for a
        warm run also the set-up cold run's."""
        reference = dict(pinned(self.scale, self.seed).get("experiments", {}))
        if workload.store == "full":
            cold, _ = self.read_manifest(self.pristine("full") / "manifest.json", {})
            for name, digest in cold.digests.items():
                if reference.setdefault(name, digest) != digest:
                    reference[name] = "cold run and pinned digest disagree"
        return reference

    def read_manifest(self, manifest: Path,
                      reference: Dict[str, str]) -> Tuple[Repeat, List[float]]:
        """A repeat's digests and failures from a run manifest, and each
        experiment's latency: the ms from the start of the batch (every
        experiment is requested at once) until its result is stored."""
        outcomes = {}
        if manifest.exists():
            outcomes = {o["name"]: o for o in json.loads(manifest.read_text())["outcomes"]}
        errors, ms, digests = [], [], {}
        elapsed = 0.0
        for name in EXPERIMENTS:  # the order ``--jobs 1`` runs them in
            outcome = outcomes.get(name, {})
            digests[name] = outcome.get("text_sha256")
            want = reference.get(name, digests[name])
            elapsed += outcome.get("seconds", 0.0) * 1000.0
            if not outcome.get("ok"):
                errors.append(f"{name}: not ok")
            elif digests[name] != want:
                errors.append(f"{name}: text_sha256 {digests[name]}, want {want}")
            ms.append(elapsed if outcome.get("ok") else INF)
        return Repeat({}, len(EXPERIMENTS), errors, digests=digests), ms

    def pipeline(self, workload: Workload, reference: Dict[str, str],
                 traced: Optional[Path] = None) -> Tuple[Repeat, Optional[Traced]]:
        """One pipeline run (traced into ``traced`` when given)."""
        store = self.copy_of(workload.store) if workload.store else self._fresh("store-empty")
        manifest = self._fresh("manifest").with_suffix(".json")
        spans_file = self._fresh("spans").with_suffix(".json")
        argv = (["-m", "e2ebench.traced", "pipeline", "--spans", str(spans_file)]
                if traced else ["-m", "repro.cli", "all", "--jobs", "1"])
        done = procs.run([*argv, *self.world, "--cache-dir", str(store),
                          "--manifest", str(manifest)],
                         self.workdir, self.log, PIPELINE_TIMEOUT_S)
        shutil.rmtree(store, ignore_errors=True)
        repeat, ms = self.read_manifest(manifest, reference)
        if done.code != 0:
            repeat.errors.append(f"pipeline exited {done.code}")
        repeat.values = _values(done.wall_s, done, len(EXPERIMENTS), ms)
        repeat.tail = stats.tail(ms)
        if not traced:
            return repeat, None
        doc = json.loads(spans_file.read_text()) if spans_file.exists() else {}
        spans = load_spans(doc)
        lo, hi = doc.get("region", (0.0, 0.0))
        write_trace(traced, chrome_events(spans, 1, lo))
        return repeat, Traced(spans, coverage(spans, lo, hi))

    # ------------------------------------------------------------------
    # Serve.

    def _touch(self, port: int) -> Tuple[Dict[str, client.Result], List[str]]:
        """The untimed first touch of the ``serve_hot`` set, checked."""
        script = client.touch_script()
        results = client.drive(port, script, connections=1, keep_bodies=True)
        touched = {request.path: result for request, result in zip(script, results)}
        errors = [result.error for result in results if result.error]
        for path in client.HOT_EXPERIMENTS:
            if touched[path].body != self.expected_body(path.rsplit("/", 1)[1]):
                errors.append(f"{path}: body is not json.dumps(store blob, sort_keys=True)")
        try:
            rows = json.loads(touched[client.INDEX].body).get("experiments", [])
        except ValueError:
            rows = []
        if len(rows) != len(EXPERIMENTS) or any(r.get("status") != "available" for r in rows):
            errors.append(f"{client.INDEX}: not every experiment is available")
        return touched, errors

    def serve(self, workload: Workload,
              traced: Optional[Path] = None) -> Tuple[Repeat, Optional[Traced]]:
        """One server lifetime: spawn on a fresh store copy, (touch,) load,
        SIGTERM.  Traced into ``traced`` when given."""
        lists = workload.name == "serve_lists"
        store = self.copy_of(workload.store)
        spans_file = self._fresh("spans").with_suffix(".json")
        argv = (["-m", "e2ebench.traced", "serve", *self.world, "--cache-dir", str(store),
                 "--spans", str(spans_file)] if traced else self.serve_argv(store))
        errors: List[str] = []
        touched: Dict[str, client.Result] = {}
        with procs.Server(argv, self.workdir, self.log) as server:
            setup = server.wait_ready()
            if lists:
                script = client.lists_script(self.scale)
            else:
                touched, errors = self._touch(server.port)
                script = client.hot_script(self.seed, self.scale.hot_requests,
                                           touched, self.expected_body)
            before = _metricz_counts(server.port) if traced else {}
            results = client.drive(server.port, script, keep_bodies=lists)
            after = _metricz_counts(server.port) if traced else {}
            done = server.stop()
        shutil.rmtree(store, ignore_errors=True)
        if done.code != 0:
            errors.append(f"server exited {done.code}")
        if len(results) != len(script) or not results:
            raise procs.ChildFailed(f"{len(script) - len(results)} requests never completed")
        errors += [result.error for result in results if result.error]
        digests = {}
        if lists:
            errors += client.check_list_bodies(script, results)
            digests["serve_lists_sha256"] = hashlib.sha256(
                b"".join(result.body for result in results)).hexdigest()
        ms = [INF if result.error else result.ms for result in results]
        lo = min(result.start for result in results)
        hi = max(result.end for result in results)
        repeat = Repeat(_values(hi - lo, done, len(script), ms), len(script) + len(touched),
                        errors, setup_s=setup, digests=digests, tail=stats.tail(ms))
        if not traced:
            return repeat, None
        doc = json.loads(spans_file.read_text()) if spans_file.exists() else {}
        spans = load_spans(doc)
        client_spans = [
            Span(-n - 1, request.route, result.start, result.end, None, result.thread,
                 {"path": request.path, "status": result.status})
            for n, (request, result) in enumerate(zip(script, results))
        ]
        write_trace(traced, chrome_events(spans, 1, lo) + chrome_events(client_spans, 2, lo))
        requests = [(request.route, result.ms) for request, result in zip(script, results)]
        metricz = {key: after[key] - before[key] for key in after}
        return repeat, Traced(spans, coverage(spans, lo, hi), requests, metricz)


class Runner:
    """One workload's set-up samples, measured repeats and traced run."""

    def __init__(self, bench: Bench, workload: Workload) -> None:
        self.bench = bench
        self.workload = workload
        self.outcome = Outcome()
        if workload.kind == "pipeline":
            self._run = functools.partial(bench.pipeline, workload, bench.reference(workload))
        else:
            self._run = functools.partial(bench.serve, workload)

    def set_up(self) -> None:
        if self.workload.kind == "pipeline":
            self.outcome.setup_s = self.bench.setup_pipeline()
        else:
            # Each repeat's own spawn adds one more set-up sample.
            self.outcome.setup_s = self.bench.setup_serve(self.workload.store,
                                                          SETUP_SAMPLES - 1)

    def repeat(self) -> None:
        repeat, _ = self._run()
        self.outcome.repeats.append(repeat)
        if repeat.setup_s is not None:
            self.outcome.setup_s.append(repeat.setup_s)

    def trace(self, path: Path) -> None:
        untraced = statistics.median(r.values["wall_s"] for r in self.outcome.repeats)
        self.outcome.traced, traced = self._run(path)
        self.outcome.per_layer, self.outcome.per_layer_detail = layers.layer_metrics(
            traced.spans, self.bench.scale.sites, traced.coverage,
            self.outcome.traced.values["wall_s"] / untraced - 1.0,
            traced.requests, traced.metricz)

    def finish(self) -> Outcome:
        if self.workload.name == "serve_lists":
            _agree(self.outcome.runs, self.bench, "serve_lists_sha256")
        return self.outcome


def measure(runners: Sequence[Runner], repeats: int, seconds: float) -> None:
    """Repeat every workload at least ``repeats`` times and until ``seconds``
    of measuring have passed, round-robin: the host's speed drifts over
    minutes, so each workload's samples are spread over the whole run
    rather than bunched into one stretch of it."""
    started = time.perf_counter()
    rounds = 0
    while rounds < repeats or time.perf_counter() - started < seconds:
        for runner in runners:
            runner.repeat()
        rounds += 1


def _agree(repeats: Sequence[Repeat], bench: Bench, key: str) -> None:
    """Every repeat's digest must match the pinned one, or failing that the
    first repeat's."""
    want = pinned(bench.scale, bench.seed).get(key) or repeats[0].digests.get(key)
    for repeat in repeats:
        if repeat.digests.get(key) != want:
            repeat.errors.append(f"{key} {repeat.digests.get(key)}, want {want}")
