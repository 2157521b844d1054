"""Traced children: the pipeline and the server with every layer wrapped.

    python -m e2ebench.traced pipeline --sites N --days N --seed N \\
        --cache-dir DIR --manifest PATH --spans PATH
    python -m e2ebench.traced serve --sites N --days N --seed N \\
        --cache-dir DIR --spans PATH --port N

Wrappers rebind attributes on live instances, on the ``ArtifactStore``
class (so the runner's own store instance is covered too), on registry
entries, and ``snapshot_doc`` in ``repro.serve.server``; no source file
changes.  The pipeline child pre-seeds ``experiment_context`` with the
store root the runner will use, so ``run_experiments(..., jobs=1)`` runs
on the wrapped context.  The serve child builds ``MetricsService`` the
way ``repro serve`` does.  Spans go to ``--spans`` as JSON on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from types import SimpleNamespace
from typing import Callable, Dict, Hashable

from e2ebench.client import route_of
from e2ebench.trace import Recorder


def _once_per_key(recorder: Recorder, fn: Callable, name: str,
                  key: Callable[..., Hashable],
                  describe: Callable[..., Dict[str, object]]) -> Callable:
    """Trace only the first call per key: later calls hit the callee's
    own memo (the context's artifacts, traffic and CDN days, normalized
    lists are each cached for the object's lifetime)."""
    traced = recorder.wrap(fn, name, describe)
    seen = set()

    def call(*args, **kwargs):
        marker = key(*args, **kwargs)
        if marker in seen:
            return fn(*args, **kwargs)
        result = traced(*args, **kwargs)
        seen.add(marker)
        return result

    return call


def _day(day, *args, **kwargs):
    return {"day": day}


def instrument_providers(recorder: Recorder, providers: Dict[str, object]) -> None:
    """Store-backed wrappers as ``stored.<p>``, the providers they wrap
    (also the Tranco and Trexa components) as ``providers.<p>``."""
    for name, stored in providers.items():
        for target, label in ((stored, f"stored.{name}"),
                              (getattr(stored, "inner", stored), f"providers.{name}")):
            target.daily_list = recorder.wrap(target.daily_list, label, _day)
            target.monthly_list = recorder.wrap(
                target.monthly_list, label, lambda: {"day": "monthly"})


def instrument_context(recorder: Recorder, ctx) -> None:
    """Wrap a context's artifact builds, normalize, traffic and CDN days."""
    build = ctx.artifact

    def on_built(args, value, *call_args, **call_kwargs):
        artifact = args["artifact"]
        if artifact == "traffic":
            value.day = _once_per_key(recorder, value.day, "traffic.day",
                                      lambda day: day, _day)
        elif artifact == "engine":
            value.day_counts = _once_per_key(
                recorder, value.day_counts, "cdn.day_counts",
                lambda day, combos=None: day, _day)
        elif artifact == "providers":
            instrument_providers(recorder, value)

    built = set()

    def artifact(name):
        if name in built:
            return build(name)
        label = "worldgen.build_world" if name == "world" else f"context.{name}"
        value = recorder.wrap(build, label, lambda name: {"artifact": name}, on_built)(name)
        built.add(name)
        return value

    ctx.artifact = artifact

    def normalized_key(provider, day=None):
        daily = ctx.providers[provider].publishes_daily
        return (provider, day if daily else None)

    ctx.normalized = _once_per_key(
        recorder, ctx.normalized, "normalize", normalized_key,
        lambda provider, day: {"provider": provider, "day": day})
    ctx.normalized_monthly = _once_per_key(
        recorder, ctx.normalized_monthly, "normalize",
        lambda provider: (provider, "monthly"),
        lambda provider: {"provider": provider, "day": "monthly"})


def instrument_store(recorder: Recorder) -> None:
    """Class-level wraps of the store's typed reads and writes."""
    from repro.store.artifacts import ArtifactStore

    def before(store, cfg_key, name, *rest):
        return {"artifact": name, "_bytes": (store.stats.bytes_read, store.stats.bytes_written)}

    def after_read(args, result, store, *rest):
        args["hit"] = result is not None
        args["bytes"] = store.stats.bytes_read - args.pop("_bytes")[0]

    def after_write(args, result, store, *rest):
        args["bytes"] = store.stats.bytes_written - args.pop("_bytes")[1]

    for method, kind, after in (("get_arrays", "read", after_read),
                                ("get_json", "read", after_read),
                                ("put_arrays", "write", after_write),
                                ("put_json", "write", after_write)):
        setattr(ArtifactStore, method,
                recorder.wrap(getattr(ArtifactStore, method), f"store.{kind}",
                              before, after))


def instrument_experiments(recorder: Recorder) -> None:
    from repro.core.experiments import SPECS

    for name, spec in list(SPECS.items()):
        SPECS[name] = dataclasses.replace(
            spec, fn=recorder.wrap(spec.fn, f"analysis.{name}"))


def _config(args: argparse.Namespace):
    from repro.core.pipeline import BENCH_CONFIG
    from repro.worldgen.config import WorldConfig

    return WorldConfig.from_args(
        SimpleNamespace(sites=args.sites, days=args.days, seed=args.seed),
        base=BENCH_CONFIG)


def run_pipeline(args: argparse.Namespace, recorder: Recorder) -> int:
    from repro.core.experiments import SPECS
    from repro.core.pipeline import experiment_context
    from repro.runner import run_experiments
    from repro.store import ArtifactStore

    config = _config(args)
    instrument_store(recorder)
    instrument_experiments(recorder)
    instrument_context(
        recorder, experiment_context(config=config, store=ArtifactStore(args.cache_dir)))
    started = time.monotonic()
    _, manifest, _ = run_experiments(
        list(SPECS), config, jobs=1, cache_dir=args.cache_dir,
        manifest_path=args.manifest)
    recorder.dump(args.spans, region=[started, time.monotonic()])
    return 1 if manifest.failures else 0


def run_serve(args: argparse.Namespace, recorder: Recorder) -> int:
    import repro.serve.server as server
    from repro.core.pipeline import experiment_context
    from repro.qa.goldens import default_golden_dir
    from repro.serve import AccessLog, MetricsService, ServeSettings
    from repro.store import DEFAULT_MAX_BYTES, ArtifactStore

    config = _config(args)
    # The settings ``repro serve`` builds from its default arguments.
    settings = ServeSettings(
        host="127.0.0.1", port=args.port, max_inflight=8, queue_depth=16,
        deadline_ms=1000.0, drain_seconds=5.0, breaker_threshold=3,
        breaker_cooldown_seconds=1.0,
    )
    try:
        golden_dir = default_golden_dir()
    except OSError:
        golden_dir = None
    store = ArtifactStore(args.cache_dir, DEFAULT_MAX_BYTES)
    instrument_store(recorder)
    instrument_context(recorder, experiment_context(config=config, store=store))
    server.snapshot_doc = recorder.wrap(server.snapshot_doc, "serve.snapshot_doc")
    service = MetricsService(config, store, settings=settings,
                             golden_dir=golden_dir, access_log=AccessLog())

    def describe_request(handler, head_only=False):
        conditional = bool(handler.headers.get("If-None-Match"))
        return {"route": route_of(handler.path, conditional)}

    service.warm = recorder.wrap(service.warm, "serve.warm")
    service.handle = recorder.wrap(service.handle, "serve.handle", describe_request)
    service.warm()
    try:
        return service.run_forever()
    finally:
        recorder.dump(args.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2ebench.traced")
    parser.add_argument("mode", choices=("pipeline", "serve"))
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--manifest")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    recorder = Recorder()
    run = run_pipeline if args.mode == "pipeline" else run_serve
    return run(args, recorder)


if __name__ == "__main__":
    sys.exit(main())
