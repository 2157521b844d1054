"""Command-line interface.

Command families, all dispatched through one table in :func:`main`:

* experiments — ``repro fig2``, ``repro table1``, ``repro all``: reproduce
  the paper's tables and figures.  Expensive artifacts (world, traffic
  tensors, CDN metrics, provider lists) persist in a content-addressed
  cache, so a cold run builds the world once and every later invocation
  hydrates it from disk; ``--jobs N`` runs experiments in parallel with
  per-experiment failure isolation and a JSON run manifest.  ``--trace``
  prints a per-experiment span tree (stage timings plus store hit/miss
  counters); ``--trace-out PATH`` also writes Chrome trace-event JSON.
* ``repro bench [--quick]`` — write the canonical ``BENCH_<yyyymmdd>.json``
  performance baseline: per-stage wall times, cache-cold vs cache-warm
  timings, and requests-simulated/sec per experiment.
* ``repro cache stats|ls|clear`` — inspect or empty the artifact store
  (``ls --quarantined`` lists blobs that failed checksum verification).
* ``repro export <provider> <path>`` — write a simulated list as a
  Tranco-style rank CSV (or CrUX-style origin CSV for bucketed lists).
* ``repro recommend`` — score every list for a study profile, per the
  paper's Section 7 guidance.
* ``repro ranking [--k N] [--json PATH]`` — build Tranco's daily lists,
  check each list's rows and score bits against the independent Dowdall
  oracle (nonzero exit on any mismatch), and print Scheitle-style
  stability analytics (daily churn, intersection decay, weekday
  periodicity) for the top-k on the world's calendar
  (``repro.ranking``).
* ``repro verify-goldens [--update]`` / ``repro verify-invariants`` — the
  regression gate: recompute every experiment's structured rows and diff
  them against the checked-in goldens (``tests/golden/``), and check the
  metamorphic invariant registry (``repro.qa``).
* ``repro chaos [--seed N] [--plan plan.json]`` — the robustness gate: run
  the registry under a deterministic fault-injection plan (corrupt reads,
  disk-full writes, worker crashes and hangs) and require every experiment
  to finish golden-clean anyway (``repro.faults``).
* ``repro serve [--port N] [--jobs N] [--deadline-ms N]`` — the resilient
  metrics service: precomputed results over HTTP with per-request
  deadlines, bounded-queue load shedding (503 + ``Retry-After``), a
  circuit breaker around store reads (last-known-good fallback), and
  graceful drain on SIGTERM.  ``--fault-plan plan.json`` injects faults
  under live traffic; ``--selftest`` replays a deterministic chaos mix
  against a live instance and asserts availability (``repro.serve``).
* ``repro loadgen [--spawn | --base-url URL]`` — the load harness: seeded
  client personas (dashboard pollers, researchers, health probes) driven
  open-loop (``--rate``) or closed-loop (``--closed-loop N``) against the
  metrics service, with golden-body drift detection, a mergeable latency
  histogram, and an ``--slo`` gate over the ``LOADGEN_<yyyymmdd>.json``
  report.  ``--spawn`` forks a chaos-armed ``repro serve`` child and
  requires saturation sheds + >= 99% golden-correct availability.
  ``--workers N`` fans the client across N processes over disjoint
  persona shards; every run writes a ``LATENCY_<yyyymmdd>.json``
  trajectory, and ``--compare prev.json`` fails the run on p99 drift
  (``repro.loadgen``).
* ``repro netproxy --listen PORT --upstream HOST:PORT`` — the
  deterministic TCP chaos proxy: seeded per-connection transport faults
  (resets, stalls, garbled/truncated/split writes, mid-response closes)
  between any client and any upstream, with a fault-fire accounting log
  (``repro.faults.netproxy``).
* ``repro chaos-net [--quick] [--seed N]`` — the transport-resilience
  gate: scripted loadgen → netproxy → chaos-armed serve child; every
  armed ``net.*`` site must fire, availability must hold >= 99% with
  zero golden drift, and the fault-sequence digest must replay
  (``repro.loadgen.netchaos``).
* ``repro chaos-data [--quick] [--seed N]`` — the degraded-data gate:
  an in-process proof that gap-tolerant Tranco windows equal the Dowdall
  oracle over the same degraded input, then a scripted client mix
  against a data-chaos serve child; every armed ``data.*`` site must
  fire, every degraded day must be marked in ``data_health``, and both
  fault digests must replay (``repro.loadgen.datachaos``).

Exit codes are uniform across every command: 0 on success, 1 on
experiment failure / golden drift / invariant violation, 2 on usage
errors (argparse errors included — :func:`main` converts ``SystemExit``
into a return value, so embedding callers never see an exception).

Examples::

    repro list                      # available experiments (with tags)
    repro fig2 --trace              # top lists vs Cloudflare, with spans
    repro all --jobs 4              # the whole paper, in parallel
    repro table1 --sites 40000      # coverage table, larger scale
    repro bench --quick --jobs 2    # CI-scale performance baseline
    repro cache stats               # what the artifact store holds
    repro export umbrella /tmp/umbrella.csv --limit 1000
    repro recommend --need-ranks --magnitude 10K
    repro verify-goldens --jobs 4     # regression-check every experiment
    repro verify-goldens --update     # regenerate the golden snapshots
    repro verify-invariants           # metamorphic pipeline properties
    repro all --jobs 4 --timeout 300  # per-experiment deadlines
    repro all --resume run.json       # re-run only what isn't done yet
    repro chaos --seed 1337           # full registry under fault injection
    repro all --quick && repro serve --quick   # serve golden-scale results
    repro serve --selftest --quick    # resilience selftest (chaos + drain)
    repro loadgen --spawn --quick --seed 7     # chaos + saturation smoke
    repro loadgen --base-url http://127.0.0.1:8321 --rate 50 \\
        --slo p99_ms=250,error_rate=0.01      # SLO-gate a live instance
    repro loadgen --spawn --workers 4         # multi-process client pool
    repro loadgen --compare LATENCY_prev.json --against LATENCY_now.json
    repro chaos-net --quick --seed 7          # transport-resilience gate
    repro chaos-data --quick --seed 11        # degraded-data gate
    repro ranking --fault-seed 11 --days 12   # degraded equivalence proof
    repro netproxy --listen 9000 --upstream 127.0.0.1:8321 --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.experiments import SPECS
from repro.core.pipeline import BENCH_CONFIG, ExperimentContext, experiment_context
from repro.store import ArtifactStore, default_cache_dir
from repro.worldgen.config import WorldConfig

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_FAILURE", "EXIT_USAGE"]

#: Uniform process exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _default_max_bytes() -> Optional[int]:
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if env is None:
        from repro.store import DEFAULT_MAX_BYTES

        return DEFAULT_MAX_BYTES
    value = int(env)
    return None if value <= 0 else value


# ---------------------------------------------------------------------------
# Shared parent parsers (argparse ``parents=``): every subcommand takes the
# same world and cache arguments, declared exactly once.


def _world_parent(defaults: WorldConfig) -> argparse.ArgumentParser:
    """``--sites/--days/--seed``, defaulting to ``defaults`` via
    :meth:`WorldConfig.from_args` (unset arguments stay None so the base
    config decides)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--sites", type=int, default=None, metavar="N",
        help=f"site universe size (default {defaults.n_sites})",
    )
    parent.add_argument(
        "--days", type=int, default=None, metavar="N",
        help=f"simulated days (default {defaults.n_days})",
    )
    parent.add_argument(
        "--seed", type=int, default=None,
        help=f"world seed (default {defaults.seed})",
    )
    return parent


def _cache_parent() -> argparse.ArgumentParser:
    """``--cache-dir/--no-cache``, shared by every store-touching command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-toplists)",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact store for this run",
    )
    return parent


def _cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    if args.no_cache:
        return None
    return args.cache_dir if args.cache_dir else str(default_cache_dir())


def _store_from_args(args: argparse.Namespace) -> Optional[ArtifactStore]:
    cache_dir = _cache_dir_from_args(args)
    if cache_dir is None:
        return None
    return ArtifactStore(cache_dir, _default_max_bytes())


def build_parser() -> argparse.ArgumentParser:
    """The experiment-mode argument parser (kept for API stability)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables and figures from 'Toppling Top Lists' (IMC 2022).",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig1..fig8, table1..table3, survey), 'all', or 'list'",
    )
    parser.add_argument(
        "--svg-dir", default=None, metavar="DIR",
        help="also render the figures as SVG files into DIR "
             "(forces in-process execution)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for running experiments (default 1)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write the JSON run manifest here (default: <cache>/runs/)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print a per-experiment span tree: stage wall times, rows "
             "simulated, store hit/miss counters",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write Chrome trace-event JSON (load in chrome://tracing or "
             "Perfetto); implies tracing",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment deadline: each experiment runs in its own "
             "supervised worker, hung or crashed workers are killed and "
             "resubmitted once (incompatible with --svg-dir)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="MANIFEST",
        help="resume from a prior run manifest: skip experiments it marks "
             "ok whose cached result blob still verifies",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run at golden scale (the CI smoke configuration) — the same "
             "config `repro serve --quick` reads back",
    )
    return parser


def _build_export_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro export",
        description="Export a simulated top list as CSV.",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    parser.add_argument("provider", help="provider name (alexa, umbrella, crux...)")
    parser.add_argument("path", help="output CSV path")
    parser.add_argument("--day", type=int, default=0, help="snapshot day (default 0)")
    parser.add_argument("--limit", type=int, default=None, help="max rows")
    return parser


def _build_recommend_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro recommend",
        description="Score every top list for a study profile (Section 7).",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    parser.add_argument("--need-ranks", action="store_true",
                        help="the study uses individual site ranks")
    parser.add_argument("--magnitude", default="100K",
                        choices=["1K", "10K", "100K", "1M"])
    parser.add_argument("--must-cover", action="append", default=[],
                        metavar="CATEGORY",
                        help="category the study cannot under-sample (repeatable)")
    return parser


def _context_from_args(
    args: argparse.Namespace, base: WorldConfig = BENCH_CONFIG
) -> ExperimentContext:
    config = WorldConfig.from_args(args, base=base)
    started = time.perf_counter()
    ctx = experiment_context(config=config, store=_store_from_args(args))
    print(
        f"[world: {config.n_sites} sites, {config.n_days} days, seed {config.seed}; "
        f"ready in {time.perf_counter() - started:.1f}s]\n"
    )
    return ctx


def _run_export(argv: List[str]) -> int:
    from repro.core.datasets import write_crux_csv, write_rank_csv

    args = _build_export_parser().parse_args(argv)
    ctx = _context_from_args(args)
    provider = ctx.providers.get(args.provider)
    if provider is None:
        print(f"unknown provider: {args.provider}; choose from "
              f"{', '.join(ctx.providers)}", file=sys.stderr)
        return EXIT_USAGE
    ranked = provider.daily_list(args.day)
    if ranked.is_bucketed:
        rows = write_crux_csv(ctx.world, ranked, args.path)
        print(f"wrote {rows} origin rows (CrUX format) to {args.path}")
    else:
        rows = write_rank_csv(ctx.world, ranked, args.path, limit=args.limit)
        print(f"wrote {rows} rank rows to {args.path}")
    return EXIT_OK


def _run_recommend(argv: List[str]) -> int:
    from repro.core.recommend import StudyProfile, recommend_lists

    args = _build_recommend_parser().parse_args(argv)
    ctx = _context_from_args(args)
    magnitude = dict(zip(ctx.magnitude_labels, ctx.magnitudes))[args.magnitude]
    try:
        profile = StudyProfile(
            needs_ranks=args.need_ranks,
            magnitude=magnitude,
            must_cover=tuple(args.must_cover),
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    scores = recommend_lists(ctx.world, ctx.evaluator, ctx.providers, profile)
    print(f"{'list':10s} {'score':>8s} {'set':>6s} {'rank':>6s}  notes")
    for score in scores:
        rank_text = "-" if np.isnan(score.rank_quality) else f"{score.rank_quality:.3f}"
        display = "excluded" if not score.usable else f"{score.score:.3f}"
        notes = ", ".join(
            f"under-includes {cat} (OR={ratio:.2f})"
            for cat, ratio in score.coverage_penalties.items()
        )
        print(f"{score.provider:10s} {display:>8s} {score.set_quality:6.3f} "
              f"{rank_text:>6s}  {notes}")
    print(f"\nrecommendation: {scores[0].provider}")
    return EXIT_OK


def _build_ranking_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ranking",
        description="Build Tranco's daily lists, check each against the "
                    "independent Dowdall oracle, and report stability "
                    "analytics.",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    parser.add_argument("--k", type=int, default=100, metavar="N",
                        help="top-k horizon for snapshots and stability "
                             "metrics (default 100)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the oracle report and "
                             "stability summary as JSON")
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="also run the degraded-ingestion equivalence "
                             "proof under the data-fault plan in this JSON "
                             "file")
    parser.add_argument("--fault-seed", type=int, default=None, metavar="N",
                        help="also run the degraded proof under the "
                             "built-in data plan with this seed "
                             "(ignored when --fault-plan is given)")
    return parser


def _run_ranking(argv: List[str]) -> int:
    from repro.qa.dowdall import dowdall_oracle, matches
    from repro.ranking import StabilityTracker
    from repro.ranking.snapshots import canonical_bytes, snapshot_doc

    args = _build_ranking_parser().parse_args(argv)
    if args.k < 1:
        print(f"--k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    ctx = _context_from_args(args)
    world = ctx.world
    config = world.config
    # Unwrap the store-backed caching layer: the check needs the real
    # TrancoProvider's components and window scores.
    tranco = ctx.providers["tranco"]
    tranco = getattr(tranco, "inner", tranco)

    days = range(config.n_days)
    lists = [tranco.daily_list(day) for day in days]
    oracle = dowdall_oracle(
        [[c.daily_list(day).name_rows.tolist() for day in days]
         for c in tranco.components],
        world.names.site.tolist(), config.tranco_window, config.list_length,
    )
    checked = []
    for ranked, expected in zip(lists, oracle):
        snapshot = canonical_bytes(snapshot_doc(ranked, world, k=args.k))
        checked.append({
            "day": ranked.day,
            **matches(expected, ranked.name_rows.tolist(),
                      tranco.window_scores(ranked.day).tolist()),
            "sha256": hashlib.sha256(snapshot).hexdigest(),
        })
    mismatched = [entry["day"] for entry in checked
                  if not (entry["ranks_identical"] and entry["scores_identical"])]
    report = {
        "provider": tranco.name,
        "window": config.tranco_window,
        "days_checked": len(checked),
        "identical": not mismatched,
        "mismatched_days": mismatched,
        "days": checked,
    }
    verdict = "identical" if report["identical"] else "MISMATCH"
    print(f"[tranco vs oracle: {report['days_checked']} day(s), "
          f"window {report['window']}: {verdict}]")
    for entry in checked:
        marker = "DRIFT" if entry["day"] in mismatched else "ok"
        print(f"  day {entry['day']}: snapshot {entry['sha256'][:12]} {marker}")

    tracker = StabilityTracker(args.k)
    for ranked in lists:
        tracker.observe(ranked.head(args.k).strings(world))
    summary = tracker.summary(start_weekday=config.start_weekday)
    ratio = summary["weekday"]["weekend_weekday_ratio"]
    print(f"[stability @ k={args.k}: mean churn {summary['mean_churn']:.4f}, "
          f"min intersection {summary['min_intersection']:.4f}, "
          f"weekend/weekday churn "
          f"{'n/a' if ratio is None else format(ratio, '.3f')}]")

    degraded_report = None
    if args.fault_plan is not None or args.fault_seed is not None:
        from repro.faults.plan import FaultPlan, default_data_plan
        from repro.ranking import proof_of_degraded_equivalence

        try:
            if args.fault_plan is not None:
                with open(args.fault_plan, "r", encoding="utf-8") as handle:
                    plan = FaultPlan.from_dict(json.load(handle))
            else:
                plan = default_data_plan(args.fault_seed, config.n_days)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"bad fault plan: {error}", file=sys.stderr)
            return EXIT_USAGE
        degraded_report = proof_of_degraded_equivalence(
            tranco, plan, k=args.k
        )
        verdict = "identical" if degraded_report["ok"] else "MISMATCH"
        fired = degraded_report["sites_fired"]
        print(f"[tranco degraded vs oracle: "
              f"{degraded_report['days_checked']} day(s), "
              f"{len(degraded_report['degraded_days'])} degraded: {verdict}]")
        print("  fires: " + (
            ", ".join(f"{s}={n}" for s, n in sorted(fired.items())) or "none"
        ))
        print(f"  fault digest: {degraded_report['fault_digest']}"
              + ("" if degraded_report["digest_match"]
                 else " (REPLAY MISMATCH)"))

    if args.json:
        doc = {"equivalence": report, "stability": summary}
        if degraded_report is not None:
            doc["degraded_equivalence"] = degraded_report
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[report written to {args.json}]")
    ok = report["identical"] and (
        degraded_report is None or degraded_report["ok"]
    )
    return EXIT_OK if ok else EXIT_FAILURE


def _run_experiments(argv: List[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:")
        for spec in SPECS.values():
            tags = ",".join(spec.tags)
            line = f"  {spec.id:10s} {spec.summary}"
            print(line + (f"  [{tags}]" if tags else ""))
        print("\nother commands: bench, export, recommend, ranking, validate, "
              "summary, cache, verify-goldens, verify-invariants, chaos, "
              "serve, loadgen, netproxy, chaos-net, chaos-data")
        return EXIT_OK

    names = list(SPECS) if args.experiment == "all" else [args.experiment]
    unknown = [name for name in names if name not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(SPECS)}, all, list, bench, export, "
              "recommend", file=sys.stderr)
        return EXIT_USAGE

    from repro.runner import run_experiments

    if args.quick:
        from repro.qa.goldens import GOLDEN_CONFIG

        base = GOLDEN_CONFIG
    else:
        base = BENCH_CONFIG
    config = WorldConfig.from_args(args, base=base)
    cache_dir = _cache_dir_from_args(args)
    jobs = max(1, args.jobs)
    trace = bool(args.trace or args.trace_out)
    if args.svg_dir and jobs > 1:
        print("[svg export runs in-process; ignoring --jobs]", file=sys.stderr)
        jobs = 1
    if args.svg_dir and args.timeout is not None:
        print("svg export runs in-process and cannot be supervised; "
              "drop --timeout or --svg-dir", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"[world: {config.n_sites} sites, {config.n_days} days, seed {config.seed}; "
        f"jobs {jobs}; cache {'off' if cache_dir is None else cache_dir}]\n"
    )
    try:
        payloads, manifest, manifest_file = run_experiments(
            names,
            config,
            jobs=jobs,
            cache_dir=cache_dir,
            max_bytes=_default_max_bytes(),
            manifest_path=args.manifest,
            keep_results=bool(args.svg_dir),
            trace=trace,
            timeout=args.timeout,
            resume_manifest=args.resume,
        )
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as error:
        # A bad --resume manifest (wrong config, missing, unparseable) is a
        # usage problem, not an experiment failure.
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    if trace:
        from repro.obs import Span, chrome_trace_events, render_span_tree

    for payload, outcome in zip(payloads, manifest.outcomes):
        if not outcome.ok:
            continue
        resumed = " [resumed]" if outcome.resumed else ""
        print(f"=== {outcome.name}: {payload.get('title', '')} "
              f"({outcome.seconds:.1f}s){resumed} ===")
        print(payload.get("text", ""))
        if args.svg_dir and "result" in payload:
            from repro.core.figure_export import export_figures

            for path in export_figures(payload["result"], args.svg_dir):
                print(f"[svg] {path}")
        if args.trace and isinstance(payload.get("trace"), dict):
            print(render_span_tree(Span.from_dict(payload["trace"])))
        print()
    for outcome in manifest.failures:
        print(f"[FAILED after {outcome.attempts} attempt(s)] {outcome.name}:",
              file=sys.stderr)
        print(outcome.error or "unknown error", file=sys.stderr)
    if args.trace_out:
        events: List[Dict[str, object]] = []
        for tid, payload in enumerate(payloads):
            trace_dict = payload.get("trace")
            if isinstance(trace_dict, dict):
                events.extend(
                    chrome_trace_events(Span.from_dict(trace_dict), pid=0, tid=tid)
                )
        target = Path(args.trace_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps({"traceEvents": events}) + "\n")
        print(f"[trace: {target}]")
    totals = manifest.cache_totals()
    if totals:
        summary = ", ".join(
            f"{kind} {counts.get('hits', 0)}h/{counts.get('misses', 0)}m"
            for kind, counts in sorted(totals.items())
        )
        print(f"[cache: {summary}]")
    if manifest_file is not None:
        print(f"[manifest: {manifest_file}]")
    if manifest.interrupted and manifest_file is not None:
        print(f"[interrupted — resume with: repro all --resume {manifest_file}]",
              file=sys.stderr)
    return EXIT_FAILURE if manifest.failures else EXIT_OK


def _run_bench(argv: List[str]) -> int:
    from repro.obs.bench import QUICK_CONFIG, bench_path, run_bench, write_bench

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Write the canonical BENCH_<yyyymmdd>.json performance "
                    "baseline: cold/warm wall times, per-stage breakdowns, "
                    "requests simulated per second.",
        parents=[_world_parent(BENCH_CONFIG)],
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"bench at golden scale ({QUICK_CONFIG.n_sites} sites, "
             f"{QUICK_CONFIG.n_days} days) — the CI smoke configuration",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="NAME",
                        help="bench only this experiment (repeatable; "
                             "default: the whole registry)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: ./BENCH_<yyyymmdd>.json)")
    args = parser.parse_args(argv)

    names = args.experiment or None
    unknown = [name for name in (names or []) if name not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    base = QUICK_CONFIG if args.quick else BENCH_CONFIG
    config = WorldConfig.from_args(args, base=base)
    jobs = max(1, args.jobs)
    print(f"[bench: {config.n_sites} sites, {config.n_days} days, seed "
          f"{config.seed}; jobs {jobs}; cold + warm passes]\n")
    payload = run_bench(config, names=names, jobs=jobs, quick=args.quick)
    target = write_bench(payload, args.out if args.out else bench_path())

    experiments: Dict[str, Dict[str, object]] = payload["experiments"]  # type: ignore[assignment]
    for name, row in experiments.items():
        mark = "ok " if row["ok"] else "FAIL"
        print(f"[{mark}] {name:10s} cold {row['cold_seconds']:7.2f}s  "
              f"warm {row['warm_seconds']:7.2f}s  "
              f"{row['requests_per_sec']:,.0f} req/s")
    totals: Dict[str, object] = payload["totals"]  # type: ignore[assignment]
    print(f"\ntotal: cold {totals['cold_seconds']:.2f}s, "
          f"warm {totals['warm_seconds']:.2f}s "
          f"(store hits cold {totals['cold_store_hits']}, "
          f"warm {totals['warm_store_hits']})")
    print(f"[bench: {target}]")
    return EXIT_OK if all(row["ok"] for row in experiments.values()) else EXIT_FAILURE


def _run_verify_goldens(argv: List[str]) -> int:
    from repro.qa.goldens import GOLDEN_CONFIG, default_golden_dir, verify_goldens

    parser = argparse.ArgumentParser(
        prog="repro verify-goldens",
        description=(
            "Recompute every experiment at the pinned golden configuration "
            "and diff the structured results against tests/golden/."
        ),
        parents=[_world_parent(GOLDEN_CONFIG), _cache_parent()],
    )
    parser.add_argument("--update", action="store_true",
                        help="regenerate the golden snapshots instead of diffing")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--golden-dir", default=None, metavar="DIR",
                        help="golden snapshot directory "
                             "(default: nearest tests/golden)")
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="NAME",
                        help="verify only this experiment (repeatable)")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the JSON run manifest here")
    args = parser.parse_args(argv)

    names = args.experiment or None
    unknown = [name for name in (names or []) if name not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    config = WorldConfig.from_args(args, base=GOLDEN_CONFIG)
    golden_dir = args.golden_dir if args.golden_dir else default_golden_dir()
    cache_dir = _cache_dir_from_args(args)
    print(f"[goldens: {golden_dir}; world: {config.n_sites} sites, "
          f"{config.n_days} days, seed {config.seed}; jobs {max(1, args.jobs)}]\n")
    report = verify_goldens(
        golden_dir,
        names=names,
        config=config,
        jobs=max(1, args.jobs),
        update=args.update,
        cache_dir=cache_dir,
        max_bytes=_default_max_bytes(),
        manifest_path=args.manifest,
    )
    print(report.render())
    if report.manifest_file is not None:
        print(f"[manifest: {report.manifest_file}]")
    return EXIT_OK if report.ok else EXIT_FAILURE


def _run_verify_invariants(argv: List[str]) -> int:
    from repro.qa.goldens import GOLDEN_CONFIG
    from repro.qa.invariants import INVARIANTS, run_invariants

    parser = argparse.ArgumentParser(
        prog="repro verify-invariants",
        description="Check the metamorphic invariant registry over a world.",
        parents=[_world_parent(GOLDEN_CONFIG)],
    )
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run only this invariant (repeatable)")
    parser.add_argument("--list", action="store_true", dest="list_invariants",
                        help="list registered invariants and exit")
    args = parser.parse_args(argv)

    if args.list_invariants:
        for invariant in INVARIANTS:
            print(f"  {invariant.name:24s} {invariant.description}")
        return EXIT_OK
    known = {invariant.name for invariant in INVARIANTS}
    unknown = [name for name in args.only if name not in known]
    if unknown:
        print(f"unknown invariant(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(sorted(known))}", file=sys.stderr)
        return EXIT_USAGE
    config = WorldConfig.from_args(args, base=GOLDEN_CONFIG)
    started = time.perf_counter()
    ctx = experiment_context(config=config)
    print(f"[world: {config.n_sites} sites, {config.n_days} days, seed "
          f"{config.seed}; ready in {time.perf_counter() - started:.1f}s]\n")
    outcomes = run_invariants(ctx, names=args.only or None)
    failed = 0
    for outcome in outcomes:
        mark = "ok " if outcome.ok else "FAIL"
        print(f"[{mark}] {outcome.name} ({outcome.seconds:.2f}s)")
        for violation in outcome.violations:
            print(f"       {violation}")
        failed += 0 if outcome.ok else 1
    print(f"\n{len(outcomes) - failed}/{len(outcomes)} invariants hold")
    return EXIT_FAILURE if failed else EXIT_OK


def _run_validate(argv: List[str]) -> int:
    from repro.worldgen.validate import validate_world

    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Run the structural self-checks against a world.",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    args = parser.parse_args(argv)
    ctx = _context_from_args(args)
    results = validate_world(ctx.world)
    failed = 0
    for result in results:
        mark = "ok " if result.passed else "FAIL"
        print(f"[{mark}] {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    print(f"\n{len(results) - failed}/{len(results)} checks passed")
    return EXIT_FAILURE if failed else EXIT_OK


def _run_summary(argv: List[str]) -> int:
    from repro.worldgen.summary import summarize_world

    parser = argparse.ArgumentParser(
        prog="repro summary",
        description="Describe a generated world.",
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    args = parser.parse_args(argv)
    ctx = _context_from_args(args)
    print(summarize_world(ctx.world))
    return EXIT_OK


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"


def _run_cache(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent artifact store.",
    )
    parser.add_argument("action", choices=["stats", "ls", "clear"],
                        help="what to do with the store")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-toplists)",
    )
    parser.add_argument(
        "--quarantined", action="store_true",
        help="ls: list quarantined blobs (failed checksum verification) "
             "instead of live entries",
    )
    args = parser.parse_args(argv)
    root = args.cache_dir if args.cache_dir else str(default_cache_dir())
    store = ArtifactStore(root, _default_max_bytes())

    if args.action == "clear":
        freed = store.clear()
        print(f"cleared {root} ({_format_bytes(freed)} freed)")
        return EXIT_OK

    entries = store.quarantined() if args.quarantined else store.entries()
    if args.action == "ls":
        if not entries:
            what = "quarantine" if args.quarantined else "store"
            print(f"(empty {what} at {root})")
            return EXIT_OK
        for entry in entries:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(entry.mtime))
            print(f"{entry.size:>12d}  {stamp}  {entry.key}")
        return EXIT_OK
    entries = store.entries()

    total = sum(entry.size for entry in entries)
    by_kind: dict = {}
    for entry in entries:
        parts = entry.key.split("/")
        # Layout: v<schema>/<config>/<kind>/...
        kind = parts[2] if len(parts) > 2 else parts[-1]
        count, size = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, size + entry.size)
    configs = {entry.key.split("/")[1] for entry in entries if "/" in entry.key}
    cap = store.max_bytes
    print(f"store: {root}")
    print(f"entries: {len(entries)}  configs: {len(configs)}  "
          f"size: {_format_bytes(total)}"
          + (f" / cap {_format_bytes(cap)}" if cap else ""))
    for kind in sorted(by_kind):
        count, size = by_kind[kind]
        print(f"  {kind:<10s} {count:>5d} entries  {_format_bytes(size)}")
    quarantined = store.quarantined()
    if quarantined:
        size = sum(entry.size for entry in quarantined)
        print(f"quarantined: {len(quarantined)} blob(s), {_format_bytes(size)} "
              "(repro cache ls --quarantined)")
    return EXIT_OK


def _run_chaos(argv: List[str]) -> int:
    """Run experiments under a fault plan and require golden-clean results."""
    import shutil
    import tempfile

    from repro.faults import FaultPlan, default_chaos_plan
    from repro.gates import QUICK_EXPERIMENTS, GateRun
    from repro.qa.goldens import GOLDEN_CONFIG, default_golden_dir, verify_payload
    from repro.runner import RetryPolicy, run_experiments

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Robustness gate: run experiments under a deterministic "
            "fault-injection plan (corrupt reads, disk-full writes, worker "
            "crashes, hangs) and require every one to complete with "
            "golden-identical results anyway. Exits nonzero on any "
            "failure, any golden drift, or if no fault actually fired."
        ),
    )
    parser.add_argument("--seed", dest="chaos_seed", type=int, default=1337,
                        metavar="N",
                        help="fault-plan seed (default 1337); decides which "
                             "experiments draw which faults, deterministically")
    parser.add_argument("--sites", type=int, default=None, metavar="N",
                        help=f"site universe size "
                             f"(default {GOLDEN_CONFIG.n_sites} — the golden "
                             "scale; changing it needs matching --golden-dir)")
    parser.add_argument("--days", type=int, default=None, metavar="N",
                        help=f"simulated days (default {GOLDEN_CONFIG.n_days})")
    parser.add_argument("--world-seed", dest="seed", type=int, default=None,
                        metavar="N",
                        help=f"world seed (default {GOLDEN_CONFIG.seed})")
    parser.add_argument("--plan", default=None, metavar="PATH",
                        help="load a fault plan from JSON instead of the "
                             "seeded default plan")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="supervised worker processes (default 2)")
    parser.add_argument("--quick", action="store_true",
                        help=f"run only the cheap subset "
                             f"({', '.join(QUICK_EXPERIMENTS)}) — the CI smoke")
    parser.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS",
                        help="per-experiment deadline (default 120); hung "
                             "workers are killed and resubmitted")
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="NAME",
                        help="run only this experiment (repeatable)")
    parser.add_argument("--manifest", default="chaos-manifest.json",
                        metavar="PATH",
                        help="chaos run manifest path "
                             "(default ./chaos-manifest.json)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact store root (default: a throwaway "
                             "directory, removed afterwards — chaos never "
                             "pollutes the real cache)")
    parser.add_argument("--golden-dir", default=None, metavar="DIR",
                        help="golden snapshot directory "
                             "(default: nearest tests/golden)")
    args = parser.parse_args(argv)

    names = list(args.experiment) if args.experiment else (
        list(QUICK_EXPERIMENTS) if args.quick else list(SPECS)
    )
    unknown = [name for name in names if name not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    config = WorldConfig.from_args(args, base=GOLDEN_CONFIG)
    golden_dir = Path(args.golden_dir if args.golden_dir else default_golden_dir())
    # A missing golden would only surface after every experiment ran, as
    # drift; name the directory up front instead.
    no_golden = [name for name in names if not (golden_dir / f"{name}.json").is_file()]
    if no_golden:
        print(f"no golden for {', '.join(no_golden)} in {golden_dir}; "
              "pass --golden-dir", file=sys.stderr)
        return EXIT_USAGE
    if args.plan is not None:
        try:
            plan = FaultPlan.from_json(Path(args.plan).read_text())
        except (OSError, ValueError) as error:
            print(f"unreadable fault plan {args.plan}: {error}", file=sys.stderr)
            return EXIT_USAGE
    else:
        # Hangs must outlast the deadline by a wide margin so "recovered
        # from a hang" always means "the timeout fired", never "it woke up".
        plan = default_chaos_plan(
            args.chaos_seed, names, hang_seconds=max(args.timeout * 4, 30.0)
        )
    scratch = args.cache_dir is None
    cache_dir = (
        tempfile.mkdtemp(prefix="repro-chaos-") if scratch else args.cache_dir
    )
    jobs = max(1, args.jobs)
    print(f"[chaos: seed {plan.seed}, {len(plan.rules)} fault rule(s); "
          f"world: {config.n_sites} sites, {config.n_days} days, seed "
          f"{config.seed}; jobs {jobs}; timeout {args.timeout:.0f}s; "
          f"cache {cache_dir}{' (scratch)' if scratch else ''}]\n")
    try:
        payloads, manifest, manifest_file = run_experiments(
            names,
            config,
            jobs=jobs,
            cache_dir=cache_dir,
            max_bytes=_default_max_bytes(),
            manifest_path=args.manifest,
            keep_data=True,
            timeout=args.timeout,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
        )
    finally:
        if scratch:
            shutil.rmtree(cache_dir, ignore_errors=True)

    golden_ok = True
    by_name = {outcome.name: outcome for outcome in manifest.outcomes}
    for payload in payloads:
        name = str(payload["name"])
        outcome = by_name[name]
        status = verify_payload(
            name, payload, golden_dir / f"{name}.json", config, update=False
        )
        outcome.golden_status = status.status
        golden_ok = golden_ok and status.ok
        faults = dict(payload.get("faults", {}))
        notes = [f"{site.split('.')[-1]} x{count}" for site, count in sorted(faults.items())]
        if outcome.submissions > 1:
            notes.append(f"resubmitted x{outcome.submissions - 1}")
        if outcome.attempts > 1:
            notes.append(f"{outcome.attempts} attempts")
        mark = "ok " if outcome.ok and status.ok else "FAIL"
        detail = status.status if outcome.ok else (
            "timeout" if outcome.timed_out
            else "worker died" if outcome.worker_died
            else "error"
        )
        suffix = f"  [{', '.join(notes)}]" if notes else ""
        print(f"[{mark}] {name:10s} {detail:8s} ({outcome.seconds:5.1f}s){suffix}")
        if not outcome.ok and outcome.error:
            print(f"       {outcome.error.strip().splitlines()[-1]}")
    if manifest_file is not None:
        manifest.write(manifest_file)

    block = manifest.faults or {}
    injected: Dict[str, int] = dict(block.get("injected", {}))
    timeouts = int(block.get("timeouts", 0))
    deaths = int(block.get("worker_deaths", 0))
    total_faults = sum(injected.values()) + timeouts + deaths
    summary = ", ".join(f"{site}={count}" for site, count in sorted(injected.items()))
    print(f"\nfaults injected: {total_faults} "
          f"({summary or 'none'}; timeouts {timeouts}, worker deaths {deaths}, "
          f"resubmissions {int(block.get('resubmissions', 0))})")
    recovered = list(block.get("recovered", []))
    if recovered:
        print(f"recovered: {', '.join(recovered)}")
    if manifest_file is not None:
        print(f"[manifest: {manifest_file}]")

    run = GateRun("chaos")
    completed = sum(1 for outcome in manifest.outcomes if outcome.ok)
    run.check("experiments_recovered", completed == len(manifest.outcomes),
              completed, len(manifest.outcomes),
              "every experiment completed under faults")
    run.check("golden_clean", golden_ok,
              detail="every result identical to its golden under faults")
    run.check("faults_fired", total_faults >= 1, total_faults, 1,
              "the plan exercised at least one fault")
    # A rule whose target the run never touches leaves its recovery path
    # untested while the total above still passes, so each must fire.
    evidence = {"worker.crash": deaths, "worker.hang": timeouts}
    silent = [f"{rule.site} {rule.match}" for rule in plan.rules
              if evidence.get(rule.site, injected.get(rule.site, 0)) < 1]
    run.check("rules_fired", not silent, len(plan.rules) - len(silent),
              len(plan.rules),
              f"silent: {', '.join(silent)}" if silent else "every plan rule fired")
    print("\n" + run.render())
    return EXIT_OK if run.ok else EXIT_FAILURE


def _run_serve(argv: List[str]) -> int:
    """Serve precomputed results over HTTP (or run the resilience selftest)."""
    from repro.faults import FaultPlan
    from repro.faults import inject as fault_inject
    from repro.qa.goldens import GOLDEN_CONFIG, default_golden_dir
    from repro.serve import AccessLog, MetricsService, ServeSettings
    from repro.serve.server import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Resilient metrics service: expose precomputed results over "
            "HTTP (/v1/experiments, /v1/lists/<provider>/<day>, /healthz, "
            "/readyz, /metricz) with per-request deadlines, bounded-queue "
            "load shedding, a circuit breaker around artifact-store reads "
            "(last-known-good fallback + store repair), and graceful drain "
            "on SIGTERM/SIGINT."
        ),
        parents=[_world_parent(BENCH_CONFIG), _cache_parent()],
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="N",
                        help=f"bind port (default {DEFAULT_PORT}; 0 picks "
                             "an ephemeral port)")
    parser.add_argument("--jobs", type=int, default=8, metavar="N",
                        help="max concurrent /v1 requests (default 8); "
                             "beyond this requests queue, then shed")
    parser.add_argument("--queue-depth", type=int, default=16, metavar="N",
                        help="requests allowed to wait for a slot before "
                             "shedding (default 16)")
    parser.add_argument("--deadline-ms", type=float, default=1000.0, metavar="MS",
                        help="per-request budget for /v1 endpoints "
                             "(default 1000)")
    parser.add_argument("--drain-seconds", type=float, default=5.0,
                        metavar="SECONDS",
                        help="budget for finishing in-flight requests on "
                             "SIGTERM (default 5)")
    parser.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                        help="consecutive store-read failures that open the "
                             "circuit (default 3)")
    parser.add_argument("--breaker-cooldown", type=float, default=None,
                        metavar="SECONDS",
                        help="open time before a half-open probe "
                             "(default 1.0 serving, 0.4 under --selftest)")
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="inject faults from this plan JSON under live "
                             "traffic (see repro.faults)")
    parser.add_argument("--access-log", default=None, metavar="PATH",
                        help="append structured logfmt access log here")
    parser.add_argument("--golden-dir", default=None, metavar="DIR",
                        help="golden snapshot directory for warmup "
                             "verification (default: nearest tests/golden)")
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="NAME",
                        help="expose only this experiment (repeatable; "
                             "default: the whole registry)")
    parser.add_argument("--quick", action="store_true",
                        help="serve at golden scale (the config "
                             "`repro all --quick` populates)")
    parser.add_argument("--selftest", action="store_true",
                        help="boot the service on an ephemeral port, replay "
                             "a deterministic chaos request mix, assert "
                             "availability / golden bodies / shed headers / "
                             "breaker cycle / clean drain, then exit")
    parser.add_argument("--chaos-seed", type=int, default=1337, metavar="N",
                        help="selftest: fault-plan seed (default 1337)")
    args = parser.parse_args(argv)

    unknown = [name for name in args.experiment if name not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    cache_dir = _cache_dir_from_args(args)
    if cache_dir is None:
        print("repro serve reads precomputed results from the artifact "
              "store; it cannot run with --no-cache", file=sys.stderr)
        return EXIT_USAGE
    config = WorldConfig.from_args(
        args, base=GOLDEN_CONFIG if args.quick else BENCH_CONFIG
    )
    plan = None
    if args.fault_plan is not None:
        try:
            plan = FaultPlan.from_json(Path(args.fault_plan).read_text())
        except (OSError, ValueError) as error:
            print(f"unreadable fault plan {args.fault_plan}: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.golden_dir is not None:
        golden_dir = Path(args.golden_dir)
    else:
        try:
            golden_dir = Path(default_golden_dir())
        except (OSError, FileNotFoundError):
            golden_dir = None
    settings = ServeSettings(
        host=args.host,
        port=0 if args.selftest else args.port,
        max_inflight=max(1, args.jobs),
        queue_depth=max(0, args.queue_depth),
        deadline_ms=args.deadline_ms,
        drain_seconds=args.drain_seconds,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=(
            args.breaker_cooldown if args.breaker_cooldown is not None
            else (0.4 if args.selftest else 1.0)
        ),
    )
    access_log = AccessLog(args.access_log) if args.access_log else AccessLog()

    if args.selftest:
        from repro.gates import QUICK_EXPERIMENTS
        from repro.serve.selftest import run_selftest

        names = args.experiment or list(QUICK_EXPERIMENTS)
        print(f"[selftest: {len(names)} experiment(s); world: "
              f"{config.n_sites} sites, {config.n_days} days, seed "
              f"{config.seed}; cache {cache_dir}]\n")
        report = run_selftest(
            config,
            cache_dir,
            names=names,
            plan=plan,
            seed=args.chaos_seed,
            settings=settings,
            golden_dir=golden_dir,
            access_log=access_log,
            jobs=max(1, args.jobs),
        )
        print(report.render())
        if args.access_log:
            print(f"\n[access log: {args.access_log}]")
        return EXIT_OK if report.ok else EXIT_FAILURE

    store = ArtifactStore(cache_dir, _default_max_bytes())
    service = MetricsService(
        config,
        store,
        settings=settings,
        names=args.experiment or None,
        golden_dir=golden_dir,
        access_log=access_log,
    )
    if plan is not None:
        fault_inject.activate(plan)
        print(f"[fault plan armed: seed {plan.seed}, "
              f"{len(plan.rules)} rule(s)]")
    print(f"[warming: {config.n_sites} sites, {config.n_days} days, seed "
          f"{config.seed}; cache {cache_dir}]")
    statuses = service.warm()
    available = sum(1 for status in statuses.values() if status == "ok")
    for name, status in sorted(statuses.items()):
        if status != "ok":
            print(f"[{name}: {status} — run `repro all"
                  f"{' --quick' if args.quick else ''}` to populate]",
                  file=sys.stderr)
    try:
        print(f"[serving {available}/{len(statuses)} experiment(s) on "
              f"http://{service.host}:{settings.port or '(ephemeral)'} — "
              "Ctrl-C or SIGTERM to drain]")
        try:
            return service.run_forever()
        except OSError as error:
            print(f"cannot bind {service.host}:{settings.port}: {error}",
                  file=sys.stderr)
            return EXIT_FAILURE
    finally:
        fault_inject.activate(None)


def _run_loadgen(argv: List[str]) -> int:
    """Drive persona load at the metrics service; gate on SLOs."""
    from repro.loadgen.harness import LoadgenOptions, run_loadgen
    from repro.loadgen.personas import parse_mix
    from repro.loadgen.report import SloThresholds

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description=(
            "Deterministic load harness for the metrics service: seeded "
            "client personas (dashboard pollers / researchers / health "
            "probes) driven open-loop (--rate) or closed-loop "
            "(--closed-loop), validating every response body, honoring "
            "Retry-After on sheds, and writing an SLO-gated "
            "LOADGEN_<yyyymmdd>.json report.  --spawn forks a chaos-armed "
            "`repro serve` child and additionally requires real admission-"
            "gate sheds under saturation, >= 99% golden-correct "
            "availability under faults, and a clean SIGTERM drain."
        ),
        parents=[_cache_parent()],
    )
    # Not required at the argparse level: `--compare PREV --against CUR`
    # is a pure file comparison and needs no target at all.  run_loadgen
    # validates the combination.
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--base-url", default=None, metavar="URL",
                        help="load an already-running service at this "
                             "http URL")
    target.add_argument("--spawn", action="store_true",
                        help="fork a `repro serve --quick` child against "
                             "the prebuilt cache (chaos fault plan armed "
                             "unless --no-faults)")
    pacing = parser.add_mutually_exclusive_group()
    pacing.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="open loop: constant arrival rate in "
                             "requests/second (honest latency under a "
                             "fixed offered load)")
    pacing.add_argument("--closed-loop", type=int, default=None, metavar="N",
                        help="closed loop: N concurrent persona sessions "
                             "(default 6; offered load adapts to service "
                             "speed)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="nominal run length (default 4 with --quick, "
                             "else 15; the chaos phase extends past it "
                             "until its minimum request volume is met)")
    parser.add_argument("--mix", default=None, metavar="SPEC",
                        help="persona weights, e.g. "
                             "dashboards=0.7,researchers=0.2,probes=0.1 "
                             "(the default)")
    parser.add_argument("--seed", type=int, default=7, metavar="N",
                        help="master seed for every persona schedule and "
                             "the chaos fault plan (default 7)")
    parser.add_argument("--slo", default=None, metavar="SPEC",
                        help="exit-code thresholds, e.g. "
                             "p99_ms=750,shed_rate=0.25,error_rate=0.01,"
                             "availability=0.99,body_drift=0 (latency and "
                             "rate keys judge the steady/chaos phase; "
                             "body_drift is run-wide)")
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="spawn: arm the child with this plan JSON "
                             "instead of the built-in chaos plan")
    parser.add_argument("--no-faults", action="store_true",
                        help="spawn: run the child fault-free (pure "
                             "capacity measurement)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="report path (default ./LOADGEN_<yyyymmdd>"
                             ".json)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="spawn: workers for populating missing "
                             "results (default 2)")
    parser.add_argument("--timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="per-request client timeout (default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke sizing: short phases at golden "
                             "scale")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="client processes; each drives a "
                             "deterministic shard of the persona roster "
                             "and the parent merges the spilled "
                             "histograms (default 1: in-process)")
    parser.add_argument("--no-keepalive", action="store_true",
                        help="open a fresh connection per request "
                             "instead of pooling persistent HTTP/1.1 "
                             "connections")
    parser.add_argument("--latency-out", default=None, metavar="PATH",
                        help="latency-trajectory path (default "
                             "./LATENCY_<yyyymmdd>.json)")
    parser.add_argument("--compare", default=None, metavar="PREV",
                        help="gate this run's p99 trajectory against a "
                             "previous LATENCY_*.json; regressions "
                             "beyond --p99-tolerance exit nonzero")
    parser.add_argument("--against", default=None, metavar="CUR",
                        help="with --compare and no target: compare two "
                             "existing LATENCY files without generating "
                             "any load")
    parser.add_argument("--p99-tolerance", type=float, default=None,
                        metavar="FRACTION",
                        help="allowed relative p99 growth for --compare "
                             "(default 0.5, i.e. +50%% plus a fixed "
                             "25ms slack)")
    args = parser.parse_args(argv)

    cache_dir = _cache_dir_from_args(args)
    if args.spawn and cache_dir is None:
        print("repro loadgen --spawn serves precomputed results; it cannot "
              "run with --no-cache", file=sys.stderr)
        return EXIT_USAGE
    try:
        options = LoadgenOptions(
            seed=args.seed,
            base_url=args.base_url,
            spawn=args.spawn,
            duration_seconds=args.duration,
            rate=args.rate,
            closed_loop=args.closed_loop,
            mix=parse_mix(args.mix),
            slo=SloThresholds.parse(args.slo),
            report_path=args.report,
            quick=args.quick,
            cache_dir=cache_dir,
            jobs=max(1, args.jobs),
            fault_plan=args.fault_plan,
            no_faults=args.no_faults,
            timeout=args.timeout,
            workers=args.workers,
            keepalive=not args.no_keepalive,
            latency_out=args.latency_out,
            compare=args.compare,
            against=args.against,
            **({} if args.p99_tolerance is None
               else {"p99_tolerance": args.p99_tolerance}),
        )
    except ValueError as error:
        print(f"bad loadgen options: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run_loadgen(options)
    except ValueError as error:
        # Inconsistent flags or an unreadable/mis-shaped LATENCY file.
        print(f"bad loadgen invocation: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, OSError) as error:
        print(f"loadgen failed: {error}", file=sys.stderr)
        return EXIT_FAILURE
    print(result.render())
    return EXIT_OK if result.ok else EXIT_FAILURE


def _run_netproxy(argv: List[str]) -> int:
    """Run the deterministic TCP chaos proxy until SIGINT/SIGTERM."""
    import signal
    import threading

    from repro.faults import FaultPlan, NetProxy, default_net_plan

    parser = argparse.ArgumentParser(
        prog="repro netproxy",
        description=(
            "Deterministic TCP chaos proxy: forwards every connection to "
            "the upstream, injecting seeded per-connection transport "
            "faults (resets, stalls, garbled/truncated/split writes, "
            "mid-response closes) from the net.* fault-plan sites. "
            "Prints the fault accounting and the fault-sequence digest "
            "on shutdown."
        ),
    )
    parser.add_argument("--listen", type=int, required=True, metavar="PORT",
                        help="port to accept client connections on")
    parser.add_argument("--listen-host", default="127.0.0.1", metavar="HOST",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--upstream", required=True, metavar="HOST:PORT",
                        help="where clean traffic is forwarded")
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="fault plan JSON (net.* rules); default: the "
                             "seeded built-in net plan")
    parser.add_argument("--seed", type=int, default=7, metavar="N",
                        help="seed for the built-in net plan (default 7); "
                             "ignored with --fault-plan")
    args = parser.parse_args(argv)

    host, _, port_text = args.upstream.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--upstream must be HOST:PORT, got {args.upstream!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.fault_plan is not None:
        try:
            plan = FaultPlan.from_json(Path(args.fault_plan).read_text())
        except (OSError, ValueError) as error:
            print(f"unreadable fault plan {args.fault_plan}: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        plan = default_net_plan(args.seed)

    proxy = NetProxy(
        host, int(port_text), plan=plan,
        host=args.listen_host, port=args.listen,
    )
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda *_: stop.set())
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        proxy.start()
    except OSError as error:
        print(f"cannot listen on {args.listen_host}:{args.listen}: {error}",
              file=sys.stderr)
        return EXIT_FAILURE
    print(f"[netproxy: {args.listen_host}:{proxy.port} -> {args.upstream}; "
          f"{len(plan.rules)} rule(s), seed {plan.seed}; Ctrl-C to stop]")
    try:
        stop.wait()
    finally:
        proxy.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    fired = proxy.fired_snapshot()
    print(f"connections: {proxy.connections}")
    print("fault fires: " + (
        ", ".join(f"{site}={n}" for site, n in sorted(fired.items()))
        or "none"
    ))
    print(f"fault digest: {proxy.fault_digest()}")
    return EXIT_OK


def _run_fault_gate(gate: Callable, prog: str, description: str,
                    argv: List[str]) -> int:
    """``repro chaos-net`` / ``repro chaos-data``: one gate run, rendered."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--seed", type=int, default=7, metavar="N",
                        help="fault-plan seed (default 7)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke sizing: short script (and, for "
                             "chaos-data, a small proof world)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="workers for populating missing results "
                             "(default 2)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact store root (default: the shared "
                             "cache — results are reused, never mutated)")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the fault-accounting manifest JSON here")
    args = parser.parse_args(argv)
    try:
        run = gate(seed=args.seed, quick=args.quick, cache_dir=args.cache_dir,
                   jobs=args.jobs, manifest_path=args.manifest)
    except (RuntimeError, OSError, ValueError) as error:
        print(f"{prog} failed: {error}", file=sys.stderr)
        return EXIT_FAILURE
    print(run.render())
    return EXIT_OK if run.ok else EXIT_FAILURE


def _run_chaos_net(argv: List[str]) -> int:
    """The transport-resilience acceptance gate."""
    from repro.loadgen.netchaos import run_chaos_net

    return _run_fault_gate(run_chaos_net, "repro chaos-net", (
        "Transport-resilience gate: drive a scripted load sequence "
        "through the deterministic chaos proxy into a chaos-armed "
        "serve child. Every armed net.* site must fire, availability "
        "must hold >= 99% with zero golden drift, and the "
        "fault-sequence digest must replay bit-for-bit."
    ), argv)


def _run_chaos_data(argv: List[str]) -> int:
    """The degraded-provider ingestion acceptance gate."""
    from repro.loadgen.datachaos import run_chaos_data

    return _run_fault_gate(run_chaos_data, "repro chaos-data", (
        "Degraded-data gate: prove the gap-tolerant Tranco windows "
        "equal to the Dowdall oracle over the same degraded input "
        "under an armed data-fault plan, then drive a scripted client mix "
        "against a data-chaos serve child. Every armed data.* site "
        "must fire, every degraded day must be marked in "
        "data_health, availability must hold >= 99%, and both "
        "fault-sequence digests must replay bit-for-bit."
    ), argv)


#: Subcommand dispatch table; anything not listed is an experiment id.
_COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "export": _run_export,
    "recommend": _run_recommend,
    "ranking": _run_ranking,
    "validate": _run_validate,
    "summary": _run_summary,
    "cache": _run_cache,
    "bench": _run_bench,
    "verify-goldens": _run_verify_goldens,
    "verify-invariants": _run_verify_invariants,
    "chaos": _run_chaos,
    "serve": _run_serve,
    "loadgen": _run_loadgen,
    "netproxy": _run_netproxy,
    "chaos-net": _run_chaos_net,
    "chaos-data": _run_chaos_data,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (never raises
    ``SystemExit`` — argparse usage errors come back as 2)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        handler = _COMMANDS.get(argv[0]) if argv else None
        if handler is not None:
            return handler(argv[1:])
        return _run_experiments(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 on --help; normalize to
        # an int return so embedding callers get uniform exit codes.
        code = exit_.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except BrokenPipeError:
        # Output piped to a consumer that exited early (`repro cache ls |
        # head`): the Unix convention is to die quietly, not traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
