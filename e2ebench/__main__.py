"""Command line: run workloads, or compare two sets of result files.

    python -m e2ebench [--workload W] [--seed N] [--repeats N] [--seconds S]
                       [--quick] [--trace [0|1]] [--out DIR]
    python -m e2ebench compare PARENT.json CHANGE.json [...]

A run prints every metric by name with its unit, writes one result JSON
(and, traced, ``trace-<workload>.json``) into ``--out``, and ends with a
one-line JSON summary: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics
traced).  It exits 1 when any output fails its checks, 2 on usage errors
or when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

from e2ebench import compare, procs, stats
from e2ebench.spec import (DEFAULT_SEED, END_TO_END, FULL, PER_LAYER, QUICK,
                           WORKLOAD_BY_NAME, WORKLOAD_NAMES)
from e2ebench.workloads import Bench, Runner, measure

WORK = procs.ROOT / ".e2ebench"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m e2ebench",
        description="End-to-end benchmark of the repro pipeline and list service.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"world and request seed (default {DEFAULT_SEED})")
    parser.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="measured repeats per workload (default 3; 1 with "
                             "--quick or --seconds)")
    parser.add_argument("--seconds", type=float, default=0.0, metavar="S",
                        help="keep repeating until S seconds of measuring have passed")
    parser.add_argument("--quick", action="store_true",
                        help=f"golden scale ({QUICK.sites} sites x {QUICK.days} days, "
                             f"{QUICK.hot_requests} serve_hot requests)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run each workload once traced and report the "
                             "per-layer metrics")
    parser.add_argument("--out", type=Path, default=WORK / "results", metavar="DIR",
                        help="where the result JSON and traces go "
                             "(default .e2ebench/results)")
    return parser


def workload_doc(outcome, trace_file) -> Dict[str, object]:
    e2e = {}
    for metric in END_TO_END:
        samples = (outcome.setup_s if metric.name == "setup_s"
                   else [r.values[metric.name] for r in outcome.repeats])
        e2e[metric.name] = {"unit": metric.unit, "better": metric.better,
                            "bound": metric.bound, **stats.summary(samples)}
    doc = {
        "repeats": len(outcome.repeats),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "correct": outcome.failed == 0,
        "errors": outcome.errors[:20],
        "digests": outcome.repeats[0].digests,
        "latency_tail": [r.tail for r in outcome.repeats],
        "end_to_end": e2e,
    }
    if outcome.per_layer is not None:
        doc["per_layer"] = {m.name: {"value": outcome.per_layer[m.name], "unit": m.unit}
                            for m in PER_LAYER}
        doc["per_layer_detail"] = outcome.per_layer_detail
        doc["trace_file"] = trace_file
    return doc


def run(args: argparse.Namespace) -> int:
    if not (procs.SRC / "repro").is_dir():
        print(f"no program to measure: {procs.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))  # the checks read stored results in-process
    # SIGTERM unwinds like an exception, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scale = QUICK if args.quick else FULL
    workloads = [WORKLOAD_BY_NAME[name] for name in args.workload or WORKLOAD_NAMES]
    repeats = args.repeats or (1 if args.quick or args.seconds else 3)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    workdir = WORK / f"run-{stamp}-{os.getpid()}"
    workdir.mkdir(parents=True)
    args.out.mkdir(parents=True, exist_ok=True)
    say = functools.partial(print, flush=True)
    say(f"[e2ebench: {', '.join(w.name for w in workloads)}; "
        f"{scale.sites} sites x {scale.days} days; seed {args.seed}; "
        f"{repeats} repeat(s) min, {args.seconds:g}s min; "
        f"trace {'on' if args.trace else 'off'}]")
    bench = Bench(scale, args.seed, workdir, WORK / "stores", say)
    result = {
        "benchmark": "e2ebench",
        "schema": 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": args.seed,
        "scale": {"name": scale.name, "sites": scale.sites, "days": scale.days,
                  "hot_requests": scale.hot_requests},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        runners = [Runner(bench, workload) for workload in workloads]
        for runner in runners:
            runner.set_up()
        measure(runners, repeats, args.seconds)
        if args.trace:
            for runner in runners:
                runner.trace(args.out / f"trace-{runner.workload.name}.json")
    except procs.ChildFailed as error:
        print(error, file=sys.stderr)
        if bench.log.exists():  # the work directory goes away below
            print(bench.log.read_text(errors="replace")[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for runner in runners:
        name = runner.workload.name
        doc = workload_doc(runner.finish(), f"trace-{name}.json" if args.trace else None)
        result["workloads"][name] = doc
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        summary["correct"] = summary["correct"] and doc["correct"]
        _report(name, doc, args.trace, summary["metrics"], len(workloads) > 1)
    target = args.out / f"e2ebench-{stamp}-seed{args.seed}.json"
    target.write_text(json.dumps(result, indent=1) + "\n")
    say(f"[result: {target}]")
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def _report(workload: str, doc: Dict[str, object], traced: int,
            metrics: Dict[str, object], prefixed: bool) -> None:
    """Print a workload's metrics and add them to the summary line."""
    print(f"\n[{workload}] {doc['repeats']} repeat(s), {doc['attempted']} operation(s), "
          f"{doc['failed']} failed")
    for error in doc["errors"][:5]:
        print(f"  ERROR {error}")
    for name, row in doc["end_to_end"].items():
        print(f"  {name:16s} {row['median']:12.4f} {row['unit']:5s} "
              f"(median of {len(row['samples'])}; {row['min']:.4f}..{row['max']:.4f})")
        if not traced:
            key = f"{workload}.{name}" if prefixed else name
            metrics[key] = {"value": row["median"], "unit": row["unit"]}
    for name, row in doc.get("per_layer", {}).items():
        print(f"  {name:40s} {row['value']:14.4f} {row['unit']}")
        key = f"{workload}.{name}" if prefixed else name
        metrics[key] = row


def main(argv: Sequence[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
