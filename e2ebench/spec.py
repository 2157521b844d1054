"""What the benchmark runs and reports: scales, workloads and metrics.

``BENCHMARK.json`` at the repository root declares the same workload and
metric names for tools that drive the benchmark; the tests keep the two
in step.  A metric's ``should_move`` names the end-to-end metric and
workload (``metric@workload``) that a gain in its layer should improve;
every other pairing is predicted flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

DEFAULT_SEED = 20220201


@dataclass(frozen=True)
class Scale:
    """World size and request volume for one benchmark scale."""

    name: str
    sites: int
    days: int
    hot_requests: int

    @property
    def world_args(self) -> Tuple[str, ...]:
        return ("--sites", str(self.sites), "--days", str(self.days))


#: ``BENCH_CONFIG`` (20k sites x 28 days): the scale every claim is made at.
FULL = Scale("full", 20_000, 28, 30_000)
#: Golden scale (2500 sites x 8 days): the ``--quick`` smoke.
QUICK = Scale("quick", 2_500, 8, 3_000)

#: ``repro.providers.registry.PROVIDER_ORDER``.
PROVIDERS: Tuple[str, ...] = (
    "alexa", "majestic", "secrank", "tranco", "trexa", "umbrella", "crux",
)
#: ``repro.core.experiments.SPECS``, in registry order.
EXPERIMENTS: Tuple[str, ...] = (
    "fig1", "fig8", "table1", "table2", "fig2", "fig3", "fig5", "fig6",
    "fig4", "fig7", "table3", "survey", "agreement", "stability",
)
#: Serve routes with per-route layer metrics.  ``not-modified`` is every
#: request sent with ``If-None-Match``, whatever its path.
ROUTES: Tuple[str, ...] = (
    "lists", "lists-diff", "lists-stability", "experiment", "experiments",
    "not-modified",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "serve"
    store: Optional[str]  # the set-up store each repeat copies: "full", "fig1" or none
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "pipeline_cold", "pipeline", None,
        "repro all from an empty store: every layer computes, provider "
        "lists and normalize dominate, the store only writes",
    ),
    Workload(
        "pipeline_warm", "pipeline", "full",
        "repro all over a filled store: store reads and decode, normalize "
        "and analysis; a provider change must leave it flat",
    ),
    Workload(
        "serve_lists", "serve", "fig1",
        "first touch of every daily list, diff and stability endpoint: "
        "provider compute and snapshot writes inside requests",
    ),
    Workload(
        "serve_hot", "serve", "full",
        "30k requests over a hot set far smaller than every cache: "
        "admission, routing, serialization, socket writes and 304s",
    ),
)
WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
WORKLOAD_NAMES: Tuple[str, ...] = tuple(WORKLOAD_BY_NAME)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # end-to-end only: allowed relative worsening
    should_move: Tuple[str, ...] = ()


#: An operation is an HTTP request in the serve workloads and an experiment
#: in the pipeline workloads, whose latency runs from the start of the
#: batch until its result is stored.  Time bounds are 25%: on a shared
#: 2-vCPU host the same CPU-bound work runs up to half again as long from
#: one minute to the next, so run-to-run spreads of 10-20% are the floor.
#: A server's peak RSS moves up to 7% with the world seed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.20),
    Metric("ops_per_s", "op/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
)


def _per_layer() -> Tuple[Metric, ...]:
    cold, warm = "wall_s@pipeline_cold", "wall_s@pipeline_warm"
    lists = ("wall_s@serve_lists", "latency_p90_ms@serve_lists")
    hot_dispatch = ("ops_per_s@serve_hot", "latency_p99_ms@serve_hot",
                    "latency_p90_ms@serve_lists")
    route_moves = {
        "lists": ("latency_p50_ms@serve_lists", "latency_p90_ms@serve_lists",
                  "latency_p50_ms@serve_hot", "latency_p99_ms@serve_hot"),
        "lists-diff": ("latency_p50_ms@serve_lists", "latency_p90_ms@serve_lists"),
        "lists-stability": ("latency_p90_ms@serve_lists",),
    }
    hot_route = ("latency_p50_ms@serve_hot", "latency_p90_ms@serve_hot",
                 "latency_p99_ms@serve_hot")
    out = [
        Metric("worldgen.build_world_s", "s", "lower", should_move=(cold,)),
        Metric("traffic.day_s", "s", "lower", should_move=(cold,)),
        Metric("traffic.site_days_per_s", "site-days/s", "higher", should_move=(cold,)),
        Metric("cdn.day_counts_s", "s", "lower", should_move=(cold,)),
        Metric("cdn.site_days_per_s", "site-days/s", "higher", should_move=(cold,)),
    ]
    for provider in PROVIDERS:
        moves = (cold,) + lists
        out += [
            Metric(f"providers.{provider}.list_s", "s", "lower", should_move=moves),
            Metric(f"providers.{provider}.lists", "count", "lower"),
            Metric(f"providers.{provider}.lists_per_s", "lists/s", "higher",
                   should_move=moves),
        ]
    out += [
        Metric("normalize.list_s", "s", "lower", should_move=(cold, warm)),
        Metric("normalize.lists", "count", "lower"),
        Metric("normalize.lists_per_s", "lists/s", "higher", should_move=(cold, warm)),
    ]
    out += [
        Metric(f"analysis.{name}_s", "s", "lower", should_move=(cold, warm))
        for name in EXPERIMENTS
    ]
    reads = (warm, "latency_p50_ms@serve_hot")
    writes = (cold, "wall_s@serve_lists")
    out += [
        Metric("store.read_s", "s", "lower", should_move=reads),
        Metric("store.reads", "count", "lower"),
        Metric("store.read_mb", "MiB", "lower", should_move=reads),
        Metric("store.write_s", "s", "lower", should_move=writes),
        Metric("store.writes", "count", "lower"),
        Metric("store.write_mb", "MiB", "lower", should_move=writes),
        Metric("store.hit_ratio", "ratio", "higher", should_move=reads),
        Metric("serve.warm_s", "s", "lower",
               should_move=("setup_s@serve_lists", "setup_s@serve_hot")),
    ]
    for route in ROUTES:
        moves = route_moves.get(route, hot_route)
        out += [
            Metric(f"serve.{route}.server_ms_p50", "ms", "lower", should_move=moves),
            Metric(f"serve.{route}.server_ms_tail", "ms", "lower", should_move=moves),
            Metric(f"serve.{route}.client_ms_tail", "ms", "lower", should_move=moves),
        ]
    out += [
        Metric("serve.handle_self_s", "s", "lower", should_move=hot_dispatch),
        Metric("serve.providers_s", "s", "lower", should_move=lists),
        Metric("serve.store_read_s", "s", "lower", should_move=hot_dispatch),
        Metric("serve.store_write_s", "s", "lower", should_move=lists),
        Metric("serve.snapshot_doc_s", "s", "lower", should_move=lists),
        Metric("serve.transport_ms_tail", "ms", "lower", should_move=hot_dispatch),
    ]
    # /metricz deltas over the load phase.  The load expects exact counts
    # of each (zero, or one 304 per conditional request), so any change
    # shows as requests failing their checks.
    failures = ("failed@serve_lists", "failed@serve_hot")
    out += [
        Metric(f"serve.{name}", "count", "lower", should_move=failures)
        for name in ("shed", "deadline_timeouts", "not_modified", "read_failures")
    ]
    out += [
        Metric("trace.coverage_frac", "ratio", "higher"),
        Metric("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
