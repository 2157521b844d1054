"""Runnable reproductions of every table and figure.

Each ``run_*`` function executes one experiment over an
:class:`~repro.core.pipeline.ExperimentContext` and returns an
:class:`ExperimentResult` holding both structured data (for assertions and
EXPERIMENTS.md) and rendered text (the same rows/series the paper
reports).  The CLI and the benchmark suite are thin wrappers around these.

Experiments are registered declaratively: each runner carries an
:class:`ExperimentSpec` (id, title, tags, required artifacts, default
magnitudes) in the :data:`SPECS` registry, which the CLI, the parallel
runner, the golden harness, and the metrics service all iterate as the
single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cdn.filters import ALL_COMBINATIONS, FINAL_SEVEN
from repro.core import report
from repro.core.bias import country_bias, intra_chrome_consistency, platform_bias
from repro.core.buckets import bookend_consensus_buckets, movement_matrix
from repro.core.normalize import deviation_by_magnitude
from repro.core.pipeline import ExperimentContext
from repro.core.regression import category_inclusion_odds
from repro.core.similarity import (
    pairwise_jaccard,
    pairwise_spearman,
    spearman,
)
from repro.core.survey import SCHEITLE_USAGE_RATES, usage_statistics
from repro.core.temporal import TemporalAnalysis, daily_series
from repro.providers.registry import PROVIDER_ORDER
from repro.weblib.categories import CATEGORIES
from repro.worldgen.countries import TELEMETRY_COUNTRIES

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "SPECS",
    "register",
    "experiment",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """One executed experiment.

    Attributes:
        name: experiment id (``fig1``, ``table3``...).
        title: human-readable title.
        data: structured results, keyed by what they are.
        text: rendered tables/heatmaps, ready to print.
    """

    name: str
    title: str
    data: Dict[str, object]
    text: str


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative registration record for one experiment.

    Attributes:
        id: stable experiment id (``fig1``, ``table3``, ``survey``...).
        title: human-readable title (what the CLI and manifests print).
        fn: the runner; takes an
          :class:`~repro.core.pipeline.ExperimentContext`, returns an
          :class:`ExperimentResult`.
        tags: free-form labels (``figure``, ``table``, ``context``...)
          for filtering in ``repro list``.
        required_artifacts: context artifacts the experiment consumes
          (names accepted by
          :meth:`~repro.core.pipeline.ExperimentContext.artifact`).  They
          are prefetched, in order, before ``fn`` runs, so stage spans in a
          trace attribute construction to the first experiment needing it.
        default_magnitudes: the paper magnitude labels the experiment
          reports at by default (documentation; empty = not magnitude
          parameterized).
    """

    id: str
    title: str
    fn: Callable[["ExperimentContext"], ExperimentResult]
    tags: Tuple[str, ...] = ()
    required_artifacts: Tuple[str, ...] = ("world",)
    default_magnitudes: Tuple[str, ...] = ()

    @property
    def summary(self) -> str:
        """First docstring line of the runner (for ``repro list``)."""
        doc = (self.fn.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.title


#: The experiment registry, in paper presentation order.  CLI, parallel
#: runner, golden harness, and the metrics service all iterate this.
SPECS: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to :data:`SPECS`.

    Raises:
        ValueError: when the id is already registered.
    """
    if spec.id in SPECS:
        raise ValueError(f"experiment {spec.id!r} already registered")
    SPECS[spec.id] = spec
    return spec


def experiment(
    id: str,
    title: str,
    *,
    tags: Sequence[str] = (),
    required_artifacts: Sequence[str] = ("world",),
    default_magnitudes: Sequence[str] = (),
) -> Callable[[Callable], Callable]:
    """Decorator form of :func:`register` for ``run_*`` functions."""

    def decorate(fn: Callable) -> Callable:
        register(
            ExperimentSpec(
                id=id,
                title=title,
                fn=fn,
                tags=tuple(tags),
                required_artifacts=tuple(required_artifacts),
                default_magnitudes=tuple(default_magnitudes),
            )
        )
        return fn

    return decorate


def _sample_days(ctx: ExperimentContext, count: int) -> List[int]:
    """Evenly spaced day sample across the window."""
    n_days = ctx.config.n_days
    count = min(count, n_days)
    return sorted({int(round(i * (n_days - 1) / max(1, count - 1))) for i in range(count)})


# ---------------------------------------------------------------------------
# Figure 1 / Figure 8: intra-Cloudflare metric consistency.


def _intra_cf(
    ctx: ExperimentContext, combos: Sequence[str], days: Sequence[int], depth: int
) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str], float]]:
    jj_acc: Dict[Tuple[str, str], List[float]] = {}
    rho_acc: Dict[Tuple[str, str], List[float]] = {}
    for day in days:
        lists = {combo: ctx.engine.ranking(day, combo)[:depth] for combo in combos}
        jj = pairwise_jaccard(lists)
        rho = pairwise_spearman(lists)
        for pair, value in jj.items():
            jj_acc.setdefault(pair, []).append(value)
        for pair, value in rho.items():
            rho_acc.setdefault(pair, []).append(value)
    jj_mean = {pair: float(np.mean(vals)) for pair, vals in jj_acc.items()}
    rho_mean = {pair: float(np.nanmean(vals)) for pair, vals in rho_acc.items()}
    return jj_mean, rho_mean


@experiment("fig1", "Intra-Cloudflare Metric Consistency",
            tags=("figure", "cdn"), required_artifacts=("engine",))
def run_fig1(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 1: consistency of the seven final Cloudflare metrics."""
    depth = max(50, ctx.engine.n_cf_sites // 5)
    days = _sample_days(ctx, 7)
    jj, rho = _intra_cf(ctx, FINAL_SEVEN, days, depth)
    off_diag = [v for (a, b), v in jj.items() if a != b]
    labels = list(FINAL_SEVEN)
    text = "\n\n".join(
        [
            report.format_heatmap(labels, labels, jj, title="(a) Jaccard Index"),
            report.format_heatmap(labels, labels, rho, title="(b) Spearman Correlation"),
        ]
    )
    return ExperimentResult(
        name="fig1",
        title="Intra-Cloudflare Metric Consistency",
        data={
            "jaccard": jj,
            "spearman": rho,
            "jaccard_band": (min(off_diag), max(off_diag)),
            "depth": depth,
            "days": days,
        },
        text=text,
    )


@experiment("fig8", "All 21 Intra-Cloudflare Popularity Metrics",
            tags=("figure", "cdn"), required_artifacts=("engine",))
def run_fig8(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 8: all 21 filter-aggregation combinations, single day."""
    depth = max(50, ctx.engine.n_cf_sites // 5)
    jj, rho = _intra_cf(ctx, ALL_COMBINATIONS, [0], depth)
    labels = list(ALL_COMBINATIONS)
    text = "\n\n".join(
        [
            report.format_heatmap(labels, labels, jj, title="(a) Jaccard Index (day 0)"),
            report.format_heatmap(labels, labels, rho, title="(b) Spearman Correlation (day 0)"),
        ]
    )
    return ExperimentResult(
        name="fig8",
        title="All 21 Intra-Cloudflare Popularity Metrics",
        data={"jaccard": jj, "spearman": rho, "depth": depth},
        text=text,
    )


# ---------------------------------------------------------------------------
# Table 1: Cloudflare coverage of top lists.


@experiment("table1", "Cloudflare Coverage of Top Lists",
            tags=("table",), required_artifacts=("providers", "evaluator"),
            default_magnitudes=("1K", "10K", "100K", "1M"))
def run_table1(ctx: ExperimentContext) -> ExperimentResult:
    """Table 1: percent of list entries served by Cloudflare."""
    rows = []
    coverage: Dict[str, Dict[str, float]] = {}
    for name in PROVIDER_ORDER:
        provider = ctx.providers[name]
        per_magnitude = {}
        row: List[object] = [name]
        for label, magnitude in zip(ctx.magnitude_labels, ctx.magnitudes):
            value = 100.0 * ctx.evaluator.coverage(provider, magnitude)
            per_magnitude[label] = value
            row.append(value)
        coverage[name] = per_magnitude
        rows.append(row)
    text = report.format_table(
        ["list"] + list(ctx.magnitude_labels),
        rows,
        title="Cloudflare Coverage of Top Lists (%)",
    )
    return ExperimentResult(
        name="table1",
        title="Cloudflare Coverage of Top Lists",
        data={"coverage": coverage},
        text=text,
    )


# ---------------------------------------------------------------------------
# Table 2: PSL deviation.


@experiment("table2", "PSL Deviation of Raw List Entries",
            tags=("table",), required_artifacts=("providers",),
            default_magnitudes=("1K", "10K", "100K", "1M"))
def run_table2(ctx: ExperimentContext) -> ExperimentResult:
    """Table 2: percent of raw entries deviating from the PSL domain."""
    rows = []
    deviation: Dict[str, Dict[str, float]] = {}
    mid_day = ctx.config.n_days // 2
    for name in PROVIDER_ORDER:
        ranked = ctx.providers[name].daily_list(mid_day)
        by_mag = deviation_by_magnitude(ctx.world, ranked, ctx.magnitudes)
        per_label = {
            label: 100.0 * by_mag[magnitude]
            for label, magnitude in zip(ctx.magnitude_labels, ctx.magnitudes)
        }
        deviation[name] = per_label
        rows.append([name] + [per_label[label] for label in ctx.magnitude_labels])
    text = report.format_table(
        ["list"] + list(ctx.magnitude_labels),
        rows,
        title="Percent of Domains Deviating from Public Suffix List",
    )
    return ExperimentResult(
        name="table2",
        title="PSL Deviation of Raw List Entries",
        data={"deviation": deviation},
        text=text,
    )


# ---------------------------------------------------------------------------
# Figure 2: top lists vs Cloudflare.


@experiment("fig2", "Correlation Between Top Lists and Cloudflare",
            tags=("figure",), required_artifacts=("providers", "evaluator"),
            default_magnitudes=("100K",))
def run_fig2(ctx: ExperimentContext, magnitude: Optional[int] = None) -> ExperimentResult:
    """Figure 2: every list against every final Cloudflare metric."""
    magnitude = magnitude if magnitude is not None else ctx.magnitudes[2]
    days = _sample_days(ctx, 7)
    matrix = ctx.evaluator.evaluate_matrix(
        ctx.providers, FINAL_SEVEN, magnitude, days=days
    )
    jj_cells = {
        (name, combo): matrix[name][combo].jaccard
        for name in PROVIDER_ORDER
        for combo in FINAL_SEVEN
    }
    rho_cells = {
        (name, combo): matrix[name][combo].spearman
        for name in PROVIDER_ORDER
        for combo in FINAL_SEVEN
    }
    # Metric agreement on the ordering of lists (the paper: rs = 1.0).
    orderings = []
    for combo in FINAL_SEVEN:
        scores = [matrix[name][combo].jaccard for name in PROVIDER_ORDER]
        orderings.append(np.argsort(np.argsort(scores)))
    agreement = []
    for i in range(len(orderings)):
        for j in range(i + 1, len(orderings)):
            agreement.append(spearman(orderings[i], orderings[j]).rho)

    text = "\n\n".join(
        [
            report.format_heatmap(
                list(PROVIDER_ORDER), list(FINAL_SEVEN), jj_cells,
                title=f"(a) Jaccard Index (magnitude={magnitude})",
            ),
            report.format_heatmap(
                list(PROVIDER_ORDER), list(FINAL_SEVEN), rho_cells,
                title="(b) Spearman Correlation",
            ),
            f"metric agreement on list ordering: mean rs = {np.mean(agreement):.3f}",
        ]
    )
    return ExperimentResult(
        name="fig2",
        title="Correlation Between Top Lists and Cloudflare",
        data={
            "matrix": matrix,
            "jaccard": jj_cells,
            "spearman": rho_cells,
            "ordering_agreement": float(np.mean(agreement)),
            "magnitude": magnitude,
            "days": days,
        },
        text=text,
    )


# ---------------------------------------------------------------------------
# Figure 3: temporal stability.


@experiment("fig3", "Popularity Metrics Over Time",
            tags=("figure", "temporal"),
            required_artifacts=("providers", "evaluator"),
            default_magnitudes=("1M",))
def run_fig3(ctx: ExperimentContext, combo: str = "all:requests") -> ExperimentResult:
    """Figure 3: daily correlation over the window at the 1M magnitude."""
    magnitude = ctx.magnitudes[3]
    series = {
        name: daily_series(
            ctx.evaluator, ctx.providers[name], combo, magnitude, ctx.config
        )
        for name in PROVIDER_ORDER
    }
    analysis = TemporalAnalysis(series=series)
    lines = ["Daily Jaccard (shade = value):"]
    for name in PROVIDER_ORDER:
        lines.append(report.format_series(name, list(series[name].jaccard)))
    lines.append("")
    lines.append("Daily Spearman:")
    for name in PROVIDER_ORDER:
        if not np.all(np.isnan(series[name].spearman)):
            lines.append(report.format_series(name, list(series[name].spearman)))
    lines.append("")
    lines.append(
        f"list-ordering stability across days: {analysis.ordering_stability():.3f}"
    )
    change_day = ctx.config.alexa_change_day
    jj_delta, rho_delta = analysis.trend_delta("alexa", change_day)
    lines.append(
        f"alexa accuracy change after day {change_day}: "
        f"jaccard {jj_delta:+.3f}, spearman {rho_delta:+.3f}"
    )
    return ExperimentResult(
        name="fig3",
        title="Popularity Metrics Over Time",
        data={
            "series": series,
            "analysis": analysis,
            "magnitude": magnitude,
            "umbrella_periodicity": analysis.periodicity_strength("umbrella"),
            "alexa_trend": (jj_delta, rho_delta),
        },
        text="\n".join(lines),
    )


# ---------------------------------------------------------------------------
# Figure 5 / Section 5.3: rank-magnitude movement.


@experiment("fig5", "Rank-Magnitude Movement vs Cloudflare",
            tags=("figure",), required_artifacts=("engine", "providers"),
            default_magnitudes=("1K", "10K", "100K", "1M"))
def run_fig5(
    ctx: ExperimentContext, providers: Sequence[str] = ("alexa", "crux")
) -> ExperimentResult:
    """Figure 5: movement between Cloudflare and list buckets."""
    day = ctx.config.n_days // 2
    bounds = ctx.magnitudes
    assignment, consensus = bookend_consensus_buckets(
        ctx.engine, day, bounds, ctx.magnitude_labels
    )
    matrices = {}
    stats: Dict[str, Dict[str, float]] = {}
    blocks = []
    for name in providers:
        normalized = ctx.normalized(name, day)
        matrix = movement_matrix(
            assignment, consensus, normalized, ctx.world.sites.cf_served
        )
        matrices[name] = matrix
        # The paper's headline stats target the 10K bucket (index 1) and
        # the 1K bucket (index 0).
        stats[name] = {
            "overranked_10k": matrix.overranked_fraction(1),
            "overranked_10k_2plus": matrix.overranked_fraction(1, min_gap=2),
            "overranked_1k": matrix.overranked_fraction(0),
            "overranked_1k_2plus": matrix.overranked_fraction(0, min_gap=2),
            "agreement": matrix.agreement_fraction(),
        }
        blocks.append(report.format_movement(matrix.labels, matrix.counts, name))
        blocks.append(
            f"{name}: top-10K overranked {100 * stats[name]['overranked_10k']:.1f}% "
            f"({100 * stats[name]['overranked_10k_2plus']:.1f}% by >= 2 magnitudes); "
            f"top-1K overranked {100 * stats[name]['overranked_1k']:.1f}%"
        )
    return ExperimentResult(
        name="fig5",
        title="Rank-Magnitude Movement vs Cloudflare",
        data={"matrices": matrices, "stats": stats, "consensus_size": len(consensus)},
        text="\n\n".join(blocks),
    )


# ---------------------------------------------------------------------------
# Figure 6: intra-Chrome consistency.


@experiment("fig6", "Intra-Chrome Metric Consistency",
            tags=("figure", "chrome"), required_artifacts=("telemetry",),
            default_magnitudes=("100K",))
def run_fig6(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 6: consistency of the three Chrome telemetry metrics."""
    magnitude = ctx.magnitudes[2]
    cells = intra_chrome_consistency(ctx.telemetry, magnitude)
    jj = {pair: cell.jaccard for pair, cell in cells.items()}
    rho = {pair: cell.spearman for pair, cell in cells.items()}
    labels = ["completed", "initiated", "time"]
    # Make symmetric for rendering.
    for a in labels:
        jj[(a, a)] = 1.0
        rho[(a, a)] = 1.0
    for (a, b) in list(cells):
        jj[(b, a)] = jj[(a, b)]
        rho[(b, a)] = rho[(a, b)]
    text = "\n\n".join(
        [
            report.format_heatmap(labels, labels, jj, title="(a) Jaccard Index"),
            report.format_heatmap(labels, labels, rho, title="(b) Spearman Correlation"),
        ]
    )
    return ExperimentResult(
        name="fig6",
        title="Intra-Chrome Metric Consistency",
        data={"cells": cells, "magnitude": magnitude},
        text=text,
    )


# ---------------------------------------------------------------------------
# Figures 4 and 7: platform and country bias.

#: Lists evaluated against Chrome data (CrUX excluded: same source).
_CHROME_COMPARABLE = tuple(n for n in PROVIDER_ORDER if n != "crux")


@experiment("fig4", "Top List Performance by Platform",
            tags=("figure", "chrome"),
            required_artifacts=("telemetry", "providers"),
            default_magnitudes=("100K",))
def run_fig4(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 4: list accuracy by client platform."""
    magnitude = ctx.magnitudes[2]
    normalized = {name: ctx.normalized_monthly(name) for name in _CHROME_COMPARABLE}
    cells = platform_bias(ctx.telemetry, normalized, magnitude)
    jj = {
        (name, platform): cells[name][platform].jaccard
        for name in _CHROME_COMPARABLE
        for platform in ("windows", "android")
    }
    rho = {
        (name, platform): cells[name][platform].spearman
        for name in _CHROME_COMPARABLE
        for platform in ("windows", "android")
    }
    text = "\n\n".join(
        [
            report.format_heatmap(
                list(_CHROME_COMPARABLE), ["windows", "android"], jj,
                title="(a) Jaccard by Platform", precision=3, hi=0.3,
            ),
            report.format_heatmap(
                list(_CHROME_COMPARABLE), ["windows", "android"], rho,
                title="(b) Spearman by Platform", precision=3, hi=0.5,
            ),
        ]
    )
    return ExperimentResult(
        name="fig4",
        title="Top List Performance by Platform",
        data={"cells": cells, "magnitude": magnitude},
        text=text,
    )


@experiment("fig7", "Top List Performance by Country",
            tags=("figure", "chrome"),
            required_artifacts=("telemetry", "providers"),
            default_magnitudes=("100K",))
def run_fig7(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 7: list accuracy by client country."""
    magnitude = ctx.magnitudes[2]
    normalized = {name: ctx.normalized_monthly(name) for name in _CHROME_COMPARABLE}
    cells = country_bias(ctx.telemetry, normalized, magnitude)
    countries = list(TELEMETRY_COUNTRIES)
    jj = {
        (name, code): cells[name][code].jaccard
        for name in _CHROME_COMPARABLE
        for code in countries
    }
    rho = {
        (name, code): cells[name][code].spearman
        for name in _CHROME_COMPARABLE
        for code in countries
    }
    text = "\n\n".join(
        [
            report.format_heatmap(
                list(_CHROME_COMPARABLE), countries, jj,
                title="(a) Jaccard by Country", precision=3, hi=0.3,
            ),
            report.format_heatmap(
                list(_CHROME_COMPARABLE), countries, rho,
                title="(b) Spearman by Country", precision=3, hi=0.5,
            ),
        ]
    )
    return ExperimentResult(
        name="fig7",
        title="Top List Performance by Country",
        data={"cells": cells, "magnitude": magnitude},
        text=text,
    )


# ---------------------------------------------------------------------------
# Table 3: category inclusion odds.


@experiment("table3", "Odds of Website Inclusion by Category",
            tags=("table",), required_artifacts=("engine", "providers"))
def run_table3(ctx: ExperimentContext) -> ExperimentResult:
    """Table 3: odds of website inclusion by category, per list."""
    day = 0
    # The paper restricts the regression to Cloudflare's top 100K because
    # inclusion rates collapse deeper; the scale-equivalent here is the
    # upper half of the Cloudflare-served universe.
    magnitude = max(ctx.magnitudes[2], ctx.engine.n_cf_sites // 2)
    universe = ctx.engine.top(day, "all:requests", magnitude)
    odds: Dict[str, Dict[str, object]] = {}
    for name in PROVIDER_ORDER:
        normalized = ctx.normalized(name, day)
        odds[name] = category_inclusion_odds(ctx.world, universe, normalized)

    category_names = [c.name for c in CATEGORIES]
    rows = []
    for cat in category_names:
        row: List[object] = [cat]
        for name in PROVIDER_ORDER:
            result = odds[name][cat]
            row.append(result.odds_ratio if result.significant else None)
        rows.append(row)
    text = report.format_table(
        ["category"] + list(PROVIDER_ORDER),
        rows,
        title=(
            "Odds of Website Inclusion by Category "
            "(blank = not significant at p<0.01, Bonferroni 22)"
        ),
    )
    return ExperimentResult(
        name="table3",
        title="Odds of Website Inclusion by Category",
        data={"odds": odds, "universe_size": len(universe), "magnitude": magnitude},
        text=text,
    )


# ---------------------------------------------------------------------------
# Section 2 survey.


@experiment("survey", "Top-List Usage in Research Papers (Section 2)",
            tags=("context",), required_artifacts=())
def run_survey(ctx: ExperimentContext) -> ExperimentResult:
    """Section 2: how research papers use top lists."""
    stats = usage_statistics()
    lines = [
        f"papers using top lists: {stats.papers}",
        f"set-only usage: {stats.set_only} ({100 * stats.set_only_fraction:.0f}%)",
        f"rank usage: {stats.rank_using} ({100 * stats.rank_using_fraction:.0f}%)",
        f"both: {stats.both} ({100 * stats.both_fraction:.0f}%)",
        "",
        "Scheitle et al. venue-class usage rates:",
    ]
    for venue_class, rate in SCHEITLE_USAGE_RATES.items():
        lines.append(f"  {venue_class}: {100 * rate:.0f}%")
    return ExperimentResult(
        name="survey",
        title="Top-List Usage in Research Papers (Section 2)",
        data={"stats": stats},
        text="\n".join(lines),
    )


# ---------------------------------------------------------------------------
# Context experiments (prior-work claims the paper builds on).


@experiment("agreement", "Cross-List Agreement (Scheitle et al. context)",
            tags=("context",), required_artifacts=("providers",))
def run_agreement(ctx: ExperimentContext) -> ExperimentResult:
    """Section 2 context: pairwise agreement among the top lists."""
    from repro.core.agreement import pairwise_list_agreement

    depth = ctx.magnitudes[2]
    matrix = pairwise_list_agreement(ctx.world, ctx.providers, depth)
    text = "\n\n".join([
        report.format_heatmap(
            list(matrix.names), list(matrix.names), matrix.jaccard,
            title=f"(a) pairwise Jaccard at depth {depth}",
        ),
        report.format_heatmap(
            list(matrix.names), list(matrix.names), matrix.spearman,
            title="(b) pairwise Spearman (intersections)",
        ),
        f"mean off-diagonal Jaccard: {matrix.mean_offdiagonal_jaccard():.3f}",
    ])
    return ExperimentResult(
        name="agreement",
        title="Cross-List Agreement (Scheitle et al. context)",
        data={"matrix": matrix},
        text=text,
    )


@experiment("stability", "List Stability (Scheitle et al. context)",
            tags=("context",), required_artifacts=("providers",))
def run_stability(ctx: ExperimentContext) -> ExperimentResult:
    """Section 2 context: list stability and churn."""
    from repro.core.stability import stability_report

    depth = ctx.magnitudes[2]
    days = range(min(14, ctx.config.n_days))
    reports = {
        name: stability_report(ctx.world, ctx.providers[name], depth=depth, days=days)
        for name in PROVIDER_ORDER
    }
    rows = [
        [
            name,
            reports[name].mean_daily_churn,
            reports[name].self_jaccard_by_lag.get(1, float("nan")),
            reports[name].self_jaccard_by_lag.get(7, float("nan")),
            reports[name].rank_stability,
        ]
        for name in PROVIDER_ORDER
    ]
    text = report.format_table(
        ["list", "daily churn", "self-JJ lag1", "self-JJ lag7", "rank stability"],
        rows,
        title=f"List stability over {len(list(days))} days (top {depth})",
    )
    return ExperimentResult(
        name="stability",
        title="List Stability (Scheitle et al. context)",
        data={"reports": reports},
        text=text,
    )


# ---------------------------------------------------------------------------
# Registry access.


def run_experiment(name: str, ctx: ExperimentContext) -> ExperimentResult:
    """Run one experiment by id.

    The spec's ``required_artifacts`` are prefetched through the context's
    :meth:`~repro.core.pipeline.ExperimentContext.artifact` choke point
    first, so construction cost lands in deterministic order (and, under
    tracing, is attributed to the first experiment that needs each stage).
    The runner itself is traced as ``analysis/<name>``; it is looked up
    in :data:`SPECS` at call time, so a replaced entry runs.

    Raises:
        KeyError: for unknown experiment ids.
    """
    spec = SPECS[name]
    for artifact_name in spec.required_artifacts:
        ctx.artifact(artifact_name)
    with obs.span(f"analysis/{name}"):
        return spec.fn(ctx)
