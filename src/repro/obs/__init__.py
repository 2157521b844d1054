"""repro.obs — structured observability for the pipeline.

:mod:`repro.obs.tracer` holds nested spans + counters threaded through
every pipeline stage (worldgen, traffic tensors, CDN metrics, provider
list builds, analyses, store reads and writes), zero-overhead when
disabled, serializable across the process pool so ``--jobs N`` runs
merge into one trace.  ``repro all --trace`` / ``--trace-out`` is the
in-program timing view; ``python -m e2ebench`` is the benchmark.
"""

from repro.obs.tracer import (
    Span,
    Tracer,
    chrome_trace_events,
    count,
    current_tracer,
    merge_stage_totals,
    peak_rss_bytes,
    render_span_tree,
    span,
    stage_totals,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace_events",
    "count",
    "current_tracer",
    "merge_stage_totals",
    "peak_rss_bytes",
    "render_span_tree",
    "span",
    "stage_totals",
    "tracing",
]
