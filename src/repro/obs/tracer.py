"""Structured tracing: nested spans and counters for the pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
instrumented stage (world construction, per-day traffic tensors, CDN metric
computation, store IO...) — each carrying wall time, peak RSS, and named
counters (``store.hits``, ``traffic.rows``, ``cdn.requests_simulated``...).

Instrumentation points call the *module-level* :func:`span` and
:func:`count` helpers, which are zero-overhead when no tracer is active:
``span`` returns a shared null context manager and ``count`` returns
immediately, so production code pays one attribute load and an ``is None``
check per call site.  Activating a tracer (:func:`tracing`) routes every
helper call into its span stack.

Tracing never touches any random stream and never feeds back into
experiment data, so traced and untraced runs are bit-identical — the golden
harness (``repro verify-goldens``) is the proof.

Span trees serialize to plain dicts (:meth:`Span.to_dict`), which is how
parallel workers ship their traces back through the run manifest, and
render two ways: a human-readable tree (:func:`render_span_tree`) and
Chrome ``chrome://tracing`` / Perfetto trace events
(:func:`chrome_trace_events`).
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

__all__ = [
    "Span",
    "Tracer",
    "peak_rss_bytes",
    "tracing",
    "current_tracer",
    "span",
    "count",
    "render_span_tree",
    "chrome_trace_events",
    "stage_totals",
    "merge_stage_totals",
]

try:  # pragma: no cover - platform dependent
    import resource

    def peak_rss_bytes() -> int:
        """Peak resident set size of this process, in bytes."""
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes, macOS reports bytes.
        return int(rss) if sys.platform == "darwin" else int(rss) * 1024

except ImportError:  # pragma: no cover - non-POSIX fallback

    def peak_rss_bytes() -> int:
        """Peak RSS is unavailable on this platform."""
        return 0


@dataclass
class Span:
    """One timed stage, possibly with nested children.

    Attributes:
        name: stage id (``context/world``, ``traffic/compute-day``...).
        start: seconds since the owning tracer started (for trace-event
          export; merged spans keep the earliest start).
        seconds: total wall time spent inside the span.
        calls: number of merged invocations (1 for a raw span).
        counters: named numeric counters attributed to this span.
        children: nested spans, in execution order.
        peak_rss_bytes: process peak RSS observed when the span closed.
    """

    name: str
    start: float = 0.0
    seconds: float = 0.0
    calls: int = 1
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    peak_rss_bytes: int = 0

    def add(self, name: str, n: float = 1.0) -> None:
        """Increment a counter on this span."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def total_counters(self) -> Dict[str, float]:
        """This span's counters plus every descendant's, summed by name."""
        totals = dict(self.counters)
        for child in self.children:
            for key, value in child.total_counters().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def merged_children(self) -> List["Span"]:
        """Children collapsed by name: sums of seconds/calls/counters.

        Repeated stages (28 ``traffic/compute-day`` spans) merge into one
        line for rendering and stage aggregation; children merge
        recursively.  Execution order of first appearance is preserved.
        """
        merged: Dict[str, Span] = {}
        for child in self.children:
            flat = Span(
                name=child.name,
                start=child.start,
                seconds=child.seconds,
                calls=child.calls,
                counters=dict(child.counters),
                children=list(child.children),
                peak_rss_bytes=child.peak_rss_bytes,
            )
            slot = merged.get(child.name)
            if slot is None:
                merged[child.name] = flat
            else:
                slot.seconds += flat.seconds
                slot.calls += flat.calls
                slot.start = min(slot.start, flat.start)
                slot.peak_rss_bytes = max(slot.peak_rss_bytes, flat.peak_rss_bytes)
                for key, value in flat.counters.items():
                    slot.counters[key] = slot.counters.get(key, 0.0) + value
                slot.children.extend(flat.children)
        return list(merged.values())

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict projection (JSON-safe, pickles across workers)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "calls": self.calls,
        }
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.peak_rss_bytes:
            payload["peak_rss_bytes"] = self.peak_rss_bytes
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=str(payload["name"]),
            start=float(payload.get("start", 0.0)),
            seconds=float(payload.get("seconds", 0.0)),
            calls=int(payload.get("calls", 1)),
            counters={
                str(k): float(v)
                for k, v in dict(payload.get("counters", {})).items()
            },
            children=[cls.from_dict(c) for c in payload.get("children", [])],
            peak_rss_bytes=int(payload.get("peak_rss_bytes", 0)),
        )


class Tracer:
    """Collects a span tree for one traced unit of work.

    Args:
        name: root span name (conventionally the experiment id).

    The tracer is single-threaded by design: the pipeline parallelizes
    across *processes*, and each worker owns its own tracer whose tree is
    serialized back through the run manifest.
    """

    def __init__(self, name: str = "run") -> None:
        self.root = Span(name)
        self._stack: List[Span] = [self.root]
        self._epoch = time.perf_counter()
        self._finished = False
        self._root_lock = threading.Lock()

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a nested span; closes (and times) it on exit."""
        entry = Span(name, start=time.perf_counter() - self._epoch)
        self._stack[-1].children.append(entry)
        self._stack.append(entry)
        started = time.perf_counter()
        try:
            yield entry
        finally:
            entry.seconds = time.perf_counter() - started
            entry.peak_rss_bytes = peak_rss_bytes()
            self._stack.pop()

    def count(self, name: str, n: float = 1.0) -> None:
        """Increment a counter on the innermost open span."""
        self._stack[-1].add(name, n)

    def count_root(self, *names: str) -> None:
        """Thread-safe increment by one of each named counter on the
        *root* span, under one lock acquisition.

        The span stack is single-threaded by design, but a long-lived
        multi-threaded consumer (``repro.serve`` handles each request on
        its own thread) still wants one shared set of service counters.
        Those go straight onto the root span under a lock, bypassing the
        stack entirely.
        """
        with self._root_lock:
            for name in names:
                self.root.add(name)

    def root_counters(self) -> Dict[str, float]:
        """A consistent copy of the root span's counters."""
        with self._root_lock:
            return dict(self.root.counters)

    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        if not self._finished:
            self.root.seconds = time.perf_counter() - self._epoch
            self.root.peak_rss_bytes = peak_rss_bytes()
            self._finished = True
        return self.root

    def to_dict(self) -> Dict[str, object]:
        """The (finished) span tree as a plain dict."""
        return self.finish().to_dict()


# ---------------------------------------------------------------------------
# The ambient tracer: module-level helpers instrumentation points call.

_ACTIVE: Optional[Tracer] = None

#: Shared reusable null context manager — the no-tracer fast path allocates
#: nothing.
_NULL = nullcontext()


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Activate ``tracer`` for the duration of the block.

    Nesting restores the previously active tracer on exit, so a traced
    helper calling another traced helper behaves sanely.  Passing None
    explicitly *disables* tracing inside the block, which lets callers
    write ``with tracing(tracer or None)`` unconditionally.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str):
    """A context manager timing ``name`` under the active tracer.

    Zero-overhead when tracing is disabled: returns a shared null context
    manager without allocating.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL
    return tracer.span(name)


def count(name: str, n: float = 1.0) -> None:
    """Increment a counter on the active tracer's current span (no-op when
    tracing is disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, n)


# ---------------------------------------------------------------------------
# Rendering and aggregation.

_COUNTER_RENDER_LIMIT = 6


def _format_counters(counters: Dict[str, float]) -> str:
    parts = []
    for key in sorted(counters)[:_COUNTER_RENDER_LIMIT]:
        value = counters[key]
        text = f"{int(value)}" if float(value).is_integer() else f"{value:.3g}"
        parts.append(f"{key}={text}")
    if len(counters) > _COUNTER_RENDER_LIMIT:
        parts.append("...")
    return " ".join(parts)


def render_span_tree(root: Span, show_counters: bool = True) -> str:
    """Human-readable span tree: one line per (merged) span.

    Repeated child spans collapse into one line with a ``xN`` call count;
    counters (store hits/misses, rows simulated...) print inline.
    """
    lines: List[str] = []

    def emit(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("`- " if is_last else "|- ")
        calls = f" x{node.calls}" if node.calls > 1 else ""
        label = f"{prefix}{connector}{node.name}{calls}"
        line = f"{label:<46s} {node.seconds:>8.3f}s"
        counters = node.total_counters() if is_root else node.counters
        if show_counters and counters:
            line += "  " + _format_counters(counters)
        lines.append(line.rstrip())
        children = node.merged_children()
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "|  ")
        for i, child in enumerate(children):
            emit(child, child_prefix, i == len(children) - 1, False)

    emit(root, "", True, True)
    return "\n".join(lines)


def chrome_trace_events(
    root: Span, pid: int = 0, tid: int = 0
) -> List[Dict[str, object]]:
    """Flatten a span tree into Chrome trace-event ``X`` phases.

    Load the resulting JSON (``{"traceEvents": [...]}``) in
    ``chrome://tracing`` or https://ui.perfetto.dev.  ``ts``/``dur`` are in
    microseconds relative to the tracer epoch.
    """
    events: List[Dict[str, object]] = []

    def walk(node: Span) -> None:
        event: Dict[str, object] = {
            "name": node.name,
            "ph": "X",
            "ts": round(node.start * 1e6, 3),
            "dur": round(node.seconds * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if node.counters:
            event["args"] = dict(node.counters)
        events.append(event)
        for child in node.children:
            walk(child)

    walk(root)
    return events


def stage_totals(root: Span) -> Dict[str, float]:
    """Wall seconds per stage name, summed over the whole tree (root
    excluded — its name is the experiment, not a stage)."""
    totals: Dict[str, float] = {}

    def walk(node: Span) -> None:
        for child in node.children:
            totals[child.name] = totals.get(child.name, 0.0) + child.seconds
            walk(child)

    walk(root)
    return totals


def merge_stage_totals(roots: List[Span]) -> Dict[str, float]:
    """Per-stage totals merged across many span trees (one per worker or
    experiment) — how ``--jobs N`` runs collapse into one trace summary."""
    merged: Dict[str, float] = {}
    for root in roots:
        for name, seconds in stage_totals(root).items():
            merged[name] = merged.get(name, 0.0) + seconds
    return merged
