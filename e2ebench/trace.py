"""Spans recorded from outside the program, and the arithmetic over them.

A :class:`Recorder` wraps callables so each call becomes a span with a
name, start, end, parent and thread.  Stacks are kept per thread, so a
span's parent is the innermost span open on the same thread; spans stay
in memory until :meth:`Recorder.dump`.  Times come from
``time.monotonic``, which is one clock for every process on the host, so
spans from a server child and request times from the client line up.

Self time is a span's duration minus the part of it its child spans
cover; coverage is the share of a region that root spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.thread, self.args]

    @classmethod
    def from_row(cls, row: Sequence) -> "Span":
        return cls(int(row[0]), str(row[1]), float(row[2]), float(row[3]),
                   None if row[4] is None else int(row[4]), int(row[5]),
                   dict(row[6]))


class Recorder:
    """Collects spans from wrapped calls, on any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Optional[Callable[..., Dict[str, object]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``.

        ``describe(*args, **kwargs)`` returns the span's arguments before
        the call; ``after(span_args, result, *args, **kwargs)`` may add to
        them once the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_args = describe(*args, **kwargs) if describe else {}
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span_args, result, *args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                span = Span(span_id, name, start, end, parent,
                            threading.get_ident(), span_args)
                with self._lock:
                    self.spans.append(span)

        return traced

    def dump(self, path: Path, **extra: object) -> None:
        """Write every span (plus ``extra`` fields) as JSON."""
        with self._lock:
            rows = [span.to_row() for span in self.spans]
        doc = {"spans": rows}
        doc.update(extra)
        Path(path).write_text(json.dumps(doc))


def load_spans(doc: Dict[str, object]) -> List[Span]:
    return [Span.from_row(row) for row in doc.get("spans", [])]  # type: ignore[union-attr]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def coverage(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Share of ``[lo, hi]`` covered by root spans (on any thread)."""
    if hi <= lo:
        return 0.0
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return _covered(roots, lo, hi) / (hi - lo)


def chrome_events(spans: Sequence[Span], pid: int, origin: float) -> List[Dict[str, object]]:
    """Chrome trace-event ``X`` records (microseconds from ``origin``)."""
    threads: Dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        tid = threads.setdefault(span.thread, len(threads) + 1)
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": span.args,
        })
    return events
