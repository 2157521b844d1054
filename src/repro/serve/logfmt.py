"""Structured access logging in logfmt.

Every line the metrics service emits — request outcomes, breaker
transitions, shed decisions, drain progress — is one logfmt record:
space-separated ``key=value`` pairs, values quoted only when they need
to be.  logfmt keeps the log greppable by humans (``grep
'event=breaker.open'``) and trivially parseable by machines
(:func:`parse_logfmt` round-trips every line :func:`logfmt` produces),
which is what the selftest and the CI smoke job rely on.

:class:`AccessLog` is the thread-safe writer: request handler threads,
the breaker, and the drain controller all append through one lock, so a
log line is never interleaved mid-record even under concurrent load.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, TextIO, Union

__all__ = ["logfmt", "parse_logfmt", "AccessLog", "MEMORY_LINES"]

#: Records an :class:`AccessLog` keeps in memory, newest last; older ones
#: drop out (the file sink, when there is one, keeps every line).  The
#: largest in-memory reader, ``repro serve --selftest --quick``, writes
#: about 600.
MEMORY_LINES = 4096

#: Any character that forces a value into double quotes.
_NEEDS_QUOTING = re.compile(r'[ "=\n\t]')


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = f"{value:.3f}"
    elif value is None:
        text = "-"
    else:
        text = str(value)
    if text == "" or _NEEDS_QUOTING.search(text):
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return text


def logfmt(fields: Mapping[str, object]) -> str:
    """One logfmt record from a mapping, keys in the given order."""
    return " ".join(f"{key}={_format_value(value)}" for key, value in fields.items())


def parse_logfmt(line: str) -> Dict[str, str]:
    """Parse one logfmt line back into a string dict.

    Inverse of :func:`logfmt` up to value stringification (every value
    comes back as text; booleans as ``"true"``/``"false"``).
    """
    fields: Dict[str, str] = {}
    i, n = 0, len(line)
    while i < n:
        while i < n and line[i] == " ":
            i += 1
        eq = line.find("=", i)
        if eq < 0:
            break
        key = line[i:eq]
        i = eq + 1
        if i < n and line[i] == '"':
            i += 1
            out: List[str] = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n:
                    nxt = line[i + 1]
                    out.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
                    i += 2
                else:
                    out.append(line[i])
                    i += 1
            i += 1  # closing quote
            fields[key] = "".join(out)
        else:
            end = line.find(" ", i)
            end = n if end < 0 else end
            fields[key] = line[i:end]
            i = end
    return fields


class AccessLog:
    """Thread-safe logfmt sink for the metrics service.

    Args:
        target: a path (appended to, parents created) or an open text
          stream; ``None`` buffers in memory only (tests read
          :meth:`lines` back).  Either way the in-memory copy holds the
          newest :data:`MEMORY_LINES` records, so a long-running service
          without a log file does not grow without bound.

    Every record is stamped with ``ts`` (unix seconds, milliseconds kept)
    before the caller's fields; writes flush immediately so a killed
    process leaves a complete log up to its last event.
    """

    def __init__(self, target: Union[None, str, Path, TextIO] = None) -> None:
        self._lock = threading.Lock()
        self._memory: Deque[str] = deque(maxlen=MEMORY_LINES)
        self._stream: Optional[TextIO] = None
        self._owns_stream = False
        self.path: Optional[Path] = None
        if isinstance(target, (str, Path)):
            self.path = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "a", encoding="utf-8")
            self._owns_stream = True
        elif target is not None:
            self._stream = target

    def write(self, event: str, **fields: object) -> None:
        """Append one record: ``ts=... event=<event> <fields...>``."""
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        line = logfmt(record)
        with self._lock:
            self._memory.append(line)
            if self._stream is not None:
                self._stream.write(line + "\n")
                self._stream.flush()

    def lines(self) -> List[str]:
        """The newest :data:`MEMORY_LINES` records, oldest first (the
        in-memory copy)."""
        with self._lock:
            return list(self._memory)

    def events(self, name: str) -> List[Dict[str, str]]:
        """Parsed records whose ``event`` field equals ``name``."""
        return [
            fields
            for fields in (parse_logfmt(line) for line in self.lines())
            if fields.get("event") == name
        ]

    def close(self) -> None:
        """Close the underlying file when this log opened it."""
        with self._lock:
            if self._stream is not None and self._owns_stream:
                self._stream.close()
                self._stream = None
