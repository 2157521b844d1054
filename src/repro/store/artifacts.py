"""The content-addressed on-disk artifact store.

Every expensive artifact in the reproduction — the site universe, the
per-day traffic tensors, the 21-combination CDN metric counts, provider
lists, experiment results — is a pure function of a frozen
:class:`~repro.worldgen.config.WorldConfig`.  The store exploits that:
artifacts are addressed by ``(schema version, sha256(config), name)``, so a
world built once is reusable by every later process, CLI invocation, bench
session, and parallel worker.

Durability model (inspired by Tranco's permanently citable list artifacts):

* **Atomic writes** — payloads are written to a temp file in the target
  directory and published with ``os.replace``; readers never observe a
  half-written entry, even with concurrent writers on the same key.
* **Checksummed reads** — each entry starts with a one-line header carrying
  the SHA-256 of the payload.  A corrupt or truncated entry is logged,
  quarantined, and reported as a miss so callers rebuild — the store never
  raises on bad cache state.
* **Quarantine, not destruction** — corrupt entries move to
  ``<root>/quarantine/`` (bounded at :data:`MAX_QUARANTINE`, inspectable
  via ``repro cache ls --quarantined``) so cache-decay incidents stay
  debuggable instead of silently vanishing.
* **Read-only degradation** — when the root is unwritable or the disk
  fills (``ENOSPC``/``EROFS``/``EACCES``), the store warns once, stops
  persisting, and keeps serving reads; callers recompute and the run
  completes instead of crashing mid-batch.
* **Size-capped LRU** — reads refresh an entry's mtime; when the store
  exceeds its byte cap the oldest entries are evicted first.

Every IO path is threaded through the :mod:`repro.faults` choke point, so
``repro chaos`` can deterministically corrupt reads, fill the disk, and
tear writes to prove the guarantees above hold.

Bump :data:`SCHEMA_VERSION` whenever the serialized layout of any artifact
changes; old entries are simply orphaned under the previous version prefix
(see DESIGN.md).
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import logging
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.faults import inject as faults
from repro.worldgen.config import WorldConfig

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "MAX_QUARANTINE",
    "ArtifactStore",
    "StoreStats",
    "ArtifactEntry",
    "config_key",
    "default_cache_dir",
]

logger = logging.getLogger(__name__)

#: Serialized-artifact layout version.  Bump when any codec changes shape.
SCHEMA_VERSION = 1

#: Default store size cap: 4 GiB.
DEFAULT_MAX_BYTES = 4 * 1024**3

#: Corrupt blobs kept under ``<root>/quarantine/``; oldest pruned beyond this.
MAX_QUARANTINE = 16

#: Write errors that demote the store to read-only (vs. one-off failures).
_READ_ONLY_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EROFS, errno.EACCES, errno.EPERM, errno.EDQUOT}
)

_HEADER_PREFIX = f"repro-artifact/{SCHEMA_VERSION} sha256=".encode("ascii")


def config_key(config: WorldConfig) -> str:
    """Cache key for a config: sha256 of canonical JSON + schema version.

    Stable across processes, Python versions, and dataclass field
    orderings, because it hashes :meth:`WorldConfig.to_json`'s canonical
    (sorted-key, compact) encoding.
    """
    payload = f"v{SCHEMA_VERSION}:{config.to_json()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def default_cache_dir() -> Path:
    """The store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-toplists``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-toplists"


@dataclass
class StoreStats:
    """Counters for one store instance, broken down by artifact kind.

    The *kind* of an artifact is the first segment of its name
    (``world``, ``traffic``, ``metrics``, ``providers``, ``results``).
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    puts: Dict[str, int] = field(default_factory=dict)
    corrupt: int = 0
    quarantined: int = 0
    evictions: int = 0
    write_errors: int = 0
    writes_skipped: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def record(self, table: Dict[str, int], name: str) -> None:
        kind = name.split("/", 1)[0]
        table[kind] = table.get(kind, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A JSON-safe copy: ``{kind: {"hits": n, "misses": n, "puts": n}}``."""
        kinds = set(self.hits) | set(self.misses) | set(self.puts)
        return {
            kind: {
                "hits": self.hits.get(kind, 0),
                "misses": self.misses.get(kind, 0),
                "puts": self.puts.get(kind, 0),
            }
            for kind in sorted(kinds)
        }


@dataclass(frozen=True)
class ArtifactEntry:
    """One stored artifact, as reported by :meth:`ArtifactStore.entries`."""

    key: str  # e.g. "v1/<confighash>/traffic/day-003.npz"
    size: int
    mtime: float


class ArtifactStore:
    """Content-addressed artifact store rooted at a directory.

    Args:
        root: store directory (created on demand).
        max_bytes: byte cap; the LRU eviction target.  ``None`` disables
          eviction.
    """

    def __init__(self, root: os.PathLike, max_bytes: Optional[int] = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._read_only = False
        self._warned_read_only = False
        #: Optional read-path observer, called synchronously on the reading
        #: thread after every payload read attempt as ``(name, status,
        #: seconds)`` with status in ``{"hit", "miss", "corrupt"}`` and
        #: ``seconds`` the wall time of the attempt (injected latency
        #: included).  ``repro.serve`` hangs its circuit breaker here:
        #: corrupt and slow reads count as dependency failures, misses and
        #: fast hits as health signals.  Observer exceptions propagate —
        #: the hook owner is part of the read path by choice.
        self.read_observer: Optional[Callable[[str, str, float], None]] = None

    @property
    def read_only(self) -> bool:
        """True once a fatal write error demoted the store to read-only."""
        return self._read_only

    # ------------------------------------------------------------------
    # Paths.

    def _path(self, cfg_key: str, name: str, ext: str) -> Path:
        return self.root / f"v{SCHEMA_VERSION}" / cfg_key / f"{name}.{ext}"

    # ------------------------------------------------------------------
    # Raw payload IO (header + checksum + atomic replace).

    def _notify_read(self, name: str, status: str, started: float) -> None:
        observer = self.read_observer
        if observer is not None:
            observer(name, status, time.perf_counter() - started)

    def _read_payload(self, cfg_key: str, name: str, ext: str) -> Optional[bytes]:
        path = self._path(cfg_key, name, ext)
        started = time.perf_counter()
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.record(self.stats.misses, name)
            obs.count("store.misses")
            self._notify_read(name, "miss", started)
            return None
        rule = faults.fire("store.read.slow", name)
        if rule is not None:
            # A slow dependency, not a broken one: the payload stays valid
            # but the read-path observer sees the elapsed time balloon.
            logger.warning("injected store.read.slow on %s", name)
            time.sleep(rule.delay_seconds if rule.delay_seconds is not None else 0.25)
        if faults.fire("store.read.corrupt", name) is not None:
            logger.warning("injected store.read.corrupt on %s", name)
            blob = faults.corrupt(blob)
        newline = blob.find(b"\n")
        header = blob[:newline] if newline >= 0 else b""
        payload = blob[newline + 1 :] if newline >= 0 else b""
        expected = (
            header[len(_HEADER_PREFIX) :].decode("ascii", "replace")
            if header.startswith(_HEADER_PREFIX)
            else None
        )
        if expected is None or hashlib.sha256(payload).hexdigest() != expected:
            logger.warning("quarantining corrupt artifact %s", path)
            self.stats.corrupt += 1
            self.stats.record(self.stats.misses, name)
            obs.count("store.misses")
            self._quarantine(path)
            self._notify_read(name, "corrupt", started)
            return None
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass
        self.stats.record(self.stats.hits, name)
        self.stats.bytes_read += len(payload)
        obs.count("store.hits")
        obs.count("store.bytes_read", len(payload))
        self._notify_read(name, "hit", started)
        return payload

    def _write_payload(self, cfg_key: str, name: str, ext: str, payload: bytes) -> None:
        if self._read_only:
            self.stats.writes_skipped += 1
            obs.count("store.writes_skipped")
            return
        path = self._path(cfg_key, name, ext)
        digest = hashlib.sha256(payload).hexdigest()
        header = _HEADER_PREFIX + digest.encode("ascii") + b"\n"
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        body = payload
        try:
            if faults.fire("store.write.enospc", name) is not None:
                logger.warning("injected store.write.enospc on %s", name)
                raise OSError(errno.ENOSPC, "injected disk-full (store.write.enospc)")
            if faults.fire("store.write.partial", name) is not None:
                # Torn-but-published write: full-payload checksum over a
                # truncated body, caught by the next checksummed read.
                logger.warning("injected store.write.partial on %s", name)
                body = payload[: len(payload) // 2]
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(header)
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            # The rename itself lives in the directory; without fsyncing it
            # a crash can resurrect the old entry or lose the new one, and
            # a concurrent reader on a journaled-metadata filesystem may
            # briefly see neither.  Data fsync above + dir fsync here makes
            # publish atomic *and* durable.
            self._fsync_dir(path.parent)
        except OSError as error:
            self._unlink(tmp)
            self.stats.write_errors += 1
            if getattr(error, "errno", None) in _READ_ONLY_ERRNOS:
                self._read_only = True
                if not self._warned_read_only:
                    self._warned_read_only = True
                    logger.warning(
                        "store %s degraded to read-only (%s); artifacts will "
                        "be recomputed instead of persisted", self.root, error,
                    )
            else:
                logger.warning("failed to write artifact %s", path, exc_info=True)
            return
        self.stats.record(self.stats.puts, name)
        self.stats.bytes_written += len(body)
        obs.count("store.puts")
        obs.count("store.bytes_written", len(body))
        self._evict_over_cap(keep=path)

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Best-effort fsync of a directory (publishes renames durably)."""
        try:
            fd = os.open(path, getattr(os, "O_DIRECTORY", os.O_RDONLY))
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Quarantine.

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry to ``<root>/quarantine/`` for inspection.

        The move is atomic (same filesystem), so a reader racing an
        eviction or another quarantine sees either the entry or nothing.
        Falls back to plain eviction when the move itself fails (directory
        unwritable, entry already gone).  The quarantine is bounded:
        oldest residents are pruned beyond :data:`MAX_QUARANTINE`.
        """
        qdir = self.root / "quarantine"
        try:
            rel = path.relative_to(self.root)
        except ValueError:
            rel = Path(path.name)
        target = qdir / f"{int(time.time() * 1000):013d}-{os.getpid()}-{'__'.join(rel.parts)}"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            self._unlink(path)
            return
        self.stats.quarantined += 1
        obs.count("store.quarantined")
        residents = self.quarantined()
        for entry in residents[: max(0, len(residents) - MAX_QUARANTINE)]:
            self._unlink(self.root / entry.key)

    def quarantined(self) -> List[ArtifactEntry]:
        """Quarantined corrupt blobs, oldest first (never counted against
        the byte cap and never hydrated from)."""
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return []
        out = []
        for path in qdir.iterdir():
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.is_file():
                out.append(
                    ArtifactEntry(
                        key=str(path.relative_to(self.root)),
                        size=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
        # The filename leads with a zero-padded quarantine timestamp, so
        # key order (not blob mtime, which os.replace preserves) is
        # quarantine order.
        out.sort(key=lambda e: e.key)
        return out

    # ------------------------------------------------------------------
    # Typed accessors.

    def get_arrays(self, cfg_key: str, name: str) -> Optional[Dict[str, np.ndarray]]:
        """Load a numpy artifact, or None on miss/corruption."""
        payload = self._read_payload(cfg_key, name, "npz")
        if payload is None:
            return None
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as data:
                return {key: data[key] for key in data.files}
        except (KeyboardInterrupt, SystemExit):
            # np.load can surface almost anything on a mangled zip, so the
            # handler below is deliberately broad — but an interrupt or a
            # shutdown must never be mistaken for a corrupt artifact.
            raise
        except Exception:
            logger.warning("quarantining unreadable npz artifact %s/%s", cfg_key, name)
            self.stats.corrupt += 1
            self._quarantine(self._path(cfg_key, name, "npz"))
            self._notify_read(name, "corrupt", time.perf_counter())
            return None

    def put_arrays(self, cfg_key: str, name: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Persist a numpy artifact atomically."""
        buffer = io.BytesIO()
        np.savez(buffer, **dict(arrays))
        self._write_payload(cfg_key, name, "npz", buffer.getvalue())

    def get_json(self, cfg_key: str, name: str) -> Optional[Any]:
        """Load a JSON artifact, or None on miss/corruption."""
        payload = self._read_payload(cfg_key, name, "json")
        if payload is None:
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            logger.warning("quarantining unreadable json artifact %s/%s", cfg_key, name)
            self.stats.corrupt += 1
            self._quarantine(self._path(cfg_key, name, "json"))
            self._notify_read(name, "corrupt", time.perf_counter())
            return None

    def put_json(self, cfg_key: str, name: str, value: Any) -> None:
        """Persist a JSON artifact atomically."""
        payload = json.dumps(value, sort_keys=True).encode("utf-8")
        self._write_payload(cfg_key, name, "json", payload)

    def checksum(self, cfg_key: str, name: str, ext: str = "json") -> Optional[str]:
        """The recorded sha256 of an artifact's payload, read from its
        header line alone — no payload read, no hit/miss accounting.

        This is the store's content version for the blob.  The serving
        layer reuses it as a strong ETag / snapshot version without
        paying for (or being observed performing) a full checksummed
        read; a mismatch against the actual payload still surfaces on
        the next real read.  Returns None when the artifact is absent or
        its header is unrecognizable.
        """
        path = self._path(cfg_key, name, ext)
        try:
            with open(path, "rb") as handle:
                header = handle.readline(len(_HEADER_PREFIX) + 65).rstrip(b"\n")
        except OSError:
            return None
        if not header.startswith(_HEADER_PREFIX):
            return None
        digest = header[len(_HEADER_PREFIX) :].decode("ascii", "replace")
        return digest if len(digest) == 64 else None

    # ------------------------------------------------------------------
    # Inventory, eviction, maintenance.

    def _scan(self) -> List[ArtifactEntry]:
        """Every stored artifact, unsorted: one ``os.scandir`` walk of the
        versioned directories, dot-named (temporary) files skipped."""
        # Only versioned artifact directories count as store contents; run
        # manifests and other sidecars at the root are never evicted.
        try:
            with os.scandir(self.root) as top:
                pending = [
                    (child.name, child.path)
                    for child in top
                    if child.name.startswith("v") and child.is_dir()
                ]
        except OSError:
            return []
        out = []
        while pending:
            key, path = pending.pop()
            try:
                with os.scandir(path) as it:
                    children = list(it)
            except OSError:
                continue
            for child in children:
                child_key = os.path.join(key, child.name)
                if child.is_dir(follow_symlinks=False):
                    pending.append((child_key, child.path))
                elif child.is_file() and not child.name.startswith("."):
                    try:
                        stat = child.stat()
                    except OSError:
                        continue
                    out.append(ArtifactEntry(child_key, stat.st_size, stat.st_mtime))
        return out

    def entries(self) -> List[ArtifactEntry]:
        """All stored artifacts, oldest (least recently used) first."""
        return sorted(self._scan(), key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Bytes currently stored."""
        return sum(entry.size for entry in self._scan())

    def _evict_over_cap(self, keep: Optional[Path] = None) -> None:
        if self.max_bytes is None:
            return
        entries = self._scan()
        total = sum(entry.size for entry in entries)
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e.mtime, e.key))
        for entry in entries:
            if total <= self.max_bytes:
                break
            path = self.root / entry.key
            if keep is not None and path == keep:
                continue  # never evict the entry being published
            self._unlink(path)
            self.stats.evictions += 1
            total -= entry.size
        # A single oversized artifact may still exceed the cap; that is
        # logged rather than refused (the caller already paid to build it).
        if total > self.max_bytes:
            logger.warning(
                "store over cap after eviction: %d > %d bytes", total, self.max_bytes
            )

    def clear(self) -> int:
        """Delete every stored artifact; returns the bytes freed."""
        freed = self.total_bytes()
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    self._unlink(child)
        return freed
