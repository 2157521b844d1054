"""The content-addressed on-disk artifact store.

Every expensive artifact in the reproduction — the site universe, the
21-combination CDN metric counts, provider lists, experiment results — is
a pure function of a frozen :class:`~repro.worldgen.config.WorldConfig`.
The store exploits that: artifacts are addressed by ``(schema version,
sha256(config), name)``, so a world built once is reusable by every later
process, CLI invocation, bench session, and parallel worker.  It holds
only what a later run reads back and reads faster than it recomputes
(DESIGN.md §7): the per-day traffic tensors cost less to compute from the
world than to read, and are never stored.

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
  exceeds its byte cap the oldest entries are evicted first.  An instance
  scans the store once, on its first write, and then keeps a running byte
  tally (each publish adds its size minus the size of the entry it
  replaced; each eviction or quarantine subtracts), rescanning only when
  the tally passes the cap.  With one writer the tally equals what a scan
  would find, so every eviction decision is the same as scanning after
  every write.  Another process's writes are seen at this instance's next
  rescan, so concurrent writers can overshoot the cap by what the others
  wrote since this instance last scanned.

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
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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
    "canonical_bytes",
    "config_key",
    "default_cache_dir",
    "snapshot_etag",
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


def _decode_npz(payload: bytes) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except Exception as error:
        # np.load can surface almost anything on a mangled zip, so the
        # handler is deliberately broad; an interrupt or a shutdown is not
        # an Exception and still propagates.
        raise ValueError(f"unreadable npz payload: {error}") from error


def _decode_json(payload: bytes) -> Any:
    # UnicodeDecodeError and json.JSONDecodeError are both ValueErrors.
    return json.loads(payload.decode("utf-8"))


def _verbatim(payload: bytes) -> bytes:
    return payload


def canonical_bytes(value: Any) -> bytes:
    """The canonical JSON encoding (sorted keys): every JSON payload the
    store writes, and every digest and ETag taken over a document."""
    return json.dumps(value, sort_keys=True).encode("utf-8")


def snapshot_etag(body: bytes) -> str:
    """Strong HTTP ETag for a body: its quoted sha256 hex, which for a
    stored JSON payload is the checksum the store records for it."""
    return '"%s"' % hashlib.sha256(body).hexdigest()


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

    key: str  # e.g. "v1/<confighash>/metrics/day-003.npz"
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
        #: Bytes under ``v*/`` as of the last scan, plus this instance's
        #: publishes minus its evictions and quarantines since; None until
        #: the first write scans.  Guarded by ``_tally_lock`` (serve writes
        #: from request threads).
        self._tally: Optional[int] = None
        self._tally_lock = threading.Lock()
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

    def _read_payload(
        self, cfg_key: str, name: str, ext: str, decode: Callable[[bytes], Any]
    ) -> Optional[Tuple[Any, str]]:
        """Read, checksum and decode one artifact: ``(value, sha256 hex of
        the payload)``, or None on miss or corruption.

        A payload that fails its checksum or fails to decode is counted
        once, as corrupt and as a miss, and quarantined; only a decoded
        payload counts as a hit.
        """
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
        # The payload slice is a copy: drop the raw blob before decoding,
        # or peak memory grows by one artifact's size.
        del blob
        value = None
        readable = expected is not None and hashlib.sha256(payload).hexdigest() == expected
        if not readable:
            logger.warning("quarantining corrupt artifact %s", path)
        else:
            try:
                value = decode(payload)
            except ValueError:
                readable = False
                logger.warning("quarantining unreadable %s artifact %s", ext, path)
        if not readable:
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
        return value, expected

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
            with self._tally_lock:
                # The replaced size is read under the lock with the rename,
                # so threads overwriting one name cannot both subtract it.
                try:
                    replaced = os.stat(path).st_size
                except OSError:
                    replaced = 0
                os.replace(tmp, path)
                over_cap = self._tally_published(len(header) + len(body) - replaced)
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
        if over_cap:
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
            moved = self._take_out(path, target)
        except OSError:
            moved = False
        if not moved:
            self._take_out(path)
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
        read = self._read_payload(cfg_key, name, "npz", _decode_npz)
        return None if read is None else read[0]

    def put_arrays(self, cfg_key: str, name: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Persist a numpy artifact atomically."""
        buffer = io.BytesIO()
        np.savez(buffer, **dict(arrays))
        self._write_payload(cfg_key, name, "npz", buffer.getvalue())

    def get_json(self, cfg_key: str, name: str) -> Optional[Any]:
        """Load a JSON artifact, or None on miss/corruption."""
        read = self._read_payload(cfg_key, name, "json", _decode_json)
        return None if read is None else read[0]

    def get_json_bytes(self, cfg_key: str, name: str) -> Optional[Tuple[bytes, str]]:
        """A JSON artifact's payload, checksum-verified but not decoded,
        with its sha256 hex (the header checksum the read just verified);
        None on miss/corruption.

        Same fault sites, counters, observer call and LRU refresh as
        :meth:`get_json`; a payload that is not JSON is still a hit.
        """
        return self._read_payload(cfg_key, name, "json", _verbatim)

    def put_json(self, cfg_key: str, name: str, value: Any) -> None:
        """Persist a JSON artifact atomically, as its
        :func:`canonical_bytes`: the recorded checksum is their sha256."""
        self.put_json_bytes(cfg_key, name, canonical_bytes(value))

    def put_json_bytes(self, cfg_key: str, name: str, payload: bytes) -> None:
        """Persist ready-made JSON bytes atomically, as they are: the
        recorded checksum is ``sha256(payload)``."""
        self._write_payload(cfg_key, name, "json", payload)

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

    def _tally_published(self, grown: int) -> bool:
        """Add a publish to the byte tally; True when the store must be
        rescanned and evicted.  Caller holds ``_tally_lock``.

        ``grown`` is the published size minus the size of the entry it
        replaced.  An instance's first write scans; later writes rescan
        only when the tally passes the cap.
        """
        if self.max_bytes is None:
            self._tally = None
            return False
        if self._tally is None:
            return True
        self._tally += grown
        return self._tally > self.max_bytes

    def _take_out(self, path: Path, target: Optional[Path] = None) -> bool:
        """Move an entry to ``target`` (or unlink it) and take its size off
        the tally; False when the entry is gone or cannot be moved."""
        with self._tally_lock:
            try:
                size = os.stat(path).st_size
                if target is None:
                    os.unlink(path)
                else:
                    os.replace(path, target)
            except OSError:
                return False
            if self._tally is not None:
                self._tally -= size
            return True

    def _evict_over_cap(self, keep: Optional[Path] = None) -> None:
        """Scan the store, evict oldest-first down to the byte cap, and
        restart the tally from the scan."""
        with self._tally_lock:
            if self.max_bytes is None:
                return
            entries = self._scan()
            total = sum(entry.size for entry in entries)
            if total > self.max_bytes:
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
                # A single oversized artifact may still exceed the cap; that
                # is logged rather than refused (the caller already paid to
                # build it).
                if total > self.max_bytes:
                    logger.warning(
                        "store over cap after eviction: %d > %d bytes", total, self.max_bytes
                    )
            self._tally = total

    def clear(self) -> int:
        """Delete every stored artifact; returns the bytes freed."""
        with self._tally_lock:
            freed = self.total_bytes()
            if self.root.is_dir():
                for child in self.root.iterdir():
                    if child.is_dir():
                        shutil.rmtree(child, ignore_errors=True)
                    else:
                        self._unlink(child)
            self._tally = None
        return freed
