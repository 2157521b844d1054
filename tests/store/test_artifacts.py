"""Failure-mode tests for the content-addressed artifact store.

Covers the store's hard guarantees: corrupt entries are evicted and
rebuilt (never raised), concurrent writers to the same key never produce
torn reads, and LRU eviction respects the byte cap.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.faults import inject
from repro.store import (
    SCHEMA_VERSION,
    ArtifactEntry,
    ArtifactStore,
    config_key,
    default_cache_dir,
)
from repro.worldgen.config import WorldConfig

KEY = "0" * 24


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


class TestRoundTrip:
    def test_arrays_round_trip(self, store):
        arrays = {
            "ranks": np.arange(100, dtype=np.int64),
            "weights": np.linspace(0.0, 1.0, 100),
        }
        store.put_arrays(KEY, "traffic/day-000", arrays)
        loaded = store.get_arrays(KEY, "traffic/day-000")
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_float_round_trip_is_bit_exact(self, store):
        values = np.random.default_rng(7).standard_normal(1000)
        store.put_arrays(KEY, "traffic/day-001", {"v": values})
        loaded = store.get_arrays(KEY, "traffic/day-001")["v"]
        assert loaded.tobytes() == values.tobytes()

    def test_json_round_trip(self, store):
        value = {"name": "fig1", "rows": [1, 2, 3], "nested": {"a": 0.5}}
        store.put_json(KEY, "results/fig1", value)
        assert store.get_json(KEY, "results/fig1") == value

    def test_json_bytes_are_the_verified_payload_and_its_checksum(self, store):
        value = {"name": "fig1", "rows": [1, 2, 3], "nested": {"a": 0.5}}
        store.put_json(KEY, "results/fig1", value)
        seen = []
        store.read_observer = lambda name, status, seconds: seen.append(status)
        payload, digest = store.get_json_bytes(KEY, "results/fig1")
        assert payload == json.dumps(value, sort_keys=True).encode("utf-8")
        header = store._path(KEY, "results/fig1", "json").read_bytes().split(b"\n", 1)[0]
        assert header.decode("ascii").rpartition(" sha256=")[2] == digest
        assert digest == hashlib.sha256(payload).hexdigest()
        assert store.stats.hits == {"results": 1}
        assert store.stats.bytes_read == len(payload)
        assert seen == ["hit"]

    def test_json_bytes_written_verbatim(self, store):
        payload = b'{"b": 1,  "a": 2}'  # not canonical: stored as given
        store.put_json_bytes(KEY, "results/raw", payload)
        assert store.get_json_bytes(KEY, "results/raw") == (
            payload, hashlib.sha256(payload).hexdigest()
        )
        assert store.get_json(KEY, "results/raw") == {"a": 2, "b": 1}

    def test_json_bytes_do_not_decode(self, store):
        # Checksum-valid but not JSON: a hit for the byte reader, which
        # leaves judging the payload to its caller; get_json quarantines it.
        store.put_json_bytes(KEY, "results/text", b"not json")
        assert store.get_json_bytes(KEY, "results/text")[0] == b"not json"
        assert store.stats.corrupt == 0
        assert store.get_json(KEY, "results/text") is None
        assert store.stats.corrupt == 1
        assert store.get_json_bytes(KEY, "results/text") is None

    def test_miss_returns_none_and_counts(self, store):
        assert store.get_arrays(KEY, "world/arrays") is None
        assert store.get_json(KEY, "results/nope") is None
        assert store.stats.misses == {"world": 1, "results": 1}
        assert store.stats.total_hits == 0

    def test_stats_track_hits_by_kind(self, store):
        store.put_arrays(KEY, "metrics/day-000", {"x": np.zeros(3)})
        store.get_arrays(KEY, "metrics/day-000")
        store.get_arrays(KEY, "metrics/day-000")
        assert store.stats.hits == {"metrics": 2}
        assert store.stats.puts == {"metrics": 1}


class TestCorruption:
    def _entry_path(self, store):
        files = [p for p in (store.root / f"v{SCHEMA_VERSION}").rglob("*") if p.is_file()]
        assert len(files) == 1
        return files[0]

    def test_truncated_entry_evicted_and_rebuilt(self, store):
        store.put_arrays(KEY, "world/arrays", {"x": np.arange(50)})
        path = self._entry_path(store)
        path.write_bytes(path.read_bytes()[:-20])  # simulated torn write

        assert store.get_arrays(KEY, "world/arrays") is None
        assert store.stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be unlinked"

        # Rebuild path: put again, read back fine.
        store.put_arrays(KEY, "world/arrays", {"x": np.arange(50)})
        loaded = store.get_arrays(KEY, "world/arrays")
        np.testing.assert_array_equal(loaded["x"], np.arange(50))

    def test_flipped_bit_detected(self, store):
        store.put_arrays(KEY, "world/arrays", {"x": np.arange(50)})
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get_arrays(KEY, "world/arrays") is None
        assert store.stats.corrupt == 1

    def test_garbage_file_is_a_miss_not_a_crash(self, store):
        path = store._path(KEY, "world/arrays", "npz")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"this was never an artifact")
        assert store.get_arrays(KEY, "world/arrays") is None
        assert not path.exists()

    @staticmethod
    def _observe(store):
        seen = []
        store.read_observer = lambda name, status, seconds: seen.append(
            (name, status, seconds)
        )
        return seen

    def _assert_counted_once_as_corrupt(self, store, seen, name, kind):
        # One read, one verdict: corrupt and a miss, never also a hit.
        assert store.stats.corrupt == 1
        assert store.stats.hits == {}
        assert store.stats.misses == {kind: 1}
        assert store.stats.bytes_read == 0
        assert [(n, status) for n, status, _ in seen] == [(name, "corrupt")]

    def test_valid_checksum_but_bad_npz_evicted(self, store):
        # Bypass put_arrays: a correctly checksummed payload that numpy
        # cannot parse must also be treated as corruption.
        store._write_payload(KEY, "world/arrays", "npz", b"not an npz archive")
        seen = self._observe(store)
        # A slow read makes the elapsed time the observer gets measurable.
        plan = FaultPlan([FaultRule("store.read.slow", match="world/*",
                                    delay_seconds=0.05)])
        with inject.injecting(plan):
            assert store.get_arrays(KEY, "world/arrays") is None
        self._assert_counted_once_as_corrupt(store, seen, "world/arrays", "world")
        assert seen[0][2] >= 0.05, "the observer gets the read's real elapsed time"
        assert not store._path(KEY, "world/arrays", "npz").exists()

    def test_bad_json_payload_evicted(self, store):
        store._write_payload(KEY, "results/fig1", "json", b"{truncated")
        seen = self._observe(store)
        assert store.get_json(KEY, "results/fig1") is None
        self._assert_counted_once_as_corrupt(store, seen, "results/fig1", "results")
        assert not store._path(KEY, "results/fig1", "json").exists()


def _writer(root: str, worker: int) -> None:
    store = ArtifactStore(root)
    arrays = {"x": np.arange(5000, dtype=np.int64)}  # same content every writer
    for _ in range(20):
        store.put_arrays(KEY, "traffic/day-000", arrays)


class TestConcurrency:
    def test_concurrent_writers_never_tear(self, tmp_path):
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer, args=(str(root), i)) for i in range(4)]
        for proc in procs:
            proc.start()

        # Read continuously while writers race on the same key.
        reader = ArtifactStore(root)
        expected = np.arange(5000, dtype=np.int64)
        observed = 0
        while any(proc.is_alive() for proc in procs):
            loaded = reader.get_arrays(KEY, "traffic/day-000")
            if loaded is not None:
                np.testing.assert_array_equal(loaded["x"], expected)
                observed += 1
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        assert reader.stats.corrupt == 0

        final = reader.get_arrays(KEY, "traffic/day-000")
        np.testing.assert_array_equal(final["x"], expected)


class TestEviction:
    def test_eviction_respects_cap(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=40_000)
        for day in range(10):
            store.put_arrays(KEY, f"traffic/day-{day:03d}", {"x": np.zeros(1000)})
        assert store.total_bytes() <= 40_000
        assert store.stats.evictions > 0
        # The newest entry always survives its own publication.
        assert store.get_arrays(KEY, "traffic/day-009") is not None

    def test_eviction_is_oldest_first_and_read_refreshes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        for day in range(4):
            store.put_arrays(KEY, f"traffic/day-{day:03d}", {"x": np.zeros(1000)})
            # Distinct mtimes even on coarse filesystem timestamp resolution.
            os.utime(
                store._path(KEY, f"traffic/day-{day:03d}", "npz"),
                (1_000_000 + day, 1_000_000 + day),
            )

        # Touch day-000 so it becomes the most recently used.
        entry_size = store.entries()[0].size
        path = store._path(KEY, "traffic/day-000", "npz")
        os.utime(path, (2_000_000, 2_000_000))

        store.max_bytes = entry_size * 2
        store._evict_over_cap()
        remaining = {entry.key.split("/")[-1] for entry in store.entries()}
        assert "day-000.npz" in remaining, "recently-used entry must survive"
        assert "day-001.npz" not in remaining

    def test_oversized_single_artifact_kept(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=100)
        store.put_arrays(KEY, "world/arrays", {"x": np.zeros(1000)})
        assert store.get_arrays(KEY, "world/arrays") is not None

    def test_clear_reports_bytes_freed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_arrays(KEY, "world/arrays", {"x": np.zeros(1000)})
        stored = store.total_bytes()
        assert stored > 0
        assert store.clear() == stored
        assert store.total_bytes() == 0

    def test_run_manifests_not_store_contents(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=10)
        runs = store.root / "runs"
        runs.mkdir(parents=True)
        (runs / "run-1.json").write_text("{}")
        store.put_arrays(KEY, "world/arrays", {"x": np.zeros(10)})
        assert (runs / "run-1.json").exists(), "manifests must never be evicted"
        keys = [entry.key for entry in store.entries()]
        assert all(key.startswith(f"v{SCHEMA_VERSION}/") for key in keys)


class TestByteTally:
    """The running byte tally stands in for a whole-store scan per write."""

    def _assert_tally_exact(self, store):
        assert store._tally == store.total_bytes()

    def test_matches_a_scan_after_puts_overwrites_evictions_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=60_000)
        store.put_json(KEY, "results/fig1", {"v": 1})
        self._assert_tally_exact(store)
        for day in range(4):
            store.put_arrays(KEY, f"metrics/day-{day:03d}", {"x": np.zeros(1000)})
            self._assert_tally_exact(store)
        # An overwrite with a different size replaces, never double-counts.
        store.put_arrays(KEY, "metrics/day-000", {"x": np.zeros(3000)})
        self._assert_tally_exact(store)
        store.put_json(KEY, "results/fig1", {"v": list(range(100))})
        self._assert_tally_exact(store)
        assert store.stats.evictions == 0
        # Past the cap: evict oldest-first down to it.
        for day in range(4, 10):
            store.put_arrays(KEY, f"metrics/day-{day:03d}", {"x": np.zeros(1000)})
            self._assert_tally_exact(store)
        assert store.stats.evictions > 0
        assert store.total_bytes() <= 60_000
        # A quarantined entry leaves the tally with the store (the flipped
        # byte keeps the size this instance published).
        path = store._path(KEY, "metrics/day-009", "npz")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get_arrays(KEY, "metrics/day-009") is None
        assert store.stats.quarantined == 1
        self._assert_tally_exact(store)

    def test_overwriting_a_name_does_not_double_count(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(5):
            store.put_arrays(KEY, "world/arrays", {"x": np.zeros(1000)})
        self._assert_tally_exact(store)
        assert store._tally == store.entries()[0].size

    def test_other_writers_seen_at_next_rescan(self, tmp_path):
        entry = {"x": np.zeros(1000)}  # every entry below has this size
        first = ArtifactStore(tmp_path / "store", max_bytes=50_000)
        first.put_arrays(KEY, "metrics/day-000", entry)  # scans, starts the tally
        size = first.total_bytes()
        cap = first.max_bytes = size * 5
        # A second instance (another process, in production) fills the
        # store past the cap; the first instance's tally does not see it.
        second = ArtifactStore(tmp_path / "store", max_bytes=None)
        for day in range(1, 8):
            second.put_arrays(KEY, f"metrics/day-{day:03d}", entry)
        assert first.total_bytes() == 8 * size > cap
        assert first._tally == size
        # Its writes overshoot the cap until the tally passes it...
        for day in range(8, 12):
            first.put_arrays(KEY, f"metrics/day-{day:03d}", entry)
        assert first.stats.evictions == 0
        assert first.total_bytes() == 12 * size
        # ...and then the rescan sees everything and evicts down to the cap.
        first.put_arrays(KEY, "metrics/day-012", entry)
        assert first.stats.evictions == 13 - 5
        assert first.total_bytes() <= cap
        self._assert_tally_exact(first)
        assert first.get_arrays(KEY, "metrics/day-012") is not None

    def test_threaded_puts_keep_the_tally_consistent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_json(KEY, "results/seed", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def writer(worker):
                for i in range(40):
                    # Shared names (overwrites) and per-thread names.
                    store.put_json(KEY, f"results/shared-{i % 5}", {"w": worker, "i": i})
                    store.put_json(KEY, f"results/own-{worker}-{i}", {"i": [i] * worker})

            threads = [threading.Thread(target=writer, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert store.stats.write_errors == 0
        self._assert_tally_exact(store)


def _pathlib_entries(store):
    """The inventory walk ``entries()`` used before ``os.scandir``."""
    root = store.root
    files = [
        path
        for version_dir in root.glob("v*")
        if version_dir.is_dir()
        for path in version_dir.rglob("*")
        if path.is_file() and not path.name.startswith(".")
    ]
    out = [
        ArtifactEntry(
            key=str(path.relative_to(root)),
            size=path.stat().st_size,
            mtime=path.stat().st_mtime,
        )
        for path in files
    ]
    out.sort(key=lambda e: (e.mtime, e.key))
    return out


class TestInventory:
    def test_entries_match_pathlib_walk(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        names = [
            "world/arrays",
            "traffic/day-000",
            "providers/umbrella/day-003",
            "providers/crux/monthly",
            "lists/tranco/day-3",
            "deeply/nested/artifact/name",
        ]
        for i, name in enumerate(names):
            store.put_arrays(KEY, name, {"x": np.zeros(10 * (i + 1))})
            store.put_json("1" * 24, name, {"i": i})
        version_dir = store.root / f"v{SCHEMA_VERSION}"
        # Temporary files from an in-flight or torn write, a dot-named
        # directory, and sidecars outside the versioned tree.
        (version_dir / KEY / "traffic" / ".day-001.npz.tmp-1-abcd").write_bytes(b"x")
        (version_dir / KEY / ".tmp-stray").write_bytes(b"xy")
        (version_dir / ".hidden").mkdir()
        (version_dir / ".hidden" / "kept.json").write_bytes(b"xyz")
        (store.root / "runs").mkdir()
        (store.root / "runs" / "run-1.json").write_text("{}")
        (store.root / "other").mkdir()
        (store.root / "other" / "x.npz").write_bytes(b"0")
        for i, path in enumerate(sorted(version_dir.rglob("*.npz"))):
            os.utime(path, (1_000_000 + i % 3, 1_000_000 + i % 3))

        expected = _pathlib_entries(store)
        assert len(expected) == 2 * len(names) + 1
        assert store.entries() == expected
        assert store.total_bytes() == sum(entry.size for entry in expected)

    def test_missing_root_is_empty(self, tmp_path):
        store = ArtifactStore(tmp_path / "absent")
        assert store.entries() == []
        assert store.total_bytes() == 0


class TestKeys:
    def test_config_key_is_short_hex(self):
        key = config_key(WorldConfig())
        assert len(key) == 24
        int(key, 16)  # hex-parsable

    def test_config_key_depends_on_fields(self):
        assert config_key(WorldConfig()) != config_key(WorldConfig(seed=1))
        assert config_key(WorldConfig()) == config_key(WorldConfig())

    def test_default_cache_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
