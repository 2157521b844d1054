"""Persistent, content-addressed experiment artifact store.

See :mod:`repro.store.artifacts` for the on-disk format and
:mod:`repro.store.serialize` for the domain-object codecs.
"""

from repro.store.artifacts import (
    DEFAULT_MAX_BYTES,
    MAX_QUARANTINE,
    SCHEMA_VERSION,
    ArtifactEntry,
    ArtifactStore,
    StoreStats,
    canonical_bytes,
    config_key,
    default_cache_dir,
    snapshot_etag,
)
from repro.store.serialize import (
    StoredProvider,
    attach_engine_store,
    load_or_build_world,
    wrap_providers,
)

__all__ = [
    "DEFAULT_MAX_BYTES",
    "MAX_QUARANTINE",
    "SCHEMA_VERSION",
    "ArtifactEntry",
    "ArtifactStore",
    "StoreStats",
    "canonical_bytes",
    "config_key",
    "default_cache_dir",
    "snapshot_etag",
    "StoredProvider",
    "attach_engine_store",
    "load_or_build_world",
    "wrap_providers",
]
