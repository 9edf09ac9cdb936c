"""Resilient on-disk artifact store (pre-trained weights, vocabularies).

Public surface of the store subsystem: the :class:`ArtifactStore` class
plus a module-level function API (``content_key`` / ``save_arrays`` /
``load_arrays`` / ``save_json`` / ``load_json`` / ``clear_cache``) over the
process-wide default store.
"""

from .integrity import QUARANTINE_SUFFIX, SIDECAR_SUFFIX, probe, quarantine
from .locking import FileLock, LockTimeout
from .stats import CacheStats
from .store import (
    FORMAT_VERSION,
    TMP_PREFIX,
    ArtifactStore,
    VerifyResult,
    cache_dir,
    cache_stats,
    clear_cache,
    content_key,
    default_store,
    load_arrays,
    load_json,
    persistent_cache_stats,
    resolve_root,
    save_arrays,
    save_json,
    verify_cache,
)

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "FileLock",
    "FORMAT_VERSION",
    "LockTimeout",
    "QUARANTINE_SUFFIX",
    "SIDECAR_SUFFIX",
    "TMP_PREFIX",
    "VerifyResult",
    "cache_dir",
    "cache_stats",
    "clear_cache",
    "content_key",
    "default_store",
    "load_arrays",
    "load_json",
    "persistent_cache_stats",
    "probe",
    "quarantine",
    "resolve_root",
    "save_arrays",
    "save_json",
    "verify_cache",
]
