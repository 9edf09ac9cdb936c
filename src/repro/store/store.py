"""The resilient on-disk artifact store.

Pre-training happens "once per ISS / per vertical" in the paper; this store
makes that literal: experiments that share an ISS reuse the same pre-trained
encoder instead of re-running MLM.  Artefacts are keyed by a SHA-256 content
hash of whatever inputs determined them (corpus, config, seed), so stale
reuse is impossible.

Resilience guarantees (the reason this lives in its own package):

* **loads never raise** — a truncated, zero-byte or checksum-mismatched
  entry is quarantined to ``<name>.corrupt`` and reported as a miss, so the
  caller recomputes and re-saves instead of crashing every future run;
* **writes are atomic** — serialize to a same-directory temp file, fsync,
  ``os.replace``; an interrupted run can leave a stray ``.tmp-*`` file but
  never a half-written artefact under the final name;
* **writes are exclusive** — a per-entry lockfile keeps concurrent sessions
  from interleaving bytes;
* **formats are versioned** — entries live under ``v<N>/`` so a future
  layout change invalidates cleanly instead of mis-deserializing;
* **everything is counted** — hits, misses, corruption events and bytes
  written feed a per-session :class:`CacheStats` plus a persistent ledger
  that ``repro cache stats`` reads across processes.

The cache directory resolves, in order, to ``$REPRO_CACHE_DIR``,
``<cwd>/.repro_cache``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from .. import obs
from .integrity import (
    CORRUPTION_ERRORS,
    QUARANTINE_SUFFIX,
    SIDECAR_SUFFIX,
    check_sidecar,
    deep_read_json,
    deep_read_npz,
    probe,
    quarantine,
    sha256_hex,
    write_sidecar,
)
from .locking import LOCK_SUFFIX, FileLock, LockTimeout
from .stats import CacheStats

logger = logging.getLogger(__name__)

#: Bump when the on-disk layout or serialization format changes; old
#: ``v<N>/`` namespaces then simply stop being read (clean invalidation).
FORMAT_VERSION = 1

#: Prefix of in-flight temp files (same directory as their target so
#: ``os.replace`` stays atomic); never matched by the load path.
TMP_PREFIX = ".tmp-"

_STATS_LEDGER = "stats-ledger.json"


def resolve_root(root: str | os.PathLike | None = None) -> Path:
    """The cache root: explicit arg > ``$REPRO_CACHE_DIR`` > cwd default."""
    if root is not None:
        return Path(root)
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.cwd() / ".repro_cache"


def content_key(*parts: Any) -> str:
    """Stable SHA-256 hex digest of a heterogeneous tuple of inputs.

    Accepts strings, numbers, dicts/lists (JSON-serialised with sorted keys)
    and lists of token lists (the corpus).
    """
    digest = hashlib.sha256()
    for part in parts:
        payload = json.dumps(part, sort_keys=True, default=str)
        digest.update(payload.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class VerifyResult:
    """One row of ``ArtifactStore.verify()`` / ``repro cache verify``."""

    path: Path
    status: str  # "ok" | "corrupt" | "quarantined" | "stale-temp" | "legacy"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ArtifactStore:
    """Content-addressed, integrity-checked artefact store on local disk."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = resolve_root(root)
        self.stats = CacheStats()

    # -- layout ----------------------------------------------------------

    @property
    def namespace(self) -> Path:
        """Directory holding entries of the current :data:`FORMAT_VERSION`."""
        return self.root / f"v{FORMAT_VERSION}"

    def _ensure_namespace(self) -> Path:
        self.namespace.mkdir(parents=True, exist_ok=True)
        return self.namespace

    def array_path(self, kind: str, key: str) -> Path:
        return self.namespace / f"{kind}-{key}.npz"

    def json_path(self, kind: str, key: str) -> Path:
        return self.namespace / f"{kind}-{key}.json"

    # -- reads -----------------------------------------------------------

    def load_arrays(self, kind: str, key: str) -> dict[str, np.ndarray] | None:
        return self._load(self.array_path(kind, key), deep_read_npz)

    def load_json(self, kind: str, key: str) -> Any | None:
        return self._load(self.json_path(kind, key), deep_read_json)

    def _load(self, path: Path, reader: Callable[[Path], Any]) -> Any | None:
        """Verified read: sidecar check, then a full deep read.

        Never raises on a damaged entry — quarantines it and reports a miss
        so the caller recomputes.
        """
        with obs.span("store.load", entry=path.name) as span:
            if not path.exists():
                self._record(lambda s: s.record_miss())
                span.set(outcome="miss")
                return None
            reason = check_sidecar(path)
            if reason is None:
                try:
                    value = reader(path)
                except CORRUPTION_ERRORS as exc:
                    reason = f"unreadable ({type(exc).__name__}: {exc})"
                else:
                    self._record(lambda s: s.record_hit())
                    span.set(outcome="hit")
                    return value
            quarantine(path, reason)
            self._record(lambda s: s.record_corruption(path.name))
            span.set(outcome="corrupt", reason=reason)
            return None

    # -- writes ----------------------------------------------------------

    def save_arrays(self, kind: str, key: str, arrays: dict[str, np.ndarray]) -> Path | None:
        def serialize(handle: Any) -> None:
            np.savez_compressed(handle, **arrays)

        return self._save(self.array_path(kind, key), serialize)

    def save_json(self, kind: str, key: str, payload: Any) -> Path | None:
        def serialize(handle: Any) -> None:
            handle.write(json.dumps(payload).encode("utf-8"))

        return self._save(self.json_path(kind, key), serialize)

    def _save(self, path: Path, serialize: Callable[[Any], None]) -> Path | None:
        """Atomic, locked, checksummed write; returns ``None`` on failure.

        A failed save is logged and counted but never raises: the artefact
        is a cache, so the session can always continue without it.
        """
        directory = self._ensure_namespace()
        with obs.span("store.save", entry=path.name) as span:
            try:
                with FileLock(path.with_name(path.name + LOCK_SUFFIX)):
                    fd, tmp_name = tempfile.mkstemp(
                        prefix=TMP_PREFIX, suffix=path.suffix, dir=directory
                    )
                    tmp = Path(tmp_name)
                    try:
                        with os.fdopen(fd, "wb") as handle:
                            serialize(handle)
                            handle.flush()
                            os.fsync(handle.fileno())
                        digest = sha256_hex(tmp.read_bytes())
                        nbytes = tmp.stat().st_size
                        os.replace(tmp, path)
                        write_sidecar(path, digest)
                        self._fsync_dir(directory)
                    except BaseException:
                        tmp.unlink(missing_ok=True)
                        raise
            except (OSError, LockTimeout) as exc:
                logger.warning("could not persist cache entry %s: %s", path.name, exc)
                self._record(lambda s: s.record_write_failure())
                span.set(outcome="failed")
                return None
            self._record(lambda s: s.record_write(nbytes))
            span.set(outcome="written", bytes=nbytes)
        return path

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- maintenance -----------------------------------------------------

    def _iter_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                yield path

    def verify(self) -> list[VerifyResult]:
        """Integrity report over *everything* under the cache root.

        Read-only: nothing is quarantined or deleted (the load path does
        quarantining; ``clear`` does deletion).  Legacy flat-layout entries
        from before the versioned namespace are flagged, not failed.
        """
        results: list[VerifyResult] = []
        for path in self._iter_files():
            name = path.name
            if name == _STATS_LEDGER or name.endswith(LOCK_SUFFIX):
                continue
            if name.endswith(SIDECAR_SUFFIX) or name.endswith(
                SIDECAR_SUFFIX + QUARANTINE_SUFFIX
            ):
                continue  # sidecars are judged with their data file
            if name.startswith(TMP_PREFIX):
                results.append(
                    VerifyResult(path, "stale-temp", "interrupted write leftover")
                )
                continue
            if name.endswith(QUARANTINE_SUFFIX):
                results.append(
                    VerifyResult(path, "quarantined", "previously failed verification")
                )
                continue
            if path.suffix not in {".npz", ".json"}:
                results.append(VerifyResult(path, "legacy", "unrecognised file type"))
                continue
            reason = None
            try:
                reason = probe(path)
            except OSError as exc:
                reason = f"unreadable ({exc})"
            in_namespace = path.parent == self.namespace
            if reason is not None:
                results.append(VerifyResult(path, "corrupt", reason))
            elif not in_namespace:
                results.append(
                    VerifyResult(path, "legacy", "outside current format namespace")
                )
            else:
                results.append(VerifyResult(path, "ok"))
        return results

    def clear(self) -> int:
        """Delete every file under the cache root (entries, sidecars,
        quarantined copies, stale temps, legacy flat-layout files); returns
        the number of files removed.  Live lockfiles are skipped so a
        concurrent writer's rename is not silently broken."""
        removed = 0
        directories: list[Path] = []
        for path in self._iter_files():
            if path.name.endswith(LOCK_SUFFIX):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                logger.warning("could not remove cache file %s", path)
        if self.root.is_dir():
            directories = sorted(
                (p for p in self.root.rglob("*") if p.is_dir()), reverse=True
            )
        for directory in directories:
            try:
                directory.rmdir()
            except OSError:
                pass  # not empty (skipped lock) — leave it
        return removed

    # -- observability ---------------------------------------------------

    def _ledger_path(self) -> Path:
        return self.root / _STATS_LEDGER

    def persistent_stats(self) -> CacheStats:
        """Cumulative counters across all sessions that used this root."""
        try:
            return CacheStats.from_json(self._ledger_path().read_text())
        except OSError:
            return CacheStats()

    def _record(self, event: Callable[[CacheStats], None]) -> None:
        event(self.stats)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            ledger = self._ledger_path()
            with FileLock(
                ledger.with_name(ledger.name + LOCK_SUFFIX), timeout=2.0
            ):
                cumulative = self.persistent_stats()
                event(cumulative)
                fd, tmp_name = tempfile.mkstemp(prefix=TMP_PREFIX, dir=self.root)
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(cumulative.to_json())
                os.replace(tmp_name, ledger)
        except (OSError, LockTimeout):
            pass  # observability must never break the session


# -- module-level convenience API (the default store) ---------------------

_DEFAULT_STORE: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The process-wide store for the currently-resolved cache root.

    Re-resolved on every call so ``REPRO_CACHE_DIR`` (or a chdir) takes
    effect immediately.
    """
    global _DEFAULT_STORE
    root = resolve_root()
    if _DEFAULT_STORE is None or _DEFAULT_STORE.root != root:
        _DEFAULT_STORE = ArtifactStore(root)
    return _DEFAULT_STORE


def cache_dir() -> Path:
    """The root cache directory (created on demand)."""
    root = default_store().root
    root.mkdir(parents=True, exist_ok=True)
    return root


def save_arrays(kind: str, key: str, arrays: dict[str, np.ndarray]) -> Path | None:
    return default_store().save_arrays(kind, key, arrays)


def load_arrays(kind: str, key: str) -> dict[str, np.ndarray] | None:
    return default_store().load_arrays(kind, key)


def save_json(kind: str, key: str, payload: Any) -> Path | None:
    return default_store().save_json(kind, key, payload)


def load_json(kind: str, key: str) -> Any | None:
    return default_store().load_json(kind, key)


def clear_cache() -> int:
    return default_store().clear()


def verify_cache() -> list[VerifyResult]:
    return default_store().verify()


def cache_stats() -> CacheStats:
    """This process's counters for the current cache root."""
    return default_store().stats


def persistent_cache_stats() -> CacheStats:
    """Cumulative cross-session counters for the current cache root."""
    return default_store().persistent_stats()
