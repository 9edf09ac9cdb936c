"""Per-tenant model residency: versioned side-by-side weights + pinned LRU.

The scoring engine keeps *one* model hot; a multi-tenant service must keep
**many** -- one resident copy per (tenant, version) -- because a
hot-swap must not disturb batches already in flight against the previous
version.  :class:`ModelResidency` owns those copies:

* :meth:`publish` snapshots a tenant's live (model, classifier) into a new
  resident version: a deep copy whose parameter arrays are marked
  read-only, so later training of the live model cannot reach it and every
  session of the tenant scores against one shared, immutable copy.
* :meth:`acquire`/:meth:`release` pin a version around an in-flight batch.
  Eviction **never** touches a pinned version, and never the latest version
  of a tenant (that is the copy new requests bind) -- capacity is therefore
  a soft bound: when every resident version is pinned or latest, the
  eviction is *refused* (counted) rather than forced, and retried on the
  next release.

All methods are thread-safe: the asyncio event loop submits and the
executor thread scores, and both sides touch the pin counts.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass


class ResidencyError(RuntimeError):
    """A residency operation referenced an unknown or evicted version."""


@dataclass
class ResidentModel:
    """One resident (tenant, version) snapshot and its pin state."""

    key: str
    tenant: str
    version: int
    model: object
    classifier: object
    special_ids: list[int]
    nbytes: int
    pins: int = 0
    last_used: int = 0

    @property
    def pinned(self) -> bool:
        return self.pins > 0


class ModelResidency:
    """LRU-bounded registry of resident per-tenant model versions."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: dict[str, ResidentModel] = {}
        self._latest: dict[str, str] = {}
        self._versions: dict[str, int] = {}
        self._clock = 0
        # -- counters (metrics surface) --
        self.published = 0
        self.evictions = 0
        self.eviction_refusals = 0
        self.acquires = 0
        self.resident_peak = 0

    @staticmethod
    def make_key(tenant: str, version: int) -> str:
        return f"{tenant}@v{version}"

    # -- publication -----------------------------------------------------------

    def publish(
        self, tenant: str, model, classifier, special_ids
    ) -> str:
        """Snapshot the tenant's live weights as a new resident version."""
        snapshot_model = copy.deepcopy(model)
        snapshot_classifier = copy.deepcopy(classifier)
        snapshot_model.eval()
        snapshot_classifier.eval()
        parameters = [
            parameter.value
            for module in (snapshot_model, snapshot_classifier)
            for parameter in module.parameters().values()
        ]
        for array in parameters:
            array.flags.writeable = False
        nbytes = sum(array.nbytes for array in parameters)
        with self._lock:
            version = self._versions.get(tenant, 0) + 1
            self._versions[tenant] = version
            key = self.make_key(tenant, version)
            self._clock += 1
            entry = ResidentModel(
                key=key,
                tenant=tenant,
                version=version,
                model=snapshot_model,
                classifier=snapshot_classifier,
                special_ids=sorted(special_ids),
                nbytes=nbytes,
                last_used=self._clock,
            )
            self._entries[key] = entry
            self._latest[tenant] = key
            self.published += 1
            self.resident_peak = max(self.resident_peak, len(self._entries))
            self._evict_over_capacity()
        return key

    # -- lookup / pinning ------------------------------------------------------

    def latest_key(self, tenant: str) -> str:
        with self._lock:
            key = self._latest.get(tenant)
            if key is None:
                raise ResidencyError(f"unknown tenant {tenant!r}")
            return key

    def resident_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def is_resident(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def acquire(self, key: str) -> ResidentModel:
        """Pin a resident version for an in-flight batch (LRU-touches it)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise ResidencyError(f"version {key!r} is not resident")
            entry.pins += 1
            self._clock += 1
            entry.last_used = self._clock
            self.acquires += 1
            return entry

    def release(self, key: str) -> None:
        """Drop one pin; retries any eviction the pin was blocking."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                # Closed underneath an in-flight batch only via close();
                # nothing left to unpin.
                return
            if entry.pins <= 0:
                raise ResidencyError(f"release without acquire for {key!r}")
            entry.pins -= 1
            self._evict_over_capacity()

    # -- eviction --------------------------------------------------------------

    def _evict_over_capacity(self) -> None:
        """Evict LRU unpinned, non-latest versions until within capacity.

        Called with the lock held.  When nothing is evictable (everything
        over capacity is pinned or the latest of its tenant) the eviction is
        refused and retried on the next release/publish.
        """
        while len(self._entries) > self.capacity:
            latest = set(self._latest.values())
            candidates = [
                entry
                for entry in self._entries.values()
                if not entry.pinned and entry.key not in latest
            ]
            if not candidates:
                self.eviction_refusals += 1
                return
            victim = min(candidates, key=lambda entry: entry.last_used)
            self._evict(victim)

    def _evict(self, entry: ResidentModel) -> None:
        del self._entries[entry.key]
        self.evictions += 1

    # -- metrics / lifecycle ---------------------------------------------------

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            resident = len(self._entries)
            pinned = sum(1 for entry in self._entries.values() if entry.pinned)
            nbytes = sum(entry.nbytes for entry in self._entries.values())
        return {
            "capacity": self.capacity,
            "resident": resident,
            "resident_peak": self.resident_peak,
            "resident_bytes": nbytes,
            "pinned": pinned,
            "published": self.published,
            "evictions": self.evictions,
            "eviction_refusals": self.eviction_refusals,
            "acquires": self.acquires,
        }

    def close(self) -> None:
        """Unconditionally drop every resident version."""
        with self._lock:
            self._entries.clear()
            self._latest.clear()
