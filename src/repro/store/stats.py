"""Cache observability: in-session and persisted counters.

Every :class:`~repro.store.store.ArtifactStore` keeps a :class:`CacheStats`
for the current process *and* folds each event into a cumulative JSON ledger
inside the cache directory, so ``repro cache stats`` can report on sessions
that ran in other processes.  The ledger is written with the same atomic
temp-file + ``os.replace`` discipline as the artefacts themselves and is
guarded by the store lock, so concurrent sessions cannot interleave updates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from ..obs.counters import Counters


@dataclass
class CacheStats(Counters):
    """Counters for one artifact store (a session's view or the ledger).

    ``hits`` and ``misses`` are disjoint: a corrupt entry is counted under
    ``corruption_events`` (it behaves like a miss — the caller recomputes —
    but the distinction is the whole point of tracking it).
    """

    hits: int = 0
    misses: int = 0
    corruption_events: int = 0
    writes: int = 0
    write_failures: int = 0
    bytes_written: int = 0
    quarantined: list[str] = field(default_factory=list)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def record_corruption(self, name: str) -> None:
        self.corruption_events += 1
        self.quarantined.append(name)

    def record_write(self, nbytes: int) -> None:
        self.writes += 1
        self.bytes_written += nbytes

    def record_write_failure(self) -> None:
        self.write_failures += 1

    @classmethod
    def from_dict(cls, payload: object) -> "CacheStats":
        """Tolerant parse: anything malformed collapses to zeroed stats."""
        stats = cls()
        if not isinstance(payload, dict):
            return stats
        for f in fields(cls):
            value = payload.get(f.name)
            if f.name == "quarantined":
                if isinstance(value, list):
                    stats.quarantined = [str(item) for item in value]
            elif (
                isinstance(f.default, int)
                and isinstance(value, int)
                and not isinstance(value, bool)
            ):
                setattr(stats, f.name, value)
        return stats

    @classmethod
    def from_json(cls, text: str) -> "CacheStats":
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, ValueError):
            return cls()

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
