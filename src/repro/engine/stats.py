"""Per-stage timing counters of the scoring engine.

Every expensive step of a scoring pass (encoding, fingerprinting, bucket
planning, forward passes, worker dispatch, persistence) runs under a named
:meth:`EngineStats.timer` block, and every skip/score decision increments a
counter.  The counters are the engine's observability surface: the parity
and incremental-rescoring tests assert on them, and ``repro engine stats``
renders them for humans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator


@dataclass
class EngineStats:
    """Counters and stage timings accumulated by one :class:`ScoringEngine`."""

    #: Pairs handed to ``score_encoded`` (cached + computed).
    pairs_requested: int = 0
    #: Pairs whose score was served from the in-memory fingerprint cache.
    pairs_skipped: int = 0
    #: Pairs actually pushed through the encoder.
    pairs_scored: int = 0
    #: Pairs whose score was recovered from a persisted store block.
    pairs_persisted_hits: int = 0
    #: Distinct padded-length buckets across all scoring passes.
    buckets: int = 0
    #: Micro-batches executed (in-process + workers).
    microbatches: int = 0
    #: Micro-batches executed by pool workers (shm or pickle pool).
    worker_batches: int = 0
    #: Micro-batches executed on the persistent shared-memory pool.
    shm_batches: int = 0
    #: Micro-batches executed in-process (n_workers=0, small batches, fallback).
    inprocess_batches: int = 0
    #: Times the worker pool failed and the engine fell back in-process.
    worker_fallbacks: int = 0
    #: Times the shm serving plane failed and the engine fell down the ladder.
    shm_fallbacks: int = 0
    #: Weight publishes into the shared-memory arena.
    publishes: int = 0
    #: Total bytes copied into the arena across all publishes.
    publish_bytes: int = 0
    #: Worker-side weight (re)binds to a freshly published arena version.
    hot_swaps: int = 0
    #: Weight updates absorbed by a live pool that the respawn lifecycle
    #: would have paid a full teardown + N process spawns for.
    respawns_avoided: int = 0
    #: Model-version bumps (weight updates invalidating cached scores).
    invalidations: int = 0
    #: Calls to ``score_encoded``.
    scoring_calls: int = 0
    #: Wall-clock seconds per named stage.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Invocations per named stage.
    stage_calls: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the enclosed block under ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + elapsed
            self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured time (e.g. pipeline stages) into the stats."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + calls

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Sum of two stat sets (counters added, stage dicts folded)."""
        merged = EngineStats()
        for f in fields(EngineStats):
            if f.name in ("stage_seconds", "stage_calls"):
                continue
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        for source in (self, other):
            for stage, seconds in source.stage_seconds.items():
                merged.add_time(stage, seconds, source.stage_calls.get(stage, 1))
        return merged

    def as_dict(self) -> dict[str, object]:
        """Flat snapshot: counters plus ``time.<stage>`` seconds.

        Derived from the dataclass fields (declaration order) rather than a
        hand-maintained name list, so a newly added counter always renders
        -- as ``0`` when untouched -- instead of silently vanishing from
        ``repro engine stats``.
        """
        payload: dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(EngineStats)
            if f.name not in ("stage_seconds", "stage_calls")
        }
        for stage in sorted(self.stage_seconds):
            payload[f"time.{stage}"] = round(self.stage_seconds[stage], 6)
        return payload

    @property
    def skip_fraction(self) -> float:
        """Fraction of requested pairs served without an encoder forward."""
        if self.pairs_requested == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_requested
