"""Per-stage timing counters of the scoring engine.

Every expensive step of a scoring pass (encoding, fingerprinting, bucket
planning, forward passes, worker dispatch, persistence) runs under a named
``EngineStats.timer`` block (inherited from :class:`repro.obs.Counters`),
and every skip/score decision increments a counter.  The counters are the
engine's observability surface: the parity and incremental-rescoring tests
assert on them, and ``repro engine stats`` renders them for humans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.counters import Counters


@dataclass
class EngineStats(Counters):
    """Counters and stage timings accumulated by one :class:`ScoringEngine`."""

    #: Pairs handed to ``score_halves`` or ``score_encoded`` (cached +
    #: computed).
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
    #: Calls to ``score_halves`` or ``score_encoded``.
    scoring_calls: int = 0

    @property
    def skip_fraction(self) -> float:
        """Fraction of requested pairs served without an encoder forward."""
        if self.pairs_requested == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_requested
