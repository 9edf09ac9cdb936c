"""Per-stage timing counters of the scoring engine.

Every expensive step of a scoring pass (encoding, fingerprinting, bucket
planning, forward passes) runs under a named
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
    #: Stale rows a caller left out of its scoring pass because no output
    #: reads their score yet (the matcher's dtype-incompatible rows before
    #: the first label); counted as neither requested nor skipped.
    pairs_filtered: int = 0
    #: Distinct padded-length buckets across all scoring passes.
    buckets: int = 0
    #: Micro-batches executed (in-process + threaded).
    microbatches: int = 0
    #: Micro-batches of multi-batch plans scored on the engine's threads.
    threaded_batches: int = 0
    #: Micro-batches executed in-process (n_workers <= 1, one-batch plans).
    inprocess_batches: int = 0
    #: Model-version bumps (weight updates invalidating cached scores).
    invalidations: int = 0
    #: Calls to ``score_halves`` or ``score_encoded``.
    scoring_calls: int = 0
    #: Rows of a rescore after a top-only update whose trunk output was read
    #: back from the trunk store (their micro-batch ran only the top block).
    trunk_hits: int = 0
    #: Rows of such a rescore whose micro-batch ran the whole trunk: not
    #: stored yet, refused by the byte cap, or batched with such a row.
    trunk_misses: int = 0
    #: Gauge: bytes the trunk store holds now.
    trunk_bytes: int = 0

    @property
    def skip_fraction(self) -> float:
        """Fraction of requested pairs served without an encoder forward."""
        if self.pairs_requested == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_requested
