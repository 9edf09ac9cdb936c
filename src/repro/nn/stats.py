"""Per-stage timing counters of the training fast path.

The mirror image of :class:`repro.engine.stats.EngineStats` for the other
half of the latency budget: every expensive step of a training pass
(encoding, masking, bucket planning, forward, backward, optimiser) runs
under a named :meth:`TrainStats.timer` block, and structural decisions
(mask re-draws, warm vs cold optimiser starts) increment
counters.  ``repro train stats`` renders them for humans; the fast-path
tests assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.counters import Counters


@dataclass
class TrainStats(Counters):
    """Counters and stage timings accumulated across training passes."""

    #: Optimiser steps executed (mini-batches that reached ``step()``).
    steps: int = 0
    #: Passes over the training set.
    epochs: int = 0
    #: Sample rows pushed through forward+backward (sum of batch sizes).
    samples: int = 0
    #: Length-bucketed micro-batches executed.
    microbatches: int = 0
    #: Distinct padded-length buckets across all epochs.
    buckets: int = 0
    #: MLM mask draws that were repeated because they masked nothing.
    mask_redraws: int = 0
    #: Batches with no maskable token at all (skipped, cannot train).
    unmaskable_batches: int = 0
    #: ``update()`` runs that reused persisted Adam moment state.
    warm_starts: int = 0
    #: Optimiser (re)initialisations from scratch.
    cold_starts: int = 0
