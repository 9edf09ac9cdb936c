"""Drift-side bookkeeping for the incremental re-matching path.

When a :class:`~repro.schema.drift.SchemaDelta` lands on a live matcher
(:meth:`repro.core.matcher.LearnedSchemaMatcher.apply_delta`), only the
pairs the delta touched should ever reach BERT again; everything else is
served from the candidate store's feature columns.  The counters here
make that contract observable: ``pairs_rescored`` / ``pairs_reused`` are
measured around the first featurization pass after each delta, and the
drift benchmark (``benchmarks/test_drift.py``) gates on their ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.counters import Counters
from ..schema.drift import DeltaEffect, SchemaDelta
from .candidates import StoreDeltaReport


@dataclass
class DriftReport:
    """What one :meth:`LearnedSchemaMatcher.apply_delta` call did."""

    delta: SchemaDelta
    effect: DeltaEffect
    store: StoreDeltaReport
    #: Source indices whose candidate sets were laid out again: every
    #: added, renamed or retyped source, with or without retrieval.
    regenerated_sources: list[int] = field(default_factory=list)
    #: Candidate rows the delta marked dirty (renamed sources' rows and new
    #: pairs); the next ``predict()`` rescores them.
    rows_dirtied: int = 0

    def describe(self) -> str:
        return (
            f"delta[{self.delta.describe()}] "
            f"pairs -{self.store.pairs_dropped}/+{self.store.pairs_added}, "
            f"{len(self.regenerated_sources)} sources regenerated, "
            f"{self.store.labels_preserved} labels preserved"
        )


@dataclass
class DriftStats(Counters):
    """Cumulative drift counters, registered as ``drift`` on the matcher.

    ``pairs_rescored``/``pairs_reused`` are engine-measured: the deltas of
    the scoring engine's ``pairs_scored``/``pairs_skipped`` counters across
    the first featurization pass after a drift, i.e. actual BERT forward
    work vs. pairs served from the feature column or the fingerprint cache
    -- not an estimate from the pair sets.
    """

    deltas_applied: int = 0
    columns_added: int = 0
    columns_renamed: int = 0
    columns_retyped: int = 0
    columns_dropped: int = 0
    pairs_dropped: int = 0
    pairs_added: int = 0
    rows_dirtied: int = 0
    labels_preserved: int = 0
    labels_dropped: int = 0
    candidate_regenerations: int = 0
    #: BERT pairs actually re-scored on the first pass after a drift.
    pairs_rescored: int = 0
    #: Pairs served from the BERT column or the engine's fingerprint score
    #: cache on that pass.
    pairs_reused: int = 0

    def record(self, report: DriftReport) -> None:
        self.deltas_applied += 1
        self.columns_added += len(report.effect.added)
        self.columns_renamed += len(report.effect.renamed)
        self.columns_retyped += len(report.effect.retyped)
        self.columns_dropped += len(report.effect.dropped)
        self.pairs_dropped += report.store.pairs_dropped
        self.pairs_added += report.store.pairs_added
        self.rows_dirtied += report.rows_dirtied
        self.labels_preserved += report.store.labels_preserved
        self.labels_dropped += report.store.labels_dropped
        self.candidate_regenerations += len(report.regenerated_sources)
