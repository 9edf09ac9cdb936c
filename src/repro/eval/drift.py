"""Drift replay: drive a scripted delta sequence through a live matcher.

The replay is the drift subsystem's end-to-end harness: generate (or load)
a deterministic :class:`~repro.schema.drift.SchemaDelta` sequence, apply
each delta to a live :class:`~repro.core.matcher.LearnedSchemaMatcher`
through the incremental path, re-predict, and record -- per delta -- how
much work the incremental path actually did (pairs re-scored by BERT vs.
served from the BERT feature column, candidate regenerations, label
survival).  Both ``repro drift replay`` and ``benchmarks/test_drift.py``
are thin wrappers over :func:`run_drift_replay`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.artifacts import ArtifactConfig
from ..core.config import LsmConfig
from ..core.matcher import LearnedSchemaMatcher
from ..datasets.drift import DriftConfig, DriftGenerator
from ..datasets.registry import MatchingTask
from ..schema.drift import SchemaDelta


@dataclass
class DriftReplayRecord:
    """Incremental-path accounting for one applied delta."""

    step: int
    delta: str
    operations: int
    pairs_dropped: int
    pairs_added: int
    regenerated_sources: int
    labels_preserved: int
    labels_dropped: int
    #: BERT pairs re-scored / served from the score cache on the following
    #: ``predict()`` (engine-measured; see :class:`repro.core.DriftStats`).
    pairs_rescored: int
    pairs_reused: int
    apply_seconds: float
    predict_seconds: float

    def as_row(self) -> list[str]:
        return [
            str(self.step),
            str(self.operations),
            str(self.pairs_dropped),
            str(self.pairs_added),
            str(self.regenerated_sources),
            str(self.pairs_rescored),
            str(self.pairs_reused),
            str(self.labels_preserved),
            f"{self.apply_seconds * 1e3:.1f}",
            f"{self.predict_seconds * 1e3:.1f}",
        ]


@dataclass
class DriftReplayResult:
    """Full trace of one drift replay."""

    records: list[DriftReplayRecord] = field(default_factory=list)
    #: Final cumulative drift counters (``DriftStats.as_dict()``).
    stats: dict[str, object] = field(default_factory=dict)

    @property
    def total_rescored(self) -> int:
        return sum(record.pairs_rescored for record in self.records)

    @property
    def total_reused(self) -> int:
        return sum(record.pairs_reused for record in self.records)

    def reuse_fraction(self) -> float:
        total = self.total_rescored + self.total_reused
        return self.total_reused / total if total else 0.0


REPLAY_COLUMNS = [
    "step",
    "ops",
    "-pairs",
    "+pairs",
    "regen",
    "rescored",
    "reused",
    "labels",
    "apply ms",
    "predict ms",
]


def replay_deltas(
    matcher: LearnedSchemaMatcher, deltas: list[SchemaDelta]
) -> DriftReplayResult:
    """Apply ``deltas`` in order to a live matcher, predicting after each.

    The matcher must have completed at least one ``predict()`` so the first
    delta's rescored/reused counts measure incremental work, not the initial
    full scoring pass.
    """
    result = DriftReplayResult()
    for step, delta in enumerate(deltas, start=1):
        rescored_before = matcher.drift_stats.pairs_rescored
        reused_before = matcher.drift_stats.pairs_reused
        started = time.perf_counter()
        report = matcher.apply_delta(delta)
        apply_seconds = time.perf_counter() - started
        started = time.perf_counter()
        matcher.predict()
        predict_seconds = time.perf_counter() - started
        result.records.append(
            DriftReplayRecord(
                step=step,
                delta=delta.describe(),
                operations=len(delta),
                pairs_dropped=report.store.pairs_dropped,
                pairs_added=report.store.pairs_added,
                regenerated_sources=len(report.regenerated_sources),
                labels_preserved=report.store.labels_preserved,
                labels_dropped=report.store.labels_dropped,
                pairs_rescored=matcher.drift_stats.pairs_rescored - rescored_before,
                pairs_reused=matcher.drift_stats.pairs_reused - reused_before,
                apply_seconds=apply_seconds,
                predict_seconds=predict_seconds,
            )
        )
    result.stats = matcher.drift_stats.as_dict()
    return result


def run_drift_replay(
    task: MatchingTask,
    drift_config: DriftConfig | None = None,
    lsm_config: LsmConfig | None = None,
    artifact_config: ArtifactConfig | None = None,
) -> DriftReplayResult:
    """Generate a drift sequence against ``task.source`` and replay it.

    Builds a matcher, runs the initial ``predict()`` (full scoring pass),
    then replays the generated deltas through the incremental path.
    """
    deltas = DriftGenerator(task.source, drift_config).sequence()
    with LearnedSchemaMatcher(
        task.source,
        task.target,
        config=lsm_config,
        artifact_config=artifact_config,
    ) as matcher:
        matcher.predict()
        return replay_deltas(matcher, deltas)
