"""The recall@k gate: pruning may not drop a single true match.

The retrieve-then-rerank layer trades candidate-set size for speed, which is
only sound if the retrieval stage keeps every ground-truth target inside the
top-k sets -- the cross-encoder cannot rerank a pair it never sees.  This
module measures that recall on datasets with ground truth and raises when it
is below 1.0, which is how the test-suite gate (and ``repro retrieval gate``)
block a lossy configuration from shrinking ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..schema.model import AttributeRef
from .base import CandidateSets, FusedCandidateGenerator


@dataclass
class RecallReport:
    """Recall@k of a candidate generator against one ground truth."""

    dataset: str
    k: int
    num_truth: int
    num_hit: int
    #: Ground-truth pairs whose target fell outside the source's top-k set.
    missed: list[tuple[AttributeRef, AttributeRef]] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return self.num_hit / self.num_truth if self.num_truth else 1.0

    @property
    def passed(self) -> bool:
        return not self.missed

    def as_dict(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "k": self.k,
            "num_truth": self.num_truth,
            "num_hit": self.num_hit,
            "recall": round(self.recall, 6),
            "missed": [f"{s} -> {t}" for s, t in self.missed],
        }


def candidate_recall(
    sets: CandidateSets,
    ground_truth: Mapping[AttributeRef, AttributeRef],
    source_refs: Sequence[AttributeRef],
    target_refs: Sequence[AttributeRef],
    dataset: str = "",
) -> RecallReport:
    """Fraction of ground-truth targets inside the per-source candidate sets.

    Ground-truth pairs whose source or target lies outside the given ref
    lists are ignored (partial ground truths are the norm here).
    """
    source_index = {ref: i for i, ref in enumerate(source_refs)}
    target_index = {ref: i for i, ref in enumerate(target_refs)}
    report = RecallReport(dataset=dataset, k=sets.k, num_truth=0, num_hit=0)
    for source, target in ground_truth.items():
        s = source_index.get(source)
        t = target_index.get(target)
        if s is None or t is None:
            continue
        report.num_truth += 1
        if sets.rank_of(s, t) is not None:
            report.num_hit += 1
        else:
            report.missed.append((source, target))
    return report


class RecallGateError(AssertionError):
    """A lossy candidate configuration tried to shrink the pair set."""

    def __init__(self, report: RecallReport) -> None:
        self.report = report
        missed = ", ".join(f"{s} -> {t}" for s, t in report.missed[:5])
        more = "" if len(report.missed) <= 5 else f" (+{len(report.missed) - 5} more)"
        super().__init__(
            f"recall@{report.k} gate failed on {report.dataset or 'dataset'}: "
            f"{report.num_hit}/{report.num_truth} true matches retained; "
            f"missed {missed}{more}"
        )


def enforce_recall_gate(
    sets: CandidateSets,
    ground_truth: Mapping[AttributeRef, AttributeRef],
    source_refs: Sequence[AttributeRef],
    target_refs: Sequence[AttributeRef],
    dataset: str = "",
) -> RecallReport:
    """Raise :class:`RecallGateError` unless recall@k is exactly 1.0."""
    report = candidate_recall(sets, ground_truth, source_refs, target_refs, dataset)
    if not report.passed:
        raise RecallGateError(report)
    return report


def minimal_full_recall_k(
    generator: FusedCandidateGenerator,
    ground_truth: Mapping[AttributeRef, AttributeRef],
    source_refs: Sequence[AttributeRef],
    target_refs: Sequence[AttributeRef],
) -> int:
    """Smallest k at which the generator retains every true match.

    Computed from one full ranking (``generate(num_targets)``): the answer is
    ``1 + max`` rank of any ground-truth target in its source's ranking.
    """
    sets = generator.generate(generator.num_targets)
    source_index = {ref: i for i, ref in enumerate(source_refs)}
    target_index = {ref: i for i, ref in enumerate(target_refs)}
    worst = 0
    for source, target in ground_truth.items():
        s = source_index.get(source)
        t = target_index.get(target)
        if s is None or t is None:
            continue
        rank = sets.rank_of(s, t)
        if rank is None:
            rank = len(target_refs) - 1
        worst = max(worst, rank)
    return worst + 1


def recall_curve(
    generator: FusedCandidateGenerator,
    ground_truth: Mapping[AttributeRef, AttributeRef],
    source_refs: Sequence[AttributeRef],
    target_refs: Sequence[AttributeRef],
    ks: Sequence[int],
    dataset: str = "",
) -> list[RecallReport]:
    """Recall@k for each k, from a single full ranking."""
    sets = generator.generate(generator.num_targets)
    reports = []
    for k in ks:
        truncated = CandidateSets(
            per_source=[row[:k] for row in sets.per_source],
            k=min(k, generator.num_targets),
            retriever_names=sets.retriever_names,
        )
        reports.append(
            candidate_recall(truncated, ground_truth, source_refs, target_refs, dataset)
        )
    return reports
