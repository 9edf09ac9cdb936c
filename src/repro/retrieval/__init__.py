"""Retrieve-then-rerank candidate generation for the LSM.

Public surface of the retrieval subsystem.  See :mod:`repro.retrieval.base`
for the architecture overview.
"""

from .base import (
    AttributeDoc,
    CandidateSets,
    FusedCandidateGenerator,
    RetrievalConfig,
    RetrievalStats,
    Retriever,
    docs_from_refs,
    rrf_fuse,
)
from .dense import DenseRetriever
from .gate import (
    RecallGateError,
    RecallReport,
    candidate_recall,
    enforce_recall_gate,
    minimal_full_recall_k,
    recall_curve,
)
from .sparse import SparseRetriever

__all__ = [
    "AttributeDoc",
    "CandidateSets",
    "DenseRetriever",
    "FusedCandidateGenerator",
    "RecallGateError",
    "RecallReport",
    "RetrievalConfig",
    "RetrievalStats",
    "Retriever",
    "SparseRetriever",
    "build_generator",
    "candidate_recall",
    "docs_from_refs",
    "enforce_recall_gate",
    "minimal_full_recall_k",
    "recall_curve",
    "rrf_fuse",
]


def build_generator(
    source_docs,
    target_docs,
    config: RetrievalConfig,
    embeddings=None,
    stats: RetrievalStats | None = None,
) -> FusedCandidateGenerator:
    """Assemble the generator the config describes.

    ``embeddings`` feeds the dense retriever; when it is None the dense
    retriever is skipped.  Raises ``ValueError`` when no retriever is left.
    """
    stats = stats if stats is not None else RetrievalStats()
    retrievers: list[Retriever] = []
    if config.use_sparse:
        retrievers.append(SparseRetriever(target_docs))
    if config.use_dense and embeddings is not None:
        retrievers.append(DenseRetriever(embeddings, target_docs, stats=stats))
    return FusedCandidateGenerator(source_docs, target_docs, retrievers, stats=stats)
