"""Retrieve-then-rerank candidate generation for the LSM.

Public surface of the retrieval subsystem.  See :mod:`repro.retrieval.base`
for the architecture overview.
"""

from .base import (
    AttributeDoc,
    CandidateGenerator,
    CandidateSets,
    FullProductGenerator,
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
    "CandidateGenerator",
    "CandidateSets",
    "DenseRetriever",
    "FullProductGenerator",
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
    cache_token: str | None = None,
    stats: RetrievalStats | None = None,
) -> CandidateGenerator:
    """Assemble the generator the config describes.

    ``embeddings`` feeds the dense retriever; when it is None the dense
    retriever is skipped.  ``generator="full"`` (or no usable retriever)
    falls back to the full Cartesian product.
    """
    stats = stats if stats is not None else RetrievalStats()
    if config.generator == "full":
        return FullProductGenerator(len(source_docs), len(target_docs))

    retrievers: list[Retriever] = []
    if config.use_sparse:
        retrievers.append(
            SparseRetriever(
                target_docs, ngram_n=config.ngram_n, k1=config.bm25_k1, b=config.bm25_b
            )
        )
    if config.use_dense and embeddings is not None:
        retrievers.append(
            DenseRetriever(
                embeddings,
                target_docs,
                cache_token=cache_token,
                stats=stats,
                persist=config.persist,
            )
        )
    if not retrievers:
        return FullProductGenerator(len(source_docs), len(target_docs))
    return FusedCandidateGenerator(
        source_docs, target_docs, retrievers, config=config, stats=stats
    )
